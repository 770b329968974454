(** Line-delimited JSON compile server — see server.mli. *)

module Json = Spt_obs.Json
module Pool = Spt_runtime.Pool
open Spt_driver

let m_requests = Spt_obs.Metrics.counter "service.server.requests"
let m_errors = Spt_obs.Metrics.counter "service.server.errors"
let m_timeouts = Spt_obs.Metrics.counter "service.server.timeouts"
let m_overloaded = Spt_obs.Metrics.counter "service.server.overloaded"
let m_coalesced = Spt_obs.Metrics.counter "service.server.coalesced"
let h_latency = Spt_obs.Metrics.histogram "service.server.request_latency_s"

let protocol_version = 2

(* one dispatched compile: the leader request plus every identical
   request that arrived while it was in flight (single-flight
   coalescing — followers reuse the leader's reply body) *)
type pending = {
  p_leader : Json.t option;  (** leader's ["id"], echoed back *)
  mutable p_followers : Json.t option list;  (** reverse attach order *)
  p_deadline : float option;
  mutable p_done : bool;  (** a reply for this work has been emitted *)
}

type t = {
  cache : Artifact_cache.t;
  profdb : Spt_profdb.Profdb.t;
      (* the fleet profile database under the cache dir: consulted on
         every compile, fed by every workload run *)
  jobs : int;
  queue_max : int;
  timeout_s : float option;
  (* [mu] guards the stats: counters and the latency histogram (kept
     locally so [stats] works even with the global registry disabled) *)
  mu : Mutex.t;
  mutable requests : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable overloaded : int;
  mutable coalesced : int;
  latency : Spt_obs.Metrics.Hist.t;
  (* [smu] guards the dispatch state of the concurrent serve loop:
     the single-flight table and the in-flight count.  Never held
     while [mu] is — both are leaves *)
  smu : Mutex.t;
  scond : Condition.t;
  pending : (string, pending) Hashtbl.t;
  mutable inflight : int;
  evals : (string * Json.t, string) Slot_memo.t;
      (* the minified eval text of compile replies, by artifact key and
         eval tree (see [eval_text]) *)
}

let create ?cache ?profdb ?(jobs = 1) ?(queue_max = 64) ?timeout_s () =
  let cache =
    match cache with Some c -> c | None -> Artifact_cache.create ()
  in
  {
    cache;
    profdb =
      (match profdb with
      | Some db -> db
      | None ->
        Spt_profdb.Profdb.for_cache ~tool:Cached.tool_version
          (Artifact_cache.dir cache));
    jobs = max 1 jobs;
    queue_max = max 1 queue_max;
    timeout_s;
    mu = Mutex.create ();
    requests = 0;
    errors = 0;
    timeouts = 0;
    overloaded = 0;
    coalesced = 0;
    latency = Spt_obs.Metrics.Hist.create ();
    smu = Mutex.create ();
    scond = Condition.create ();
    pending = Hashtbl.create 16;
    inflight = 0;
    evals = Slot_memo.create Slot_memo.reply_slots;
  }

let jobs t = t.jobs

let describe_error = function
  | Spt_srclang.Lexer.Lex_error (msg, loc) ->
    Format.asprintf "lexical error at %a: %s" Spt_srclang.Ast.pp_loc loc msg
  | Spt_srclang.Parser.Parse_error (msg, loc) ->
    Format.asprintf "syntax error at %a: %s" Spt_srclang.Ast.pp_loc loc msg
  | Spt_srclang.Typecheck.Type_error (msg, loc) ->
    Format.asprintf "type error at %a: %s" Spt_srclang.Ast.pp_loc loc msg
  | Spt_ir.Lower.Lower_error msg -> "lowering error: " ^ msg
  | Spt_interp.Interp.Runtime_error msg -> "runtime error: " ^ msg
  | Sys_error msg -> msg
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* optional "depth" field: a forced speculation depth for the compile's
   cost pricing and (on "run":true) the runtime's in-flight window *)
let depth_of_req req =
  match Json.member "depth" req with
  | None -> None
  | Some (Json.Int k) when k >= 1 -> Some k
  | Some _ -> invalid_arg "depth must be a positive integer" (* -> error reply *)

(* optional "profile" field: the store that guides the compile.  A path
   with no file behind it is an error reply, not an unguided compile *)
let profile_of req =
  Option.map
    (fun path ->
      match Spt_profile.Profile_store.load_explicit path with
      | Ok store -> store
      | Error msg -> invalid_arg msg (* -> error reply *))
    (str_member "profile" req)

let config_of req =
  let c =
    match str_member "config" req with
    | None -> Config.best
    | Some name -> Config.by_name name (* Invalid_argument -> error reply *)
  in
  match depth_of_req req with
  | Some k -> { c with Config.depth = Some k }
  | None -> c

(* ------------------------------------------------------------------ *)
(* Thread-safe counting.  [handle] may run concurrently on pool worker
   domains, so every [t] mutation goes through [t.mu]. *)

let count_request t =
  Mutex.lock t.mu;
  t.requests <- t.requests + 1;
  Mutex.unlock t.mu;
  Spt_obs.Metrics.inc m_requests

let count_error t =
  Mutex.lock t.mu;
  t.errors <- t.errors + 1;
  Mutex.unlock t.mu;
  Spt_obs.Metrics.inc m_errors

let observe t dt =
  Mutex.lock t.mu;
  Spt_obs.Metrics.Hist.observe t.latency dt;
  Spt_obs.Metrics.observe h_latency dt;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)

(* The eval of a compile reply, rendered once per artifact.  A warm hit
   hands back the very tree the cache holds, so the memo answers only
   when its entry's tree is physically the outcome's: trees are
   immutable, so that tree renders to that text.  An artifact stored
   again or read back from disk is a new tree and is rendered fresh;
   the key only picks the slot. *)
let same_eval (k, e) (k', e') = e == e' && String.equal k k'

let eval_text t (o : Cached.outcome) =
  let hash = Hashtbl.hash o.Cached.key
  and entry = (o.Cached.key, o.Cached.eval) in
  match Slot_memo.find t.evals ~hash ~equal:same_eval entry with
  | Some text -> text
  | None ->
    let text = Json.to_string ~minify:true o.Cached.eval in
    if String.length text <= Slot_memo.reply_max_text then
      Slot_memo.set t.evals ~hash entry text;
    text

let compile_reply t ~op ~name ?depth (o : Cached.outcome) =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("op", Json.Str op);
       ("name", Json.Str name);
       ("key", Json.Str o.Cached.key);
       ("cache_hit", Json.Bool o.Cached.hit);
       ("elapsed_s", Json.Float o.Cached.elapsed_s);
       ("report_text", Json.Str o.Cached.report_text);
       ("eval", Json.Raw (eval_text t o));
     ]
    (* echoed only when the request forced a depth, so pre-depth
       clients see byte-identical replies *)
    @ (match depth with Some k -> [ ("depth", Json.Int k) ] | None -> [])
    @
    (* only present when the profile database guided the compile, so
       pre-profdb clients see byte-identical replies *)
    match o.Cached.profile_gen with
    | Some g -> [ ("profdb_gen", Json.Int g) ]
    | None -> [])

let stats_reply t =
  Mutex.lock t.mu;
  let counts =
    [
      ("requests", Json.Int t.requests);
      ("errors", Json.Int t.errors);
      ("timeouts", Json.Int t.timeouts);
      ("overloaded", Json.Int t.overloaded);
      ("coalesced", Json.Int t.coalesced);
    ]
  and latency = Spt_obs.Metrics.Hist.to_json t.latency in
  Mutex.unlock t.mu;
  Mutex.lock t.smu;
  let inflight = t.inflight in
  Mutex.unlock t.smu;
  Json.Obj
    (("ok", Json.Bool true) :: ("op", Json.Str "stats") :: counts
    @ [
        ("jobs", Json.Int t.jobs);
        ("queue_max", Json.Int t.queue_max);
        ("in_flight", Json.Int inflight);
        ( "timeout_s",
          match t.timeout_s with Some s -> Json.Float s | None -> Json.Null );
        ("cache", Artifact_cache.stats_json t.cache);
        ("profdb", Spt_profdb.Profdb.stats_json t.profdb);
        ( "fingerprint",
          let m = Fingerprint.memo_stats () in
          Json.Obj
            [
              ("hits", Json.Int m.Fingerprint.hits);
              ("misses", Json.Int m.Fingerprint.misses);
            ] );
        ("latency_s", latency);
      ])

(* compute the reply body for one decoded request — everything except
   the "id" echo and the "proto" tag, which [finalize] adds.  Never
   raises; never counts a request (callers do, at ingest). *)
let reply_of t req =
  let err msg =
    count_error t;
    Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
  in
  let timed_compile ~op ~name ~source =
    let t0 = Unix.gettimeofday () in
    let reply =
      match
        Cached.compile ~cache:t.cache ~config:(config_of req)
          ?profile:(profile_of req) ~profdb:t.profdb ~name source
      with
      (* depth_of_req cannot raise here: config_of already ran it *)
      | o -> compile_reply t ~op ~name ?depth:(depth_of_req req) o
      | exception e -> err (describe_error e)
    in
    observe t (Unix.gettimeofday () -. t0);
    reply
  in
  (* a workload request with "run":true executes the compilation on
     the speculative runtime and ingests the observed misspeculation
     telemetry back into the profile database — the write half of the
     fleet feedback loop (compiles are the read half) *)
  let timed_run ~name ~source =
    let t0 = Unix.gettimeofday () in
    let reply =
      match
        let config = config_of req in
        let jobs =
          match Json.member "jobs" req with Some (Json.Int n) -> n | _ -> 1
        in
        let fingerprint = Fingerprint.source source in
        let profile, gen_in =
          Spt_profdb.Profdb.guide t.profdb ~fingerprint (profile_of req)
        in
        let runtime_config =
          { (Spt_runtime.Runtime.default_config ~jobs ()) with oracle = false }
        in
        let pr = Pipeline.run_parallel ~config ~runtime_config ?profile source in
        let fresh = Spt_profile.Profile_store.empty () in
        Spt_feedback.Telemetry.record fresh pr.Pipeline.pr_spt
          pr.Pipeline.pr_runtime;
        (pr, gen_in, Spt_profdb.Profdb.ingest t.profdb ~fingerprint fresh)
      with
      | pr, gen_in, gen_out ->
        Json.Obj
          ([
             ("ok", Json.Bool true);
             ("op", Json.Str "workload");
             ("name", Json.Str name);
             ("run", Json.Bool true);
             ("jobs", Json.Int pr.Pipeline.pr_jobs);
             ("n_spt_loops", Json.Int pr.Pipeline.pr_n_loops);
             ( "measured_speedup",
               Json.Float pr.Pipeline.pr_measured_speedup );
             ("guided", Json.Bool (gen_in <> None));
             ("runtime", Spt_runtime.Runtime.stats_json pr.Pipeline.pr_runtime);
           ]
          (* echoed only when the request forced a depth (pr_depth is
             [None] otherwise), keeping pre-depth replies byte-identical *)
          @ (match pr.Pipeline.pr_depth with
            | Some k -> [ ("depth", Json.Int k) ]
            | None -> [])
          @ (match gen_in with
            | Some g -> [ ("profdb_gen_in", Json.Int g) ]
            | None -> [])
          @
          match gen_out with
          | Some g -> [ ("profdb_gen", Json.Int g) ]
          | None -> [])
      | exception e -> err (describe_error e)
    in
    observe t (Unix.gettimeofday () -. t0);
    reply
  in
  match str_member "op" req with
  | Some "compile" -> (
    match (str_member "source" req, str_member "file" req) with
    | None, None -> err "compile: need a \"source\" or \"file\" field"
    | Some _, Some _ -> err "compile: \"source\" and \"file\" are exclusive"
    | Some source, None ->
      let name = Option.value ~default:"<inline>" (str_member "name" req) in
      timed_compile ~op:"compile" ~name ~source
    | None, Some file -> (
      let name =
        Option.value ~default:(Filename.basename file) (str_member "name" req)
      in
      match read_file file with
      | source -> timed_compile ~op:"compile" ~name ~source
      | exception Sys_error msg -> err msg))
  | Some "workload" -> (
    match str_member "name" req with
    | None -> err "workload: need a \"name\" field"
    | Some name -> (
      match
        List.find_opt
          (fun w -> w.Spt_workloads.Suite.name = name)
          Spt_workloads.Suite.all
      with
      | None -> err (Printf.sprintf "workload: unknown workload %S" name)
      | Some w ->
        let source = w.Spt_workloads.Suite.source in
        if Json.member "run" req = Some (Json.Bool true) then
          timed_run ~name ~source
        else timed_compile ~op:"workload" ~name ~source))
  | Some "stats" -> stats_reply t
  | Some "shutdown" ->
    Json.Obj [ ("ok", Json.Bool true); ("op", Json.Str "shutdown") ]
  | Some op -> err (Printf.sprintf "unknown op %S" op)
  | None -> err "request must be an object with an \"op\" field"

let with_id_opt id reply =
  match id with Some id -> Json.prepend ("id", id) reply | None -> reply

let proto_tag reply = Json.prepend ("proto", Json.Int protocol_version) reply
let finalize req reply = with_id_opt (Json.member "id" req) (proto_tag reply)

let handle t req =
  count_request t;
  let reply = finalize req (reply_of t req) in
  match str_member "op" req with
  | Some "shutdown" -> `Shutdown reply
  | _ -> `Reply reply

let handle_line t line =
  let result =
    match Json.of_string line with
    | Ok req -> handle t req
    | Error msg ->
      count_request t;
      count_error t;
      `Reply
        (proto_tag
           (Json.Obj
              [
                ("ok", Json.Bool false); ("error", Json.Str ("bad JSON: " ^ msg));
              ]))
  in
  match result with
  | `Reply j -> `Reply (Json.to_string ~minify:true j)
  | `Shutdown j -> `Shutdown (Json.to_string ~minify:true j)

(* ------------------------------------------------------------------ *)
(* Serve loops *)

let serve_sequential t ic oc =
  let emit line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
      match handle_line t line with
      | `Reply out ->
        emit out;
        loop ()
      | `Shutdown out -> emit out)
  in
  loop ()

(* single-flight key: the request minus its "id" — two requests that
   differ only in correlation id are the same work *)
let coalesce_key req =
  Json.to_string ~minify:true
    (match req with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> not (String.equal k "id")) fields)
    | j -> j)

let async_op req =
  match str_member "op" req with
  | Some ("compile" | "workload") -> true
  | _ -> false

let serve_concurrent t pool ic oc =
  let wmu = Mutex.create () in
  let emit j =
    let line = Json.to_string ~minify:true j in
    Mutex.lock wmu;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock wmu
  in
  (* wait until every accepted request has had its reply emitted *)
  let drain () =
    Mutex.lock t.smu;
    while t.inflight > 0 do
      Condition.wait t.scond t.smu
    done;
    Mutex.unlock t.smu
  in
  (* watchdog domain: emits timeout error replies for overdue pending
     records.  The timed-out pool job keeps running (domains cannot be
     preempted) but finds [p_done] set and stays silent — exactly one
     reply per request id either way. *)
  let wd_stop = Atomic.make false in
  let watchdog =
    match t.timeout_s with
    | None -> None
    | Some timeout ->
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get wd_stop) do
               Unix.sleepf 0.005;
               let now = Unix.gettimeofday () in
               Mutex.lock t.smu;
               let expired =
                 Hashtbl.fold
                   (fun key p acc ->
                     match p.p_deadline with
                     | Some d when now > d && not p.p_done -> (key, p) :: acc
                     | _ -> acc)
                   t.pending []
               in
               (* mark done under the lock so the racing worker stays
                  silent, but only count the request as drained after
                  its reply is on the wire — [drain] must not let the
                  shutdown ack overtake a timeout reply *)
               List.iter
                 (fun (key, p) ->
                   p.p_done <- true;
                   Hashtbl.remove t.pending key)
                 expired;
               Mutex.unlock t.smu;
               List.iter
                 (fun (_, p) ->
                   let ids = p.p_leader :: List.rev p.p_followers in
                   let n = List.length ids in
                   Mutex.lock t.mu;
                   t.timeouts <- t.timeouts + n;
                   t.errors <- t.errors + n;
                   Mutex.unlock t.mu;
                   Spt_obs.Metrics.add m_timeouts n;
                   Spt_obs.Metrics.add m_errors n;
                   let body =
                     Json.Obj
                       [
                         ("ok", Json.Bool false);
                         ( "error",
                           Json.Str
                             (Printf.sprintf "request timed out after %gs"
                                timeout) );
                         ("code", Json.Str "timeout");
                       ]
                   in
                   List.iter
                     (fun id -> emit (with_id_opt id (proto_tag body)))
                     ids)
                 expired;
               if expired <> [] then begin
                 Mutex.lock t.smu;
                 t.inflight <- t.inflight - List.length expired;
                 Condition.signal t.scond;
                 Mutex.unlock t.smu
               end
             done))
  in
  let dispatch req =
    count_request t;
    let key = coalesce_key req in
    let id = Json.member "id" req in
    Mutex.lock t.smu;
    let action =
      match Hashtbl.find_opt t.pending key with
      | Some p ->
        (* identical work already in flight: attach, reuse its reply *)
        p.p_followers <- id :: p.p_followers;
        `Attached
      | None ->
        if t.inflight >= t.queue_max then `Overloaded
        else begin
          let p =
            {
              p_leader = id;
              p_followers = [];
              p_deadline =
                Option.map (fun s -> Unix.gettimeofday () +. s) t.timeout_s;
              p_done = false;
            }
          in
          Hashtbl.replace t.pending key p;
          t.inflight <- t.inflight + 1;
          `Run p
        end
    in
    Mutex.unlock t.smu;
    match action with
    | `Attached -> ()
    | `Overloaded ->
      Mutex.lock t.mu;
      t.overloaded <- t.overloaded + 1;
      t.errors <- t.errors + 1;
      Mutex.unlock t.mu;
      Spt_obs.Metrics.inc m_overloaded;
      Spt_obs.Metrics.inc m_errors;
      emit
        (with_id_opt id
           (proto_tag
              (Json.Obj
                 [
                   ("ok", Json.Bool false);
                   ( "error",
                     Json.Str
                       (Printf.sprintf
                          "server overloaded: %d requests in flight" t.queue_max)
                   );
                   ("code", Json.Str "overloaded");
                 ])))
    | `Run p ->
      Pool.submit pool (fun () ->
          let body =
            try reply_of t req
            with e ->
              count_error t;
              Json.Obj
                [ ("ok", Json.Bool false); ("error", Json.Str (describe_error e)) ]
          in
          Mutex.lock t.smu;
          let finish =
            if p.p_done then None
            else begin
              (* claim the reply under the lock; the in-flight count
                 drops only once the replies are on the wire, so
                 [drain] (and the shutdown ack behind it) cannot
                 overtake them *)
              p.p_done <- true;
              Hashtbl.remove t.pending key;
              Some (p.p_leader, List.rev p.p_followers)
            end
          in
          Mutex.unlock t.smu;
          match finish with
          | None -> () (* timed out; the watchdog already replied *)
          | Some (leader, followers) ->
            emit (with_id_opt leader (proto_tag body));
            List.iter
              (fun fid ->
                Mutex.lock t.mu;
                t.coalesced <- t.coalesced + 1;
                Mutex.unlock t.mu;
                Spt_obs.Metrics.inc m_coalesced;
                emit
                  (with_id_opt fid
                     (proto_tag (Json.prepend ("coalesced", Json.Bool true) body))))
              followers;
            Mutex.lock t.smu;
            t.inflight <- t.inflight - 1;
            Condition.signal t.scond;
            Mutex.unlock t.smu)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
      match Json.of_string line with
      | Error msg ->
        count_request t;
        count_error t;
        emit
          (proto_tag
             (Json.Obj
                [
                  ("ok", Json.Bool false);
                  ("error", Json.Str ("bad JSON: " ^ msg));
                ]));
        loop ()
      | Ok req ->
        if async_op req then begin
          dispatch req;
          loop ()
        end
        else begin
          match handle t req with
          | `Reply j ->
            emit j;
            loop ()
          | `Shutdown j ->
            (* the ack is the last reply: everything accepted before
               the shutdown drains first *)
            drain ();
            emit j
        end)
  in
  loop ();
  drain ();
  Atomic.set wd_stop true;
  Option.iter Domain.join watchdog;
  Pool.shutdown pool

let serve t ic oc =
  Spt_obs.Log.info "serve: listening on stdin (cache %s, jobs %d)"
    (match Artifact_cache.dir t.cache with
    | Some d -> d
    | None -> "disabled")
    t.jobs;
  if t.jobs <= 1 then serve_sequential t ic oc
  else
    match Pool.create ~jobs:t.jobs () with
    | pool -> serve_concurrent t pool ic oc
    | exception _ ->
      (* cannot spawn domains here: degrade to the sequential loop
         rather than refuse service *)
      Spt_obs.Log.warn "serve: domain pool unavailable, serving sequentially";
      serve_sequential t ic oc
