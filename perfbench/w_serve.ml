(* serve_mix: a closed loop against the real Server.serve over pipes.
   One client keeps [cores] requests outstanding; the server runs
   [cores] worker domains over a fresh on-disk cache.  About four in
   five requests are warm (a small fixed family of sources precompiled
   during set-up: JSON, front end, fingerprint, cache hit, profdb
   lookup); the rest are cold (fresh Spt_fuzz.Gen programs drawn from
   the seed: a cache miss, a full compile and a store).  The seed draws
   the cold programs and the request order. *)

open Spt_driver
module Json = Spt_obs.Json
module Gen = Spt_fuzz.Gen
module Cache = Spt_service.Artifact_cache
module Tls = Spt_tlsim.Tls_machine

let warm_family = 8
let cold_one_in = 5

(* the warm family does not depend on the workload seed *)
let warm_source k = Gen.to_source (Gen.generate ~seed:(Gen.case_seed ~seed:0x5e7e ~index:k) ())

(* Cold programs come from a fixed pool of generated programs; the seed
   draws which ones and in which order.  Pool cases the compiler
   miscompiled when the benchmark was written are excluded
   (programs/cold_excluded.txt lists them and why): the benchmark
   measures speed on correct compiles; hunting miscompiles is the
   fuzzer's job. *)
let pool_size = 20000
let pool_source k = Gen.to_source (Gen.generate ~seed:(Gen.case_seed ~seed:0xC01D ~index:k) ())

let excluded () =
  In_channel.with_open_bin (Filename.concat Common.program_dir "cold_excluded.txt") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l -> if String.length l > 0 && l.[0] <> '#' then int_of_string_opt (String.trim l) else None)

type kind = Warm of int | Cold of int
type req = { kind : kind; line : string }

type state = {
  dir : string;
  cache : Cache.t;
  warm_eval : string array;  (* expected eval of each warm source *)
  cold_src : string array;
  cold_ref : string array;
  reqs : req array;
}

let eval_string ~name src =
  let e = Pipeline.evaluate ~config:Config.best src in
  (e, Json.to_string ~minify:true (Report.eval_json ~name e))

let name_of = function Warm k -> Printf.sprintf "warm-%d" k | Cold j -> Printf.sprintf "cold-%d" j

(* The request stream: kinds, cold programs and order all come from
   the seed; [count] requests are rendered up front. *)
let stream ~seed ~count =
  let r = Common.rng ~seed ~salt:4 in
  let colds = ref 0 in
  let kinds =
    Array.init count (fun _ ->
        if Gen.int_below r cold_one_in = 0 then begin
          incr colds;
          Cold (!colds - 1)
        end
        else Warm (Gen.int_below r warm_family))
  in
  let pool =
    let skip = excluded () in
    Array.of_list
      (List.filter (fun k -> not (List.mem k skip)) (Common.shuffle (Common.rng ~seed ~salt:5) (List.init pool_size Fun.id)))
  in
  let cold_src = Array.init !colds (fun j -> pool_source pool.(j mod Array.length pool)) in
  let line id kind =
    let src = match kind with Warm k -> warm_source k | Cold j -> cold_src.(j) in
    Json.to_string ~minify:true
      (Json.Obj
         [
           ("id", Json.Int id);
           ("op", Json.Str "compile");
           ("name", Json.Str (name_of kind));
           ("source", Json.Str src);
         ])
  in
  (cold_src, Array.mapi (fun id kind -> { kind; line = line id kind }) kinds)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let setups = ref 0
let cache_dir k = Filename.concat Common.out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k)

(* each set-up starts from a fresh cache directory; the last one is
   removed at exit *)
let () = at_exit (fun () -> rm_rf (cache_dir !setups); rm_rf (cache_dir (-1)))

let setup (s : Common.settings) =
  Common.ensure_out_dir ();
  rm_rf (cache_dir !setups);
  incr setups;
  let dir = cache_dir !setups in
  let cache = Cache.create ~dir () in
  let warm_eval =
    Array.mapi
      (fun k src ->
        let name = name_of (Warm k) in
        let e, expected = eval_string ~name src in
        if not (String.equal e.Pipeline.spt.Spt_tlsim.Tls_machine.output (Common.reference src)) then
          failwith (name ^ ": set-up compile differs from the reference");
        let o = Spt_service.Cached.compile ~cache ~config:Config.best ~name src in
        if not (String.equal (Json.to_string ~minify:true o.Spt_service.Cached.eval) expected) then
          failwith (name ^ ": cached compile differs from the in-process compile");
        expected)
      (Array.init warm_family warm_source)
  in
  let count = if s.tiny then 400 else int_of_float (s.seconds *. 400.0) + 64 in
  let cold_src, reqs = stream ~seed:s.seed ~count in
  { dir; cache; warm_eval; cold_src; cold_ref = Array.map Common.reference cold_src; reqs }

let inputs st = Array.to_list (Array.map (fun r -> r.line) st.reqs)

(* replies start {"id":N,… (Server.finalize prepends the id) *)
let id_of line =
  let pre = "{\"id\":" in
  let lp = String.length pre in
  if String.length line > lp && String.sub line 0 lp = pre then begin
    let j = ref lp in
    while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
    int_of_string_opt (String.sub line lp (!j - lp))
  end
  else None

let member_str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

(* The closed loop: returns per-request send time, latency and reply,
   the completed count, the wall time and the server's stats reply. *)
let run_loop (s : Common.settings) st =
  let n = Array.length st.reqs in
  let server = Spt_service.Server.create ~cache:st.cache ~jobs:Common.cores () in
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  let srv_ic = Unix.in_channel_of_descr req_r and srv_oc = Unix.out_channel_of_descr rep_w in
  let to_srv = Unix.out_channel_of_descr req_w and from_srv = Unix.in_channel_of_descr rep_r in
  let srv = Domain.spawn (fun () -> Spt_service.Server.serve server srv_ic srv_oc) in
  let sent = Array.make n 0.0 and lat = Array.make n nan and replies = Array.make n "" in
  let next = ref 0 and outstanding = ref 0 in
  let send line =
    output_string to_srv line;
    output_char to_srv '\n';
    flush to_srv
  in
  let send_next () =
    sent.(!next) <- Common.now ();
    send st.reqs.(!next).line;
    incr next;
    incr outstanding
  in
  let t_start = Common.now () in
  let t_end = ref t_start in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        (try close_out to_srv with _ -> ());
        Domain.join srv;
        List.iter (fun f -> try f () with _ -> ()) [ (fun () -> close_out srv_oc); (fun () -> close_in srv_ic); (fun () -> close_in from_srv) ])
      (fun () ->
        while !next < min n Common.cores do send_next () done;
        while !outstanding > 0 do
          let line = input_line from_srv in
          let t = Common.now () in
          decr outstanding;
          Common.sample_heap ();
          (match id_of line with
          | Some id when id >= 0 && id < n ->
            lat.(id) <- t -. sent.(id);
            replies.(id) <- line;
            t_end := t
          | _ -> ());
          if t -. t_start < s.seconds && !next < n then send_next ()
        done;
        send "{\"id\":-1,\"op\":\"stats\"}";
        let rec await () =
          let line = input_line from_srv in
          if id_of line = Some (-1) then line else await ()
        in
        match Json.of_string (await ()) with Ok j -> j | Error _ -> Json.Null)
  in
  if !next >= n then Printf.eprintf "serve_mix: request stream exhausted after %d requests\n%!" n;
  (sent, lat, replies, !next, !t_end -. t_start, stats)

(* a reply's eval, or why it is not acceptable *)
let reply_eval line =
  match Json.of_string line with
  | Error e -> Error ("bad reply JSON: " ^ e)
  | Ok j -> (
    match (Json.member "ok" j, Json.member "eval" j) with
    | Some (Json.Bool true), Some ev -> Ok (j, Json.to_string ~minify:true ev)
    | _ -> Error (Option.value ~default:"reply not ok" (member_str "error" j)))

(* Recompile a cold program in process and compare it with the served
   eval and the reference output. *)
let check_cold st j served =
  match eval_string ~name:(name_of (Cold j)) st.cold_src.(j) with
  | e, expected ->
    String.equal e.Pipeline.spt.Spt_tlsim.Tls_machine.output st.cold_ref.(j) && String.equal expected served
  | exception _ -> false

(* run [f] over [items] on [cores] domains *)
let parallel_iter items f =
  let items = Array.of_list items in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        f items.(i);
        go ()
      end
    in
    go ()
  in
  let doms = List.init (Common.cores - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join doms

let config_key = Config.cache_key Config.best ^ ";tool=" ^ Spt_service.Cached.tool_version

(* Replay one traced request's layer calls from outside, as children of
   its request span; a cold request's replay is also its validation. *)
let replay st ~replies ~profdb ~miss_cache ~id ~rid =
  let r = st.reqs.(id) in
  let sp name f = Spans.span ~req:id ~parent:rid name f in
  let req = sp "json.parse" (fun () -> Json.of_string r.line) in
  let src = match req with Ok j -> Option.value ~default:"" (member_str "source" j) | Error _ -> "" in
  let prog = sp "service.front_end" (fun () -> Pipeline.front_end src) in
  let fp, key =
    sp "service.fingerprint" (fun () ->
        (Spt_service.Fingerprint.program prog, Spt_service.Fingerprint.key ~config_key prog))
  in
  ignore (sp "profdb.lookup" (fun () -> Spt_profdb.Profdb.lookup profdb ~fingerprint:fp));
  let reply = reply_eval replies.(id) in
  let ok, eval =
    match r.kind with
    | Warm _ ->
      ignore (sp "service.cache_find" (fun () -> Cache.find st.cache key));
      (true, None)
    | Cold j ->
      ignore (sp "service.cache_find" (fun () -> Cache.find miss_cache key));
      let e =
        Spt_obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Spt_obs.Trace.set_enabled false)
          (fun () ->
            Spans.with_id ~req:id ~parent:rid "pipeline.evaluate" (fun pid ->
                let e = Pipeline.evaluate ~config:Config.best st.cold_src.(j) in
                Spans.import_trace ~req:id ~parent:pid;
                e))
      in
      let name = name_of r.kind in
      let ev, text = sp "service.report" (fun () -> (Report.eval_json ~name e, Report.compile_text ~name e)) in
      sp "service.cache_store" (fun () ->
          Cache.store miss_cache key
            (Json.Obj [ ("schema", Json.Str Spt_service.Cached.payload_schema); ("name", Json.Str name); ("eval", ev); ("report_text", Json.Str text) ]));
      ( String.equal e.Pipeline.spt.Spt_tlsim.Tls_machine.output st.cold_ref.(j)
        && (match reply with Ok (_, served) -> String.equal served (Json.to_string ~minify:true ev) | Error _ -> false),
        Some e )
  in
  (match reply with Ok (j, _) -> ignore (sp "json.emit" (fun () -> Json.to_string ~minify:true j)) | Error _ -> ());
  (ok, eval)

(* Compile-layer metrics per replayed cold compile, from the pipeline's
   own phase spans (imported under each traced Pipeline.evaluate) and
   the evaluations' simulator results. *)
let pipeline_layers spans evals =
  let n = float_of_int (max 1 (List.length evals)) in
  let ms name = fst (Spans.total spans name) *. 1000.0 /. n in
  let sum f = List.fold_left (fun a e -> a +. f e) 0.0 evals in
  let base = sum (fun e -> e.Pipeline.base.Tls.cycles) and spt = sum (fun e -> e.Pipeline.spt.Tls.cycles) in
  [
    ("profile.profile_ms", ms "profile");
    ("pipeline.svp_reprofile_ms", ms "svp.reprofile");
    ("tlsim.simulate_ms", ms "simulate.base" +. ms "simulate.spt");
    ("pipeline.compile_spt_ms", ms "compile.spt");
    ("pipeline.compile_base_ms", ms "compile.base");
    ("tlsim.sim_speedup", Stat.ratio base spt);
    ("tlsim.base_mcycles", base /. 1e6 /. n);
    ("tlsim.spt_mcycles", spt /. 1e6 /. n);
    ("transform.loops_analyzed", sum (fun e -> float_of_int (List.length e.Pipeline.loops)) /. n);
    ("transform.spt_loops", sum (fun e -> float_of_int e.Pipeline.n_spt_loops) /. n);
  ]

let int_at path j =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let measure (s : Common.settings) st =
  let sent, lat, replies, completed, wall, stats = run_loop s st in
  let traced id = s.trace && id mod 2 = 1 in
  let failed = Atomic.make 0 in
  let fail id why =
    Atomic.incr failed;
    Printf.eprintf "serve_mix: request %d (%s): %s\n%!" id (name_of st.reqs.(id).kind) why
  in
  let ids = List.init completed Fun.id in
  (* every reply is checked: warm evals against the set-up compile,
     cold ones by recompiling in process (replayed when traced) *)
  let cold_checks =
    List.filter_map
      (fun id ->
        if Float.is_nan lat.(id) then (fail id "no reply"; None)
        else
          match (reply_eval replies.(id), st.reqs.(id).kind) with
          | Error e, _ -> fail id e; None
          | Ok (_, ev), Warm k ->
            if not (String.equal ev st.warm_eval.(k)) then fail id "warm eval differs from set-up";
            None
          | Ok (_, ev), Cold j -> if traced id then None else Some (id, j, ev))
      ids
  in
  parallel_iter cold_checks (fun (id, j, ev) -> if not (check_cold st j ev) then fail id "cold eval differs");
  let ms_of ids = List.map (fun id -> lat.(id) *. 1000.0) ids in
  let all_ms = ms_of (List.filter (fun id -> not (Float.is_nan lat.(id))) ids) in
  let p50 = Stat.quantile 0.5 all_ms and p99 = Stat.quantile 0.99 all_ms in
  let rps = float_of_int (List.length all_ms) /. wall in
  Spans.on := s.trace;
  let layers =
    if not s.trace then []
    else begin
      let profdb = Spt_profdb.Profdb.for_cache ~tool:Spt_service.Cached.tool_version (Some st.dir) in
      let miss_cache = Cache.create ~dir:(cache_dir (-1)) () in
      let tids = List.filter (fun id -> traced id && not (Float.is_nan lat.(id))) ids in
      let cold_evals =
        List.filter_map
          (fun id ->
            let rid = Spans.add ~req:id ~parent:(-1) "op.request" sent.(id) (sent.(id) +. lat.(id)) in
            let ok, e = replay st ~replies ~profdb ~miss_cache ~id ~rid in
            if not ok then fail id "cold eval differs";
            e)
          tids
      in
      let spans = Spans.all () in
      let is_warm req = req >= 0 && (match st.reqs.(req).kind with Warm _ -> true | Cold _ -> false) in
      let mean_dur name pred scale =
        let ds = List.filter_map (fun (x : Spans.span) -> if String.equal x.Spans.name name && pred x.Spans.req then Some (x.Spans.t1 -. x.Spans.t0) else None) spans in
        Stat.mean ds *. scale
      in
      let warm name scale = mean_dur name is_warm scale in
      let cold_srcs =
        List.filteri (fun i _ -> i < (if s.tiny then 5 else 100))
          (List.filter_map (fun id -> match st.reqs.(id).kind with Cold j -> Some st.cold_src.(j) | Warm _ -> None) tids)
      in
      let static = Layers.metrics cold_srcs |> List.filter (fun (k, _) -> k <> "profile.profile_ms") in
      let hits = int_at [ "cache"; "hits" ] stats and misses = int_at [ "cache"; "misses" ] stats in
      let untraced = List.filter (fun id -> not (traced id) && not (Float.is_nan lat.(id))) ids in
      pipeline_layers spans cold_evals
      @ static
      @ [
          ("json.parse_us", warm "json.parse" 1e6);
          ("json.emit_us", warm "json.emit" 1e6);
          ("service.front_end_ms", warm "service.front_end" 1e3);
          ("service.fingerprint_us", warm "service.fingerprint" 1e6);
          ("service.cache_find_us", warm "service.cache_find" 1e6);
          ("profdb.lookup_us", warm "profdb.lookup" 1e6);
          ("service.cache_store_ms", mean_dur "service.cache_store" (fun r -> r >= 0 && not (is_warm r)) 1e3);
          ("service.cache_hit_ratio", Stat.ratio hits (hits +. misses));
          ("service.cache_lookups", hits +. misses);
          ("server.coalesced", int_at [ "coalesced" ] stats);
          ("server.errors", int_at [ "errors" ] stats);
          ("server.overloaded", int_at [ "overloaded" ] stats);
          ("server.timeouts", int_at [ "timeouts" ] stats);
          ( "trace.overhead_frac",
            Common.overhead ~traced:[ ("all", Stat.median (ms_of tids)) ] ~untraced:[ ("all", Stat.median (ms_of untraced)) ] );
        ]
    end
  in
  let colds = List.length (List.filter (fun id -> match st.reqs.(id).kind with Cold _ -> true | Warm _ -> false) ids) in
  {
    Common.attempted = completed;
    failed = Atomic.get failed;
    e2e = [ ("latency_ms", p50); ("tail_ms", p99); ("throughput_per_s", rps) ];
    named = [ ("serve_rps", rps, "1/s"); ("serve_p50_ms", p50, "ms"); ("serve_p99_ms", p99, "ms") ];
    layers;
    detail =
      [
        ("requests", Json.Int completed);
        ("cold_requests", Json.Int colds);
        ("clients", Json.Int Common.cores);
        ("server_jobs", Json.Int Common.cores);
        ("stats", stats);
      ];
  }
