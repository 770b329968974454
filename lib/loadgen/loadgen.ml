(** Load-test harness for the compile server — see loadgen.mli. *)

module Json = Spt_obs.Json
module Hist = Spt_obs.Metrics.Hist
module Server = Spt_service.Server
module Artifact_cache = Spt_service.Artifact_cache

let schema = "spt-loadtest-v1"

(* ------------------------------------------------------------------ *)

module Blend = struct
  type t = { cold : int; warm : int; guided : int }

  let default = { cold = 1; warm = 7; guided = 1 }
  let total b = b.cold + b.warm + b.guided

  let to_string b =
    Printf.sprintf "cold=%d,warm=%d,guided=%d" b.cold b.warm b.guided

  let of_string s =
    let b = ref { cold = 0; warm = 0; guided = 0 } in
    let parts =
      List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
    in
    let parse_part p =
      match String.index_opt p '=' with
      | None -> Error (Printf.sprintf "blend: %S is not KIND=WEIGHT" p)
      | Some eq -> (
        let k = String.trim (String.sub p 0 eq)
        and v = String.trim (String.sub p (eq + 1) (String.length p - eq - 1)) in
        match int_of_string_opt v with
        | Some w when w >= 0 -> (
          match k with
          | "cold" -> Ok (b := { !b with cold = w })
          | "warm" -> Ok (b := { !b with warm = w })
          | "guided" -> Ok (b := { !b with guided = w })
          | _ -> Error (Printf.sprintf "blend: unknown kind %S" k))
        | _ -> Error (Printf.sprintf "blend: bad weight %S" v))
    in
    let rec go = function
      | [] ->
        if total !b > 0 then Ok !b
        else Error "blend: all weights are zero"
      | p :: rest -> ( match parse_part p with Ok () -> go rest | Error e -> Error e)
    in
    if parts = [] then Error "blend: empty spec" else go parts

  let to_json b =
    Json.Obj
      [
        ("cold", Json.Int b.cold);
        ("warm", Json.Int b.warm);
        ("guided", Json.Int b.guided);
      ]
end

(* ------------------------------------------------------------------ *)
(* Request streams.

   All request sources instantiate one MiniC template whose arithmetic
   constants are the parameter — distinct constants mean distinct
   canonical fingerprints, so distinct cache keys.  The warm set is a
   small fixed family; cold requests get a parameter unique to (phase,
   index) so neither phase ever hits the other's cold artifacts. *)

let warm_variants = 1

(* the template is deliberately front-end-heavy and runtime-light: many
   functions and loops to lex, parse, typecheck, lower and analyse, but
   a small [n] so the post-compile evaluation stays cheap.  A warm hit
   still pays the front end (the cache key is the canonical IR
   fingerprint), which is exactly the work single-flight coalescing
   eliminates for duplicate in-flight requests. *)
let stage_fn i mult =
  Printf.sprintf
    {|
int stage%d(int lo, int hi) {
  int i = lo;
  int acc = 0;
  while (i < hi) {
    int v = buf%d[i] * %d + i;
    if (v > 8192) {
      v = v - 8192;
    }
    aux%d[i] = v;
    if (aux%d[i] > acc) {
      acc = aux%d[i] - buf%d[i];
    }
    buf%d[i] = acc & 4095;
    i = i + 1;
  }
  return acc;
}
|}
    i i mult i i i i i

let stages = 16

let source_of ~tag =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int n = 48;\n";
  for i = 0 to stages - 1 do
    Buffer.add_string b (Printf.sprintf "int buf%d[48];\nint aux%d[48];\n" i i)
  done;
  for i = 0 to stages - 1 do
    Buffer.add_string b (stage_fn i (((tag + i) mod 97) + 2))
  done;
  Buffer.add_string b
    (Printf.sprintf
       {|
int seedfill(int k) {
  int i = 0;
  while (i < n) {
|});
  for i = 0 to stages - 1 do
    Buffer.add_string b
      (Printf.sprintf "    buf%d[i] = i * %d + k;\n" i ((i * 7) + 3))
  done;
  Buffer.add_string b
    (Printf.sprintf
       {|    i = i + 1;
  }
  return i;
}

void main() {
  int total = seedfill(%d);
|}
       (tag mod 1009));
  for i = 0 to stages - 1 do
    Buffer.add_string b (Printf.sprintf "  total = total + stage%d(0, n);\n" i)
  done;
  Buffer.add_string b
    (Printf.sprintf "  print_int(total + %d);\n}\n" (tag mod 13));
  Buffer.contents b

type kind = Cold | Warm of int | Guided of int

let pick_kind rng (b : Blend.t) =
  let warm_ix () = Random.State.int rng warm_variants in
  let r = Random.State.int rng (Blend.total b) in
  if r < b.cold then Cold
  else if r < b.cold + b.warm then Warm (warm_ix ())
  else Guided (warm_ix ())

(* one phase's request lines: same [seed] ⇒ the same kind sequence, so
   the serial and concurrent phases replay the same stream (cold
   parameters excepted, which are phase-unique by construction) *)
let gen_requests ~seed ~blend ~profile ~phase ~count =
  let rng = Random.State.make [| seed |] in
  List.init count (fun i ->
      let id = (phase * 1_000_000) + i in
      let base op name source rest =
        Json.Obj
          (("op", Json.Str op) :: ("name", Json.Str name)
          :: ("source", Json.Str source) :: ("id", Json.Int id) :: rest)
      in
      let req =
        match pick_kind rng blend with
        | Cold ->
          let tag = 100_000 + (phase * 10_000) + i in
          base "compile" (Printf.sprintf "cold-%d" tag) (source_of ~tag) []
        | Warm k -> base "compile" (Printf.sprintf "warm-%d" k) (source_of ~tag:k) []
        | Guided k ->
          base "compile"
            (Printf.sprintf "guided-%d" k)
            (source_of ~tag:k)
            [ ("profile", Json.Str profile) ]
      in
      (id, Json.to_string ~minify:true req))

(* every distinct request shape once, so both measured phases start
   against a warm cache *)
let prewarm_requests ~profile =
  List.concat_map
    (fun k ->
      let src = source_of ~tag:k in
      [
        Json.Obj
          [
            ("op", Json.Str "compile");
            ("name", Json.Str (Printf.sprintf "warm-%d" k));
            ("source", Json.Str src);
          ];
        Json.Obj
          [
            ("op", Json.Str "compile");
            ("name", Json.Str (Printf.sprintf "guided-%d" k));
            ("source", Json.Str src);
            ("profile", Json.Str profile);
          ];
      ])
    (List.init warm_variants Fun.id)
  |> List.mapi (fun i req ->
         (-(i + 1), Json.to_string ~minify:true (Json.prepend ("id", Json.Int (-(i + 1))) req)))

(* ------------------------------------------------------------------ *)
(* Phase accounting, merged from per-driver locals (Hist.t is not
   thread-safe; each driver records into its own) *)

type tally = { hist : Hist.t; mutable errors : int; mutable coalesced : int }

let tally () = { hist = Hist.create (); errors = 0; coalesced = 0 }

let absorb ~into src =
  Hist.merge ~into:into.hist src.hist;
  into.errors <- into.errors + src.errors;
  into.coalesced <- into.coalesced + src.coalesced

let record tl dt reply =
  Hist.observe tl.hist dt;
  (match Json.member "ok" reply with
  | Some (Json.Bool true) -> ()
  | _ -> tl.errors <- tl.errors + 1);
  match Json.member "coalesced" reply with
  | Some (Json.Bool true) -> tl.coalesced <- tl.coalesced + 1
  | _ -> ()

type phase_result = {
  ph_requests : int;
  ph_wall_s : float;
  ph_tally : tally;
}

let rps ph =
  if ph.ph_wall_s > 0.0 then float_of_int ph.ph_requests /. ph.ph_wall_s
  else 0.0

(* split a list round-robin into [n] slices, preserving order inside a
   slice *)
let slices n xs =
  let out = Array.make n [] in
  List.iteri (fun i x -> out.(i mod n) <- x :: out.(i mod n)) xs;
  Array.map List.rev out

let max_driver_domains = 16

(* run one measured phase: [call] is a blocking request/reply exchange,
   safe to invoke from several domains at once *)
let run_phase ~drivers ~reqs ~call =
  let t0 = Unix.gettimeofday () in
  let total =
    if drivers <= 1 then begin
      let tl = tally () in
      List.iter
        (fun (id, line) ->
          let r0 = Unix.gettimeofday () in
          let reply = call id line in
          record tl (Unix.gettimeofday () -. r0) reply)
        reqs;
      tl
    end
    else begin
      let parts = slices drivers reqs in
      let doms =
        Array.map
          (fun part ->
            Domain.spawn (fun () ->
                let tl = tally () in
                List.iter
                  (fun (id, line) ->
                    let r0 = Unix.gettimeofday () in
                    let reply = call id line in
                    record tl (Unix.gettimeofday () -. r0) reply)
                  part;
                tl))
          parts
      in
      let total = tally () in
      Array.iter (fun d -> absorb ~into:total (Domain.join d)) doms;
      total
    end
  in
  {
    ph_requests = List.length reqs;
    ph_wall_s = Unix.gettimeofday () -. t0;
    ph_tally = total;
  }

(* ------------------------------------------------------------------ *)
(* Serve mode: the real [Server.serve] loop in its own domain, spoken
   to over a pair of pipes, exactly as a pipelining network client
   would drive it.  One submitter keeps up to [window] requests
   outstanding ([window] = simulated clients, each with one request in
   flight); a router domain reads the reply stream, matches each reply
   to its request by the "id" echo and does the latency accounting.
   Both measured phases use the identical machinery and domain count —
   the serial phase is simply [window = 1] — so the comparison isolates
   what concurrency buys (pipelining, pool parallelism, single-flight
   coalescing) from constant plumbing costs. *)

let run_serve ~server ~prewarm ~serial_reqs ~conc_reqs ~clients =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let srv_ic = Unix.in_channel_of_descr req_r in
  let srv_oc = Unix.out_channel_of_descr rep_w in
  let to_srv = Unix.out_channel_of_descr req_w in
  let from_srv = Unix.in_channel_of_descr rep_r in
  let srv_dom = Domain.spawn (fun () -> Server.serve server srv_ic srv_oc) in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  (* id -> send timestamp of every request awaiting its reply *)
  let outstanding : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let cur = ref (tally ()) in
  let router =
    Domain.spawn (fun () ->
        let rec loop () =
          match input_line from_srv with
          | exception End_of_file -> ()
          | line ->
            let now = Unix.gettimeofday () in
            (match Json.of_string line with
            | Ok reply -> (
              match Json.member "id" reply with
              | Some (Json.Int id) -> (
                Mutex.lock mu;
                (match Hashtbl.find_opt outstanding id with
                | Some t0 ->
                  Hashtbl.remove outstanding id;
                  record !cur (now -. t0) reply;
                  Condition.broadcast cond
                | None -> ());
                Mutex.unlock mu)
              | _ -> () (* the shutdown ack has no id; drop it *))
            | Error _ -> ());
            loop ()
        in
        loop ())
  in
  let send ~window (id, line) =
    Mutex.lock mu;
    while Hashtbl.length outstanding >= window do
      Condition.wait cond mu
    done;
    Hashtbl.replace outstanding id (Unix.gettimeofday ());
    Mutex.unlock mu;
    output_string to_srv line;
    output_char to_srv '\n';
    flush to_srv
  in
  let drain () =
    Mutex.lock mu;
    while Hashtbl.length outstanding > 0 do
      Condition.wait cond mu
    done;
    Mutex.unlock mu
  in
  let phase ~window reqs =
    Mutex.lock mu;
    cur := tally ();
    Mutex.unlock mu;
    let t0 = Unix.gettimeofday () in
    List.iter (send ~window) reqs;
    drain ();
    let wall = Unix.gettimeofday () -. t0 in
    Mutex.lock mu;
    let tl = !cur in
    Mutex.unlock mu;
    { ph_requests = List.length reqs; ph_wall_s = wall; ph_tally = tl }
  in
  let finally () =
    (* EOF drains the server and ends both loops *)
    (try close_out to_srv with _ -> ());
    Domain.join srv_dom;
    (try close_out srv_oc with _ -> ());
    Domain.join router;
    List.iter
      (fun f -> try f () with _ -> ())
      [ (fun () -> close_in srv_ic); (fun () -> close_in from_srv) ]
  in
  Fun.protect ~finally (fun () ->
      ignore (phase ~window:1 prewarm);
      let serial = phase ~window:1 serial_reqs in
      let conc = phase ~window:(max 1 clients) conc_reqs in
      (serial, conc))

(* In-process mode: no pipes, no router — client domains invoke the
   thread-safe [Server.handle_line] directly.  Measures raw handler
   parallelism; the serve-loop machinery (pipelining, coalescing) is
   out of the picture. *)
let run_inproc ~server ~prewarm ~serial_reqs ~conc_reqs ~clients =
  let call _id line =
    let out =
      match Server.handle_line server line with `Reply s | `Shutdown s -> s
    in
    match Json.of_string out with Ok j -> j | Error _ -> Json.Null
  in
  List.iter (fun (id, line) -> ignore (call id line)) prewarm;
  let serial = run_phase ~drivers:1 ~reqs:serial_reqs ~call in
  let drivers = max 1 (min clients max_driver_domains) in
  let conc = run_phase ~drivers ~reqs:conc_reqs ~call in
  (serial, conc)

(* ------------------------------------------------------------------ *)

type mode = [ `Serve | `Inproc ]

type result = {
  mode : mode;
  clients : int;
  server_jobs : int;
  blend : Blend.t;
  seed : int;
  requests : int;
  errors : int;
  coalesced : int;
  wall_s : float;
  throughput_rps : float;
  latency : Hist.t;
  serial_requests : int;
  serial_errors : int;
  serial_wall_s : float;
  serial_rps : float;
  speedup_vs_serial : float;
  cache_stats : Json.t;
}

let run ?(mode = `Serve) ?(clients = 8) ?(requests = 128)
    ?(blend = Blend.default) ?(seed = 42) ?(server_jobs = 4) ?cache () =
  if clients < 1 then invalid_arg "Loadgen.run: clients must be >= 1";
  if requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  let cache =
    match cache with
    | Some c -> c
    | None ->
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "spt-loadtest-%d" (Unix.getpid ()))
      in
      Artifact_cache.create ~dir ()
  in
  let server =
    Server.create ~cache ~jobs:server_jobs
      ~queue_max:(max 64 (4 * clients))
      ()
  in
  (* the guided blend needs a loadable profile store on disk; an empty
     store is valid and exercises the whole guided path (load, digest,
     separate cache key) *)
  let profile =
    Filename.temp_file "spt-loadtest-profile" ".json"
  in
  Spt_profile.Profile_store.save (Spt_profile.Profile_store.empty ()) profile;
  let cleanup () = try Sys.remove profile with _ -> () in
  Fun.protect ~finally:cleanup (fun () ->
      let prewarm = prewarm_requests ~profile in
      let serial_reqs =
        gen_requests ~seed ~blend ~profile ~phase:1 ~count:requests
      in
      let conc_reqs =
        gen_requests ~seed ~blend ~profile ~phase:2 ~count:requests
      in
      let serial, conc =
        match mode with
        | `Serve -> run_serve ~server ~prewarm ~serial_reqs ~conc_reqs ~clients
        | `Inproc ->
          run_inproc ~server ~prewarm ~serial_reqs ~conc_reqs ~clients
      in
      let speedup =
        let s = rps serial and c = rps conc in
        if s > 0.0 then c /. s else 0.0
      in
      {
        mode;
        clients;
        server_jobs;
        blend;
        seed;
        requests = conc.ph_requests;
        errors = conc.ph_tally.errors;
        coalesced = conc.ph_tally.coalesced;
        wall_s = conc.ph_wall_s;
        throughput_rps = rps conc;
        latency = conc.ph_tally.hist;
        serial_requests = serial.ph_requests;
        serial_errors = serial.ph_tally.errors;
        serial_wall_s = serial.ph_wall_s;
        serial_rps = rps serial;
        speedup_vs_serial = speedup;
        cache_stats = Artifact_cache.stats_json cache;
      })

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str (match r.mode with `Serve -> "serve" | `Inproc -> "inproc"));
      ("clients", Json.Int r.clients);
      ("server_jobs", Json.Int r.server_jobs);
      ("blend", Blend.to_json r.blend);
      ("seed", Json.Int r.seed);
      ("requests", Json.Int r.requests);
      ("errors", Json.Int r.errors);
      ("coalesced", Json.Int r.coalesced);
      ("wall_s", Json.Float r.wall_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("latency_s", Hist.to_json r.latency);
      ( "serial",
        Json.Obj
          [
            ("requests", Json.Int r.serial_requests);
            ("errors", Json.Int r.serial_errors);
            ("wall_s", Json.Float r.serial_wall_s);
            ("throughput_rps", Json.Float r.serial_rps);
          ] );
      ("speedup_vs_serial", Json.Float r.speedup_vs_serial);
      ("cache", r.cache_stats);
    ]
