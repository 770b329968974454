(** End-to-end contract checks: the observability artifacts, the quick
    bench summary, the artifact cache, the profile-guided feedback loop,
    the fuzzer, overhead attribution, the profile database and K-deep
    pipelining.  What [sptc] prints and its exit code are checked on an
    [sptc] subprocess; everything else on the JSON written, each key
    looked up at its real path.  Every check prints one line with the
    numbers it compared; the runner keeps going after a failure and
    exits 1 if any check failed.  Nothing is written outside a
    temporary directory, caches included.

    Run with: dune build @smoke (not part of @runtest: the timing checks
    depend on the host).  Some groups only, after dune build
    bin/sptc.exe bench/main.exe:
      _build/default/bench/smoke.exe --sptc _build/default/bin/sptc.exe \
        --bench _build/default/bench/main.exe --examples examples/src depth *)

module Json = Spt_obs.Json
module Report = Spt_driver.Report

let sptc_exe = ref "../bin/sptc.exe"
let bench_exe = ref "main.exe"
let examples_dir = ref "../examples/src"

(* ------------------------------------------------------------------ *)
(* Checks over JSON at its real path *)

let group = ref ""
let checks = ref 0
let failed = ref []

let check name ok detail =
  incr checks;
  Printf.printf "%s %s: %s: %s\n%!" (if ok then "ok  " else "FAIL") !group name detail;
  if not ok then failed := (!group ^ ": " ^ name) :: !failed

(* a check whose input could not be produced fails, and the rest of
   [f], which needs that input, is skipped *)
let guard name f = try f () with e -> check name false ("aborted: " ^ Printexc.to_string e)

let rec get path j =
  match path with [] -> Some j | k :: rest -> Option.bind (Json.member k j) (get rest)

let as_num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None
let num path j = Option.bind (get path j) as_num
let str_at path j = match get path j with Some (Json.Str s) -> Some s | _ -> None
let list_at path j = match get path j with Some (Json.List l) -> l | _ -> []
let read_file path = In_channel.with_open_bin path In_channel.input_all

let load path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let check_schema name j schema =
  let s = str_at [ "schema" ] j in
  check (name ^ " schema") (s = Some schema) (Option.value ~default:"none" s)

let check_keys name j paths =
  let missing = List.filter (fun p -> get p j = None) paths in
  check name (missing = [])
    (if missing = [] then Printf.sprintf "%d key(s) present" (List.length paths)
     else "missing " ^ String.concat ", " (List.map (String.concat ".") missing))

(* the number at [path] satisfies [ok] *)
let check_num name j path ok =
  match num path j with
  | Some v -> check name (ok v) (Printf.sprintf "%s = %g" (String.concat "." path) v)
  | None -> check name false (String.concat "." path ^ " missing")

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_text name text needle = check name (contains text needle) (Printf.sprintf "%S printed" needle)

let check_top name j needle =
  match Report.top_text j with
  | Ok text -> check_text name text needle
  | Error e -> check name false e

(* ------------------------------------------------------------------ *)
(* Subprocesses *)

let tmp =
  let d = Filename.temp_dir "spt_smoke" "" in
  at_exit (fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; d ])));
  d

let in_tmp name = Filename.concat tmp name
let example name = Filename.concat !examples_dir name
let runs = ref 0

(* run [prog args] with [env] added, from [cwd] when given, and with a
   default cache directory of its own; the exit code, stdout and stderr *)
let run ?(env = []) ?cwd prog args =
  incr runs;
  let out = in_tmp (Printf.sprintf "stdout.%d" !runs)
  and err = in_tmp (Printf.sprintf "stderr.%d" !runs) in
  let env = ("SPT_CACHE_DIR", in_tmp "default-cache") :: env in
  let cmd =
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v) env)
    ^ " " ^ Filename.quote_command ~stdout:out ~stderr:err prog args
  in
  let cmd = match cwd with Some d -> "cd " ^ Filename.quote d ^ " && " ^ cmd | None -> cmd in
  let code = Sys.command cmd in
  (code, read_file out, read_file err)

(* run sptc, check it exits 0 and return its stdout *)
let sptc ?env name args =
  let code, out, err = run ?env !sptc_exe args in
  check (name ^ " exits 0") (code = 0)
    (if code = 0 then "exit 0" else Printf.sprintf "exit %d: %s" code (String.trim err));
  out

(* the "SPT loops : N" line of a compile report *)
let compile_loops name args ok =
  let out = sptc name ("compile" :: args) in
  let loops =
    String.split_on_char '\n' out
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.starts_with ~prefix:"SPT loops" l ->
             int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
  in
  (match loops with
  | Some n -> check name (ok n) (Printf.sprintf "%d SPT loop(s)" n)
  | None -> check name false "no \"SPT loops\" line");
  loops

let warn = [ "--log-level"; "warn" ]

(* ------------------------------------------------------------------ *)
(* obs: one traced, metered compile and one parallel run *)

let span_names =
  [ "frontend"; "ssa.construct"; "ssa.optimize"; "profile"; "pass1.analyze";
    "pass2.select"; "transform"; "simulate.base"; "simulate.spt" ]

let counter_names =
  [ "pipeline.pass1_candidates"; "pipeline.pass2_selected"; "partition.nodes_explored";
    "partition.pruned_by_bound"; "partition.pruned_by_threshold"; "cost.graph_nodes";
    "depgraph.edges"; "svp.candidates_tried"; "svp.applied"; "tlsim.misspeculations";
    "tlsim.kills"; "interp.steps" ]

let obs () =
  let trace = in_tmp "trace.json" and metrics = in_tmp "metrics.json" in
  ignore
    (sptc "traced compile of histogram.c"
       ([ "compile"; example "histogram.c"; "-c"; "best"; "--trace"; trace; "--metrics"; metrics ]
       @ warn));
  guard "trace" (fun () ->
      let events = list_at [ "traceEvents" ] (load trace) in
      let timed = List.filter (fun e -> get [ "dur" ] e <> None) events in
      check "events carry dur" (timed <> [])
        (Printf.sprintf "%d of %d traceEvents" (List.length timed) (List.length events));
      let names = List.filter_map (str_at [ "name" ]) events in
      check_keys "pipeline spans"
        (Json.Obj (List.map (fun n -> (n, Json.Null)) names))
        (List.map (fun n -> [ n ]) span_names));
  guard "metrics" (fun () ->
      let m = load metrics in
      check_schema "metrics" m "spt-metrics-v1";
      (match list_at [ "workloads" ] m with
      | w :: _ -> check_keys "workload keys" w [ [ "speedup" ]; [ "outputs_match" ] ]
      | [] -> check "workload keys" false "workloads empty");
      check_keys "counters" m (List.map (fun c -> [ "counters"; c ]) counter_names));
  ignore
    (sptc "parallel run of histogram.c -j 2"
       ([ "run"; example "histogram.c"; "-c"; "best"; "--parallel"; "--jobs"; "2" ] @ warn))

(* ------------------------------------------------------------------ *)
(* bench: the quick bench's summary lands next to dune-project — here a
   temporary root that holds the demo workload *)

let bench () =
  let root = in_tmp "root" in
  Spt_obs.Disk.atomic_write (Filename.concat root "dune-project") "(lang dune 3.0)";
  Spt_obs.Disk.atomic_write
    (Filename.concat root "examples/src/feedback_loop.c")
    (read_file (example "feedback_loop.c"));
  let code, out, err = run ~env:[ ("SPT_BENCH_QUICK", "1") ] ~cwd:root !bench_exe [] in
  let tail =
    let lines = String.split_on_char '\n' (out ^ err) in
    List.filteri (fun i _ -> i >= List.length lines - 30) lines
  in
  check "quick bench exits 0" (code = 0)
    (if code = 0 then "exit 0" else Printf.sprintf "exit %d:\n%s" code (String.concat "\n" tail));
  let b = load (Filename.concat root "BENCH_results.json") in
  check_schema "summary next to dune-project" b "spt-bench-v2";
  let parallel = list_at [ "parallel" ] b in
  check_keys "parallel keys"
    (match parallel with p :: _ -> p | [] -> Json.Null)
    [ [ "measured_speedup" ]; [ "predicted_speedup" ]; [ "jobs" ]; [ "runtime" ] ];
  check "runtime loop counters"
    (List.exists
       (fun p ->
         List.exists
           (fun l -> get [ "forks" ] l <> None && get [ "commits" ] l <> None)
           (list_at [ "runtime"; "loops" ] p))
       parallel)
    "parallel[].runtime.loops[].forks, .commits"

(* ------------------------------------------------------------------ *)
(* cache: a warm batch hits the artifact cache and beats the cold one *)

let cache () =
  let files =
    Sys.readdir !examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare |> List.map example
  in
  let batch label =
    let summary = in_tmp (label ^ ".json") in
    ignore
      (sptc (label ^ " batch")
         (("batch" :: files) @ [ "--cache-dir"; in_tmp "batch-cache"; "--summary"; summary ] @ warn));
    let j = load summary in
    check_schema (label ^ " summary") j "spt-batch-v1";
    j
  in
  let cold = batch "cold" in
  let warm = batch "warm" in
  (match (num [ "cache_hits" ] warm, num [ "files" ] warm) with
  | Some hits, Some n -> check "warm hits >= 90%" (10. *. hits >= 9. *. n) (Printf.sprintf "%g/%g hits" hits n)
  | _ -> check "warm hits >= 90%" false "cache_hits or files missing");
  check_num "warm failed = 0" warm [ "failed" ] (( = ) 0.);
  check_num "warm timed out = 0" warm [ "timed_out" ] (( = ) 0.);
  match (num [ "wall_s" ] cold, num [ "wall_s" ] warm) with
  | Some c, Some w -> check "warm faster than cold" (w < c) (Printf.sprintf "%.3fs -> %.3fs" c w)
  | _ -> check "warm faster than cold" false "wall_s missing"

(* ------------------------------------------------------------------ *)
(* feedback: observed misspeculation changes the partition *)

let feedback () =
  let src = example "feedback_loop.c" and profile = in_tmp "profile.json" in
  let static =
    compile_loops "static compile selects a loop" ([ src; "-c"; "best" ] @ warn) (fun n -> n >= 1)
  in
  ignore (sptc "profile" ([ "profile"; src; "--profile-out"; profile ] @ warn));
  guard "profile store" (fun () -> check_schema "profile store" (load profile) "spt-profile-v1");
  let out =
    sptc ~env:[ ("SPT_JOBS", "2") ] "run --feedback-out"
      ([ "run"; src; "--parallel"; "-c"; "best"; "--profile-in"; profile; "--feedback-out"; profile ]
      @ warn)
  in
  check_text "run reports statistics" out "violations";
  ignore
    (compile_loops "guided compile selects fewer loops"
       ([ src; "-c"; "best"; "--profile-in"; profile ] @ warn)
       (fun n -> match static with Some s -> n < s | None -> false));
  let adapt = in_tmp "adapt.json" in
  let out = sptc "adapt" ([ "adapt"; src; "-j"; "2"; "--json"; adapt ] @ warn) in
  check_text "adapt converges" out "converged: true";
  guard "adapt report" (fun () -> check_schema "adapt report" (load adapt) "spt-adapt-v1")

(* ------------------------------------------------------------------ *)
(* fuzz: a clean campaign over the full oracle matrix *)

let fuzz () =
  let report = in_tmp "fuzz.json" in
  ignore
    (sptc "seed-42 campaign"
       ([ "fuzz"; "--seed"; "42"; "--count"; "25"; "--json"; report ] @ warn));
  let j = load report in
  check_schema "campaign report" j "spt-fuzz-v1";
  check_num "25 cases" j [ "totals"; "cases" ] (( = ) 25.);
  check_num "no divergence" j [ "totals"; "divergent" ] (( = ) 0.);
  check_num "nothing skipped" j [ "totals"; "skipped" ] (( = ) 0.);
  check_num "loops speculated" j [ "totals"; "spt_loops" ] (fun n -> n > 0.)

(* ------------------------------------------------------------------ *)
(* attrib: the buckets account for every lane's wall time, cheaply *)

let attrib_of name =
  let report = in_tmp (name ^ ".attrib.json") in
  ignore
    (sptc (name ^ " run --attrib")
       ([ "run"; example name; "-c"; "best"; "--parallel"; "--jobs"; "2"; "--attrib"; report ]
       @ warn));
  let a = load report in
  check_schema (name ^ " report") a "spt-attrib-v1";
  check_keys (name ^ " keys") a
    ([ [ "domains" ]; [ "coverage" ]; [ "overhead_fraction" ]; [ "gap"; "predicted_speedup" ];
       [ "gap"; "measured_speedup" ]; [ "iter_latency_s"; "p50" ]; [ "iter_latency_s"; "p95" ];
       [ "iter_latency_s"; "p99" ] ]
    @ List.map
        (fun b -> [ "totals"; b ])
        [ "compile"; "dispatch"; "chunk"; "fork"; "validate"; "commit"; "rollback"; "idle" ]);
  let domains = list_at [ "domains" ] a in
  let lanes = List.length domains in
  check (name ^ " lanes >= 2") (lanes >= 2) (Printf.sprintf "%d lane(s)" lanes);
  (* recomputed from the raw per-domain buckets, not from the report's
     own coverage arithmetic *)
  let bucket_sum =
    List.fold_left
      (fun acc d ->
        match get [ "buckets" ] d with
        | Some (Json.Obj bs) ->
          List.fold_left (fun acc (_, v) -> acc +. Option.value ~default:0. (as_num v)) acc bs
        | _ -> acc)
      0. domains
  in
  (match num [ "wall_s" ] a with
  | Some wall when wall > 0. && lanes > 0 ->
    let frac = bucket_sum /. (wall *. float_of_int lanes) in
    check (name ^ " buckets cover wall x lanes") (frac >= 0.95 && frac <= 1.05)
      (Printf.sprintf "%.4fs / (%.4fs x %d) = %.3f, want [0.95, 1.05]" bucket_sum wall lanes frac)
  | _ -> check (name ^ " buckets cover wall x lanes") false "no wall_s or no lanes");
  check_num (name ^ " coverage >= 0.95") a [ "coverage" ] (fun c -> c >= 0.95);
  check_num (name ^ " overhead <= 5%") a [ "overhead_fraction" ] (fun f -> f <= 0.05);
  check_top (name ^ " top") a "coverage"

let attrib () = List.iter (fun name -> guard name (fun () -> attrib_of name)) [ "scan.c"; "histogram.c" ]

(* ------------------------------------------------------------------ *)
(* profdb: misspeculation cost falls across generations *)

(* violations + faults + kills over the "; loop N: ..." lines of a
   [sptc run --parallel] (a run that speculated nothing sums to 0) *)
let misspec_cost text =
  String.split_on_char '\n' text
  |> List.filter (String.starts_with ~prefix:"; loop ")
  |> List.concat_map (String.split_on_char ',')
  |> List.fold_left
       (fun acc item ->
         match List.rev (String.split_on_char ' ' (String.trim item)) with
         | ("violations" | "faults" | "kills") :: n :: _ ->
           acc + Option.value ~default:0 (int_of_string_opt n)
         | _ -> acc)
       0

let profdb () =
  let src = example "feedback_loop.c" and dir = in_tmp "profdb-cache" in
  let gens = 3 in
  let outs =
    List.init gens (fun i ->
        let out =
          sptc ~env:[ ("SPT_JOBS", "2") ]
            (Printf.sprintf "generation %d" (i + 1))
            ([ "run"; src; "--parallel"; "-c"; "best"; "-j"; "2"; "--cache-dir"; dir ] @ warn)
        in
        let line = Printf.sprintf "; profdb: generation %d" (i + 1) in
        check
          (Printf.sprintf "generation %d acknowledged" (i + 1))
          (List.exists (String.starts_with ~prefix:line) (String.split_on_char '\n' out))
          (Printf.sprintf "%S printed" line);
        out)
  in
  let costs = List.map misspec_cost outs in
  let shown = String.concat " -> " (List.map string_of_int costs) in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> b <= a && non_increasing rest
    | _ -> true
  in
  check "misspeculation cost non-increasing" (non_increasing costs) shown;
  let first = List.hd costs and last = List.nth costs (gens - 1) in
  check "generation 1 misspeculates" (first > 0) shown;
  check "misspeculation cost drops" (last < first) shown;
  check_text "last generation database-guided" (List.nth outs (gens - 1)) "compile guided by gen";
  guard "stat" (fun () ->
      let stat = in_tmp "profdb-stat.json" in
      let out = sptc "stat" [ "profdb"; "stat"; "--cache-dir"; dir; "--json"; stat ] in
      check_text "stat renders the census" out "profile db:";
      let j = load stat in
      check_schema "stat report" j "spt-profdb-v1";
      check_num "entry at the last generation" j [ "max_generation" ] (( = ) (float_of_int gens)));
  guard "export" (fun () ->
      let exported = in_tmp "exported.json" in
      ignore (sptc "export" [ "profdb"; "export"; "--cache-dir"; dir; "-o"; exported ]);
      check_schema "exported store" (load exported) "spt-profile-v1";
      ignore
        (compile_loops "exported store steers the compile to 0 loops"
           ([ src; "-c"; "best"; "--profile-in"; exported; "--no-cache" ] @ warn)
           (( = ) 0)));
  Spt_obs.Disk.atomic_write (Filename.concat (Spt_profdb.Profdb.subdir dir) "corrupt.json") "not json";
  let out = sptc "gc" [ "profdb"; "gc"; "--cache-dir"; dir ] in
  check_text "gc drops the corrupt entry" out "1 invalid file(s) dropped";
  let section = Scenarios.profdb_generations ~src:(read_file src) () in
  check_schema "bench section" section Spt_profdb.Profdb.schema;
  check_top "top renders the generations"
    (Report.bench_json ~quick:true ~profdb:section ~per_config:[] ~parallel:[] ())
    "misspeculation across generations"

(* ------------------------------------------------------------------ *)
(* depth: the depth-4 median wall does not lose to depth 1; the
   accumulator stays speculative *)

let depth () =
  let d = Scenarios.depth_sweep () in
  check_schema "bench section" d "spt-depth-v1";
  let at k key =
    List.find_opt (fun r -> num [ "depth" ] r = Some (float_of_int k)) (list_at [ "rows" ] d)
    |> Fun.flip Option.bind (num [ key ])
  in
  (match (num [ "cores" ] d, at 1 "wall_s", at 4 "wall_s") with
  | Some cores, Some w1, Some w4 when w1 > 0. && w4 > 0. ->
    (* with a core to pipeline across, depth 4 must not lose to depth
       1 beyond a 5% noise floor; on one core every domain time-shares
       it, so the sweep measures K-deep overhead, which stays bounded *)
    let bound = if cores >= 2. then 1.05 else 1.75 in
    let iqr k = Option.value ~default:nan (at k "wall_iqr_s") in
    check "depth 4 vs depth 1 median wall" (w4 <= w1 *. bound)
      (Printf.sprintf "%.4fs (iqr %.4f) vs %.4fs (iqr %.4f): ratio %.3f, bound %.2f on %g core(s)"
         w4 (iqr 4) w1 (iqr 1) (w4 /. w1) bound cores)
  | _ -> check "depth 4 vs depth 1 median wall" false "cores or depth-1/depth-4 walls missing");
  check_num "accumulator despecs = 0" d [ "accumulator"; "despecs" ] (( = ) 0.);
  check_num "accumulator value predictions" d [ "accumulator"; "svp_predicts" ] (fun n -> n > 0.);
  check_num "accumulator prediction hits" d [ "accumulator"; "svp_hits" ] (fun n -> n > 0.);
  let summary = Report.bench_json ~quick:true ~depth:d ~per_config:[] ~parallel:[] () in
  check_top "top renders the sweep" summary "depth sweep";
  check_top "top renders the accumulator" summary "accumulator"

(* ------------------------------------------------------------------ *)

let groups =
  [ ("obs", obs); ("cache", cache); ("feedback", feedback); ("fuzz", fuzz); ("attrib", attrib);
    ("profdb", profdb); ("depth", depth); ("bench", bench) ]

let () =
  let selected = ref [] in
  Arg.parse
    [ ("--sptc", Arg.Set_string sptc_exe, "PATH the sptc binary");
      ("--bench", Arg.Set_string bench_exe, "PATH the bench/main.exe binary");
      ("--examples", Arg.Set_string examples_dir, "DIR examples/src") ]
    (fun g ->
      if List.mem_assoc g groups then selected := g :: !selected
      else raise (Arg.Bad ("unknown group " ^ g)))
    ("smoke.exe [OPTION...] [GROUP...]; groups (default all): "
    ^ String.concat " " (List.map fst groups));
  List.iter
    (fun r -> if Filename.is_relative !r then r := Filename.concat (Sys.getcwd ()) !r)
    [ sptc_exe; bench_exe; examples_dir ];
  List.iter
    (fun (name, f) ->
      if !selected = [] || List.mem name !selected then begin
        group := name;
        Printf.printf "\n== %s\n%!" name;
        guard "group" f
      end)
    groups;
  Printf.printf "\nsmoke: %d check(s), %d failed\n" !checks (List.length !failed);
  List.iter (Printf.printf "  FAIL %s\n") (List.rev !failed);
  exit (if !failed = [] then 0 else 1)
