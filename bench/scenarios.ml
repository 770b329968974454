(** The bench scenarios the smoke checks call directly: the profile
    database's repeated-workload generations and the K-deep pipelining
    sweep.  Each prints its section through [sptc top]'s renderer and
    returns it, for [main.exe] to write into the summary and
    [smoke.exe] to check. *)

open Spt_driver
module R = Spt_runtime.Runtime
module Json = Spt_obs.Json

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

let parallel_jobs =
  match Sys.getenv_opt "SPT_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* every bench run's runtime: [parallel_jobs] workers and no oracle —
   the oracle re-runs the program sequentially, and each section checks
   outputs its own way *)
let runtime_config ?depth ?timeline () =
  {
    (R.default_config ~jobs:parallel_jobs ()) with
    oracle = false;
    depth;
    timeline;
  }

let print_report j =
  match Report.top_text j with Ok text -> print_string text | Error e -> prerr_endline e

(* ------------------------------------------------------------------ *)
(* Profile database: the repeated-workload scenario.  The same program
   is run --parallel several times against a fresh database; each run
   ingests its misspeculation telemetry, so from generation 2 on the
   compile is guided by the accumulated entry and the misspeculation
   cost drops — with zero client-side flags beyond the cache dir. *)

let profdb_generations ~src () =
  section
    (Printf.sprintf
       "Profile database: misspeculation across generations (%d job(s))"
       parallel_jobs);
  let dir = Filename.temp_dir "spt_bench_profdb" "" in
  let db =
    Spt_profdb.Profdb.create ~tool:Spt_service.Cached.tool_version
      ~dir:(Spt_profdb.Profdb.subdir dir) ()
  in
  let fingerprint = Spt_service.Fingerprint.source src in
  let runtime_config = runtime_config () in
  let generation gen =
    let profile, gen_in = Spt_profdb.Profdb.guide db ~fingerprint None in
    let pr = Pipeline.run_parallel ~runtime_config ?profile src in
    let fresh = Spt_profile.Profile_store.empty () in
    Spt_feedback.Telemetry.record fresh pr.Pipeline.pr_spt pr.Pipeline.pr_runtime;
    ignore (Spt_profdb.Profdb.ingest db ~fingerprint fresh);
    let events, cost =
      List.fold_left
        (fun (e, c) ((_, st) : int * R.loop_stats) ->
          let bad = st.R.violations + st.R.faults + st.R.kills in
          (e + bad, c + bad + st.R.serial_reexecs))
        (0, 0) pr.Pipeline.pr_runtime.R.stats
    in
    Json.Obj
      [
        ("generation", Json.Int gen);
        ("guided", Json.Bool (gen_in <> None));
        ("n_spt_loops", Json.Int pr.Pipeline.pr_n_loops);
        ("misspec_events", Json.Int events);
        ("misspec_cost", Json.Int cost);
        ("measured_speedup", Json.Float pr.Pipeline.pr_measured_speedup);
      ]
  in
  (* List.map runs the generations in order: each compiles against the
     ones before it *)
  let rows = List.map generation [ 1; 2; 3 ] in
  let j =
    Json.Obj
      [
        ("schema", Json.Str Spt_profdb.Profdb.schema);
        ("workload", Json.Str "feedback_loop");
        ("jobs", Json.Int parallel_jobs);
        ("generations", Json.List rows);
        ("db", Spt_profdb.Profdb.stats_json db);
      ]
  in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  print_report j;
  print_endline
    "(same program, fresh database: generation 1 compiles unguided and\n\
     misspeculates; every run ingests telemetry, so later generations\n\
     compile against the accumulated profile with no client-side flags)";
  j

(* ------------------------------------------------------------------ *)
(* Speculation depth: the same pipeline-friendly program executed with
   the in-flight window forced to 1 (the paper's main+1 model) and to
   K > 1 chunks — K-deep DOACROSS pipelining with ordered commit.  The
   accumulator workload rides along: its post-fork loop-carried sum
   used to trip the despeculation valve; runtime value prediction must
   now keep it speculative (despecs = 0). *)

(* independent iterations with a compute-dense, write-light body: the
   workers do ~100x more work per chunk than the sequential thread
   spends validating and committing it, so throughput is bounded by how
   many chunks are in flight, not by the ordered-commit drain *)
let depth_pipeline_src =
  {|
int n = 6000;
int a[6000];
int b[6000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 7 + 3; }
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    int acc = 0;
    int j;
    for (j = 0; j < 48; j = j + 1) {
      acc = acc + (((x + j) * (x - j)) & 255);
    }
    b[i] = acc;
  }
  print_int(b[0] + b[1234] + b[5999]);
}
|}

(* a clean loop plus a loop carrying [s] through the post-fork region —
   the pattern DESIGN.md 3f used to document as a known degradation *)
let depth_accumulator_src =
  {|
int n = 20000;
int a[20000];
int b[20000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; }
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    int y = x * x + 7;
    b[i] = y - (x & 31);
    s = s + (y & 3);
  }
  print_int(s + b[0] + b[19999]);
}
|}

let depths = [ 1; 2; 4 ]

(* odd, so each depth's median wall is one measured run, whose counters
   its row reports *)
let depth_rounds = 5

let depth_sweep () =
  section
    (Printf.sprintf
       "Speculation depth: K-deep pipelining (%d job(s), median of %d \
        rounds)"
       parallel_jobs depth_rounds);
  let run ?depth src =
    Pipeline.run_parallel ~runtime_config:(runtime_config ?depth ()) src
  in
  let wall (pr : Pipeline.parallel_run) = pr.Pipeline.pr_runtime.R.wall_time in
  (* each round runs every depth once, starting one depth later than
     the round before, so a slow phase of the host, or a position in
     the round, lands on all depths alike *)
  let n = List.length depths in
  let runs =
    List.concat
      (List.init depth_rounds (fun round ->
           List.init n (fun i ->
               let depth = List.nth depths ((round + i) mod n) in
               (depth, run ~depth depth_pipeline_src))))
  in
  let totals (pr : Pipeline.parallel_run) =
    List.fold_left
      (fun (c, k, v, d, (sp, sh, sm)) ((_, st) : int * R.loop_stats) ->
        let p, h, m = R.svp_totals st in
        ( c + st.R.commits,
          k + st.R.kills,
          v + st.R.violations,
          d + st.R.despecs,
          (sp + p, sh + h, sm + m) ))
      (0, 0, 0, 0, (0, 0, 0))
      pr.Pipeline.pr_runtime.R.stats
  in
  let rows =
    List.map
      (fun depth ->
        let sorted =
          List.filter_map (fun (d, pr) -> if d = depth then Some pr else None) runs
          |> List.sort (fun a b -> compare (wall a) (wall b))
        in
        let walls = List.map wall sorted in
        let pr = List.nth sorted (depth_rounds / 2) in
        let commits, kills, violations, despecs, svp = totals pr in
        Report.depth_row ~depth ~wall_s:(wall pr)
          ~wall_iqr_s:
            (Spt_util.Stats.percentile 75.0 walls
            -. Spt_util.Stats.percentile 25.0 walls)
          ~speedup:pr.Pipeline.pr_measured_speedup ~commits ~kills ~violations
          ~despecs ~svp)
      depths
  in
  (* the accumulator runs at the cost model's depth: the claim is about
     the default pipeline, not a hand-picked configuration *)
  let acc = run depth_accumulator_src in
  let _, _, _, despecs, (predicts, hits, _) = totals acc in
  let accumulator =
    Json.Obj
      [
        ("workload", Json.Str "accumulator");
        ( "depth",
          Json.Int
            (match acc.Pipeline.pr_runtime.R.stats with
            | (_, st) :: _ -> st.R.depth
            | [] -> 0) );
        ("despecs", Json.Int despecs);
        ("svp_predicts", Json.Int predicts);
        ("svp_hits", Json.Int hits);
      ]
  in
  let cores = Domain.recommended_domain_count () in
  let workers = R.workers_for parallel_jobs in
  let j =
    Report.depth_json ~workload:"depth_pipeline" ~jobs:parallel_jobs ~cores
      ~rounds:depth_rounds ~accumulator rows
  in
  print_report j;
  if cores <= workers then
    Printf.printf
      "(%d usable core(s) for %d worker(s) + the sequential thread: the \n\
       deeper pipelines time-share one core, so the sweep measures \n\
       K-deep overhead here, not speedup — the smoke check scales its \n\
       bound by the recorded core count)\n"
      cores workers;
  j
