(** The experiment harness: regenerates every table and figure of the
    paper's evaluation (§8) on the ten synthetic SPEC2000Int-like
    workloads, plus the ablation studies DESIGN.md calls out and a set
    of Bechamel micro-benchmarks of the compiler itself.

    Run with: dune exec bench/main.exe
    (set SPT_BENCH_QUICK=1 for a reduced run: three workloads, no
    microbenchmarks; SPT_BENCH_JSON overrides the machine-readable
    summary path, default BENCH_results.json) *)

open Spt_driver
module Tls = Spt_tlsim.Tls_machine

let quick = Sys.getenv_opt "SPT_BENCH_QUICK" <> None

(* the summary lands next to dune-project (the committed baseline lives
   there) wherever the harness is invoked from *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let json_path =
  match Sys.getenv_opt "SPT_BENCH_JSON" with
  | Some p -> p
  | None ->
    Filename.concat
      (Option.value ~default:(Sys.getcwd ()) (repo_root ()))
      "BENCH_results.json"

(* SPT_BENCH_ONLY=profdb runs just the profile-database generations
   scenario (what bench/profdb_smoke.sh consumes) — the full evaluation
   takes minutes — grafting its section into an existing summary when
   one is present. *)
let bench_only = Sys.getenv_opt "SPT_BENCH_ONLY"
let profdb_only = bench_only = Some "profdb"

(* SPT_BENCH_ONLY=depth runs just the K-deep pipelining sweep (what
   bench/depth_smoke.sh consumes), grafting its section like profdb. *)
let depth_only = bench_only = Some "depth"

let workloads =
  if quick then
    List.filter
      (fun w -> List.mem w.Spt_workloads.Suite.name [ "gzip"; "mcf"; "bzip2" ])
      Spt_workloads.Suite.all
  else Spt_workloads.Suite.all

let configs = [ Config.basic; Config.best; Config.anticipated ]

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* Evaluate everything once, reusing results across tables *)

let evaluate_all () =
  List.map
    (fun (config : Config.t) ->
      let results =
        List.map
          (fun w ->
            let t0 = Unix.gettimeofday () in
            let e = Pipeline.evaluate ~config w.Spt_workloads.Suite.source in
            Printf.printf "  [%-11s] %-8s speedup %+6.1f%%  spt-loops %2d  %s  (%.0fs)\n%!"
              config.Config.name w.Spt_workloads.Suite.name
              ((e.Pipeline.speedup -. 1.0) *. 100.0)
              e.Pipeline.n_spt_loops
              (if e.Pipeline.outputs_match then "ok" else "OUTPUT MISMATCH!")
              (Unix.gettimeofday () -. t0);
            if not e.Pipeline.outputs_match then
              failwith
                (Printf.sprintf "output mismatch: %s under %s"
                   w.Spt_workloads.Suite.name config.Config.name);
            (w.Spt_workloads.Suite.name, e))
          workloads
      in
      (config.Config.name, results))
    configs

(* ------------------------------------------------------------------ *)
(* Model vs reality: the simulator's predicted speedup against the
   wall-clock speedup of the real multicore runtime (Spt_runtime).
   On a small container the measured number is usually < 1 -- domains
   contend for one core -- which is itself the point of reporting both. *)

let parallel_jobs =
  match Sys.getenv_opt "SPT_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* every bench run's runtime: [parallel_jobs] workers and no oracle —
   the oracle re-runs the program sequentially, and each section checks
   outputs its own way (evaluate_all already compared them) *)
let runtime_config ?depth ?timeline () =
  {
    (Spt_runtime.Runtime.default_config ~jobs:parallel_jobs ()) with
    oracle = false;
    depth;
    timeline;
  }

let measure_parallel best =
  section
    (Printf.sprintf
       "Measured vs predicted speedup (Spt_runtime, %d job(s), best compilation)"
       parallel_jobs);
  let t =
    Spt_util.Table.create
      ~aligns:
        [
          Spt_util.Table.Left; Spt_util.Table.Right; Spt_util.Table.Right;
          Spt_util.Table.Right;
        ]
      [ "program"; "predicted"; "measured"; "achieved" ]
  in
  let rows =
    List.map
      (fun w ->
        let name = w.Spt_workloads.Suite.name in
        let predicted =
          match List.assoc_opt name best with
          | Some e -> e.Pipeline.speedup
          | None -> 1.0
        in
        let timeline = Spt_obs.Timeline.create () in
        let pr =
          Pipeline.run_parallel
            ~runtime_config:(runtime_config ~timeline ())
            w.Spt_workloads.Suite.source
        in
        let measured = pr.Pipeline.pr_measured_speedup in
        Spt_util.Table.add_row t
          [
            name;
            Printf.sprintf "%.2fx" predicted;
            Printf.sprintf "%.2fx" measured;
            (if predicted > 0.0 then
               Printf.sprintf "%.0f%%" (100.0 *. measured /. predicted)
             else "-");
          ];
        let attrib =
          Report.attrib_json ~predicted ~workload:name ~timeline pr
        in
        ( Spt_obs.Json.Obj
            [
              ("workload", Spt_obs.Json.Str name);
              ("jobs", Spt_obs.Json.Int pr.Pipeline.pr_jobs);
              ( "chunk",
                match pr.Pipeline.pr_chunk with
                | Some n -> Spt_obs.Json.Int n
                | None -> Spt_obs.Json.Str "auto" );
              ("predicted_speedup", Spt_obs.Json.Float predicted);
              ("measured_speedup", Spt_obs.Json.Float measured);
              ( "runtime",
                Spt_runtime.Runtime.stats_json pr.Pipeline.pr_runtime );
              ("attrib", attrib);
            ],
          Spt_obs.Json.prepend
            ("workload", Spt_obs.Json.Str name)
            (Report.gap_json ~predicted ~measured ()) ))
      workloads
  in
  Spt_util.Table.print t;
  (List.map fst rows, List.map snd rows)

(* ------------------------------------------------------------------ *)
(* Feedback: the static cost model's predicted misspeculation next to
   what the runtime measured, and next to what a profile-guided
   recompile (telemetry fed back through the persistent store's
   save/load round-trip) predicts instead *)

module Store = Spt_profile.Profile_store
module Telemetry = Spt_feedback.Telemetry

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let feedback_comparison () =
  section "Feedback: static vs profile-guided misspeculation cost";
  let demo =
    let root = Option.value ~default:(Sys.getcwd ()) (repo_root ()) in
    ( "feedback_loop",
      read_file (Filename.concat root "examples/src/feedback_loop.c") )
  in
  let cases =
    demo
    :: List.filter_map
         (fun w ->
           if List.mem w.Spt_workloads.Suite.name [ "gzip"; "mcf" ] then
             Some (w.Spt_workloads.Suite.name, w.Spt_workloads.Suite.source)
           else None)
         workloads
  in
  let t =
    Spt_util.Table.create
      ~aligns:
        [
          Spt_util.Table.Left; Spt_util.Table.Left; Spt_util.Table.Right;
          Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Left;
        ]
      [
        "program"; "loop"; "static cost"; "observed rate"; "guided cost";
        "guided decision";
      ]
  in
  let rows =
    List.concat_map
      (fun (name, src) ->
        let pr =
          Pipeline.run_parallel ~runtime_config:(runtime_config ()) src
        in
        let store = Store.empty () in
        let ep, dp, vp = Pipeline.profile_source src in
        Store.absorb_profiles store ep dp vp;
        Telemetry.record store pr.Pipeline.pr_spt pr.Pipeline.pr_runtime;
        (* persistence round-trip: the bench exercises the on-disk path *)
        let tmp = Filename.temp_file "spt_bench_profile" ".json" in
        Store.save store tmp;
        let store = Store.load tmp in
        Sys.remove tmp;
        let guided = Pipeline.evaluate ~profile:store src in
        List.filter_map
          (fun (lr : Pipeline.loop_record) ->
            match (lr.Pipeline.lr_decision, lr.Pipeline.lr_cost) with
            | Pipeline.Selected, Some cost ->
              let loop_label =
                Printf.sprintf "%s@bb%d" lr.Pipeline.lr_func
                  lr.Pipeline.lr_header
              in
              let static_frac =
                Spt_cost.Cost_model.predicted_fraction ~cost
                  ~body_size:lr.Pipeline.lr_body_size
              in
              let observed =
                match lr.Pipeline.lr_loop_id with
                | None -> 0.0
                | Some lid -> (
                  match
                    List.assoc_opt lid
                      pr.Pipeline.pr_runtime.Spt_runtime.Runtime.stats
                  with
                  | None -> 0.0
                  | Some st ->
                    let module R = Spt_runtime.Runtime in
                    let bad =
                      st.R.violations + st.R.faults + st.R.kills
                    in
                    float_of_int bad /. float_of_int (max 1 st.R.iters))
              in
              let grec =
                List.find_opt
                  (fun (g : Pipeline.loop_record) ->
                    g.Pipeline.lr_func = lr.Pipeline.lr_func
                    && g.Pipeline.lr_header = lr.Pipeline.lr_header)
                  guided.Pipeline.loops
              in
              let guided_frac, guided_decision =
                match grec with
                | None -> (None, "-")
                | Some g ->
                  ( Option.map
                      (fun c ->
                        Spt_cost.Cost_model.predicted_fraction ~cost:c
                          ~body_size:g.Pipeline.lr_body_size)
                      g.Pipeline.lr_cost,
                    match g.Pipeline.lr_decision with
                    | Pipeline.Selected -> "selected"
                    | Pipeline.Rejected r ->
                      "rejected: " ^ Spt_transform.Select.string_of_reason r )
              in
              Spt_util.Table.add_row t
                [
                  name;
                  loop_label;
                  Printf.sprintf "%.3f" static_frac;
                  Printf.sprintf "%.3f" observed;
                  (match guided_frac with
                  | Some f -> Printf.sprintf "%.3f" f
                  | None -> "-");
                  guided_decision;
                ];
              Some
                (Spt_obs.Json.Obj
                   [
                     ("workload", Spt_obs.Json.Str name);
                     ("loop", Spt_obs.Json.Str loop_label);
                     ("static_cost_fraction", Spt_obs.Json.Float static_frac);
                     ("observed_misspec_rate", Spt_obs.Json.Float observed);
                     ( "guided_cost_fraction",
                       match guided_frac with
                       | Some f -> Spt_obs.Json.Float f
                       | None -> Spt_obs.Json.Null );
                     ("guided_decision", Spt_obs.Json.Str guided_decision);
                   ])
            | _ -> None)
          pr.Pipeline.pr_spt.Pipeline.records)
      cases
  in
  Spt_util.Table.print t;
  print_endline
    "(static cost: predicted misspeculation fraction of the body;\n\
     observed: (violations+faults+kills)/iterations on the real runtime;\n\
     guided: the same prediction after feeding the telemetry back)";
  rows

(* ------------------------------------------------------------------ *)
(* Profile database: the repeated-workload scenario.  The same program
   is run --parallel several times against a fresh database; each run
   ingests its misspeculation telemetry, so from generation 2 on the
   compile is guided by the accumulated entry and the misspeculation
   cost drops — with zero client-side flags beyond the cache dir.
   bench/profdb_smoke.sh asserts the non-increase in CI. *)

let profdb_generations () =
  section
    (Printf.sprintf
       "Profile database: misspeculation across generations (%d job(s))"
       parallel_jobs);
  let root = Option.value ~default:(Sys.getcwd ()) (repo_root ()) in
  let src = read_file (Filename.concat root "examples/src/feedback_loop.c") in
  let dir =
    let base = Filename.temp_file "spt_bench_profdb" "" in
    Sys.remove base;
    Unix.mkdir base 0o755;
    base
  in
  let db =
    Spt_profdb.Profdb.create ~tool:Spt_service.Cached.tool_version
      ~dir:(Spt_profdb.Profdb.subdir dir) ()
  in
  let fingerprint = Spt_service.Fingerprint.program (Pipeline.front_end src) in
  let runtime_config = runtime_config () in
  let t =
    Spt_util.Table.create
      ~aligns:
        [
          Spt_util.Table.Right; Spt_util.Table.Left; Spt_util.Table.Right;
          Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Right;
        ]
      [ "gen"; "guided"; "spt loops"; "misspec"; "cost"; "speedup" ]
  in
  let rows = ref [] in
  let gens = 3 in
  for gen = 1 to gens do
    let profile, gen_in = Spt_profdb.Profdb.guide db ~fingerprint None in
    let guided = gen_in <> None in
    let pr = Pipeline.run_parallel ~runtime_config ?profile src in
    let fresh = Store.empty () in
    Telemetry.record fresh pr.Pipeline.pr_spt pr.Pipeline.pr_runtime;
    ignore (Spt_profdb.Profdb.ingest db ~fingerprint fresh);
    let module R = Spt_runtime.Runtime in
    let events, cost =
      List.fold_left
        (fun (e, c) ((_, st) : int * R.loop_stats) ->
          let bad = st.R.violations + st.R.faults + st.R.kills in
          (e + bad, c + bad + st.R.serial_reexecs))
        (0, 0) pr.Pipeline.pr_runtime.R.stats
    in
    Spt_util.Table.add_row t
      [
        string_of_int gen;
        (if guided then "yes" else "no");
        string_of_int pr.Pipeline.pr_n_loops;
        string_of_int events;
        string_of_int cost;
        Printf.sprintf "%.2fx" pr.Pipeline.pr_measured_speedup;
      ];
    rows :=
      Spt_obs.Json.Obj
        [
          ("generation", Spt_obs.Json.Int gen);
          ("guided", Spt_obs.Json.Bool guided);
          ("n_spt_loops", Spt_obs.Json.Int pr.Pipeline.pr_n_loops);
          ("misspec_events", Spt_obs.Json.Int events);
          ("misspec_cost", Spt_obs.Json.Int cost);
          ("measured_speedup", Spt_obs.Json.Float pr.Pipeline.pr_measured_speedup);
        ]
      :: !rows
  done;
  Spt_util.Table.print t;
  print_endline
    "(same program, fresh database: generation 1 compiles unguided and\n\
     misspeculates; every run ingests telemetry, so later generations\n\
     compile against the accumulated profile with no client-side flags)";
  Spt_obs.Json.Obj
    [
      ("schema", Spt_obs.Json.Str Spt_profdb.Profdb.schema);
      ("workload", Spt_obs.Json.Str "feedback_loop");
      ("jobs", Spt_obs.Json.Int parallel_jobs);
      ("generations", Spt_obs.Json.List (List.rev !rows));
      ("db", Spt_profdb.Profdb.stats_json db);
    ]

(* ------------------------------------------------------------------ *)
(* Speculation depth: the same pipeline-friendly program executed with
   the in-flight window forced to 1 (the paper's main+1 model) and to
   K > 1 chunks — K-deep DOACROSS pipelining with ordered commit.  The
   accumulator workload rides along: its post-fork loop-carried sum
   used to trip the despeculation valve; runtime value prediction must
   now keep it speculative (despecs = 0).  bench/depth_smoke.sh
   enforces both claims in CI: depth-4 throughput >= depth-1 and an
   accumulator that never despeculates. *)

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

let depth_sweep () =
  section
    (Printf.sprintf "Speculation depth: K-deep pipelining (%d job(s))"
       parallel_jobs);
  let module R = Spt_runtime.Runtime in
  (* best of two runs per depth, to shave scheduler noise off the smoke
     test's depth-4 >= depth-1 assertion *)
  let run ?depth src =
    let runtime_config = runtime_config ?depth () in
    let once () = Pipeline.run_parallel ~runtime_config src in
    let a = once () in
    let b = once () in
    if a.Pipeline.pr_runtime.R.wall_time <= b.Pipeline.pr_runtime.R.wall_time
    then a
    else b
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
  let t =
    Spt_util.Table.create
      ~aligns:
        [
          Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Right;
          Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Right;
          Spt_util.Table.Right;
        ]
      [ "depth"; "wall"; "speedup"; "commits"; "kills"; "violations"; "svp" ]
  in
  let rows =
    List.map
      (fun depth ->
        let pr = run ~depth depth_pipeline_src in
        let commits, kills, violations, despecs, svp = totals pr in
        let predicts, hits, _ = svp in
        Spt_util.Table.add_row t
          [
            string_of_int depth;
            Printf.sprintf "%.3fs" pr.Pipeline.pr_runtime.R.wall_time;
            Printf.sprintf "%.2fx" pr.Pipeline.pr_measured_speedup;
            string_of_int commits;
            string_of_int kills;
            string_of_int violations;
            Printf.sprintf "%d/%d" hits predicts;
          ];
        Report.depth_row ~depth ~wall_s:pr.Pipeline.pr_runtime.R.wall_time
          ~speedup:pr.Pipeline.pr_measured_speedup ~commits ~kills ~violations
          ~despecs ~svp)
      [ 1; 2; 4 ]
  in
  Spt_util.Table.print t;
  (* the accumulator runs at the cost model's depth: the claim is about
     the default pipeline, not a hand-picked configuration *)
  let acc = run depth_accumulator_src in
  let _, _, _, despecs, (predicts, hits, _) = totals acc in
  if despecs > 0 then
    failwith
      (Printf.sprintf
         "accumulator workload despeculated (%d valve trip(s)): runtime \
          value prediction regressed"
         despecs);
  Printf.printf
    "\naccumulator workload: despecs %d, svp %d/%d hit(s) — the \n\
     loop-carried sum stays speculative via runtime value prediction\n"
    despecs hits predicts;
  let accumulator =
    Spt_obs.Json.Obj
      [
        ("workload", Spt_obs.Json.Str "accumulator");
        ( "depth",
          Spt_obs.Json.Int
            (match acc.Pipeline.pr_runtime.R.stats with
            | (_, st) :: _ -> st.R.depth
            | [] -> 0) );
        ("despecs", Spt_obs.Json.Int despecs);
        ("svp_predicts", Spt_obs.Json.Int predicts);
        ("svp_hits", Spt_obs.Json.Int hits);
      ]
  in
  let cores = Domain.recommended_domain_count () in
  let workers = R.workers_for parallel_jobs in
  if cores <= workers then
    Printf.printf
      "(%d usable core(s) for %d worker(s) + the sequential thread: the \n\
       deeper pipelines time-share one core, so the sweep measures \n\
       K-deep overhead here, not speedup — depth_smoke.sh scales its \n\
       assertion by the recorded core count)\n"
      cores workers;
  Report.depth_json ~workload:"depth_pipeline" ~jobs:parallel_jobs ~cores
    ~accumulator rows

(* ------------------------------------------------------------------ *)
(* Ablation 1: cost-combination rules (Independent vs Per_seed vs Max) *)

let ablation_cost_rules () =
  section "Ablation: cost-propagation rule (paper's independence rule vs per-seed)";
  let t =
    Spt_util.Table.create
      ~aligns:[ Spt_util.Table.Left; Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Right ]
      [ "loop"; "per-seed (default)"; "independent (paper)"; "max-rule" ]
  in
  (* collect every loop's three costs on *profiled* graphs (without
     probabilities below 1 every rule saturates identically), then show
     the most divergent: the rules only differ where paths reconverge *)
  let rows = ref [] in
  List.iter
    (fun w ->
      let prog = Pipeline.front_end w.Spt_workloads.Suite.source in
      List.iter
        (fun (_, f) ->
          ignore (Spt_transform.Unroll.run f Spt_transform.Unroll.default_policy))
        prog.Spt_ir.Ir.funcs;
      Pipeline.to_ssa prog;
      let eff = Spt_depgraph.Effects.compute prog in
      let ep, dp, _ = Pipeline.profile_all prog ~max_steps:100_000_000 in
      let dg_config =
        {
          Spt_depgraph.Depgraph.default_config with
          Spt_depgraph.Depgraph.edge_profile = Some ep;
          dep_profile = Some dp;
        }
      in
      List.iter
        (fun (name, f) ->
          List.iter
            (fun (l : Spt_ir.Loops.loop) ->
              let g = Spt_depgraph.Depgraph.build ~config:dg_config eff f l in
              if Spt_depgraph.Depgraph.violation_candidates g <> [] then begin
                let cm = Spt_cost.Cost_model.build g in
                let cost combine =
                  Spt_cost.Cost_model.misspeculation_cost ~combine cm
                    ~prefork:Spt_cost.Cost_model.Iset.empty
                in
                let ps = cost `Per_seed
                and ind = cost `Independent
                and mx = cost `Max_rule in
                rows :=
                  ( ind -. ps,
                    Printf.sprintf "%s:%s@bb%d" w.Spt_workloads.Suite.name name
                      l.Spt_ir.Loops.header,
                    ps, ind, mx )
                  :: !rows
              end)
            (Spt_ir.Loops.find f))
        prog.Spt_ir.Ir.funcs)
    (List.filter
       (fun w ->
         List.mem w.Spt_workloads.Suite.name [ "gzip"; "twolf"; "gcc"; "mcf" ])
       workloads);
  let sorted = List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a) !rows in
  List.iteri
    (fun k (_, label, ps, ind, mx) ->
      if k < 12 then
        Spt_util.Table.add_row t
          [
            label;
            Printf.sprintf "%.1f" ps;
            Printf.sprintf "%.1f" ind;
            Printf.sprintf "%.1f" mx;
          ])
    sorted;
  Spt_util.Table.print t;
  print_endline
    "(empty pre-fork partitions; the independence rule over-estimates on\n\
     reconvergent graphs -- the conservatism the paper observes in Fig. 19)"

(* Ablation 2: branch-and-bound pruning vs exhaustive search *)
let ablation_pruning () =
  section "Ablation: partition-search pruning (heuristics of 5.2.1)";
  let t =
    Spt_util.Table.create
      ~aligns:[ Spt_util.Table.Left; Spt_util.Table.Right; Spt_util.Table.Right;
                Spt_util.Table.Right; Spt_util.Table.Right ]
      [ "loop"; "VCs"; "nodes (pruned)"; "nodes (full)"; "same optimum" ]
  in
  let count = ref 0 in
  List.iter
    (fun w ->
      if !count < 10 then begin
        let prog = Pipeline.front_end w.Spt_workloads.Suite.source in
        Pipeline.to_ssa prog;
        let eff = Spt_depgraph.Effects.compute prog in
        List.iter
          (fun (name, f) ->
            List.iter
              (fun (l : Spt_ir.Loops.loop) ->
                if !count < 10 then begin
                  let g = Spt_depgraph.Depgraph.build eff f l in
                  let vcs = Spt_depgraph.Depgraph.violation_candidates g in
                  if List.length vcs >= 2 && List.length vcs <= 16 then begin
                    incr count;
                    let cm = Spt_cost.Cost_model.build g in
                    let body = Spt_partition.Partition.body_size g in
                    let search pruning =
                      Spt_partition.Partition.search
                        ~options:
                          (Some
                             {
                               (Spt_partition.Partition.default_options
                                  ~body_size:body)
                               with
                               Spt_partition.Partition.use_pruning = pruning;
                             })
                        cm g
                    in
                    match (search true, search false) with
                    | Spt_partition.Partition.Found a, Spt_partition.Partition.Found b ->
                      Spt_util.Table.add_row t
                        [
                          Printf.sprintf "%s:%s@bb%d" w.Spt_workloads.Suite.name
                            name l.Spt_ir.Loops.header;
                          string_of_int (List.length vcs);
                          string_of_int a.Spt_partition.Partition.nodes_explored;
                          string_of_int b.Spt_partition.Partition.nodes_explored;
                          string_of_bool
                            (Float.abs
                               (a.Spt_partition.Partition.cost
                               -. b.Spt_partition.Partition.cost)
                            < 1e-6);
                        ]
                    | _ -> ()
                  end
                end)
              (Spt_ir.Loops.find f))
          prog.Spt_ir.Ir.funcs
      end)
    workloads;
  Spt_util.Table.print t

(* Ablation 3: function inlining (extension beyond the paper) *)
let ablation_inlining () =
  section
    "Ablation: small-function inlining (extension; the paper keeps calls opaque)";
  let t =
    Spt_util.Table.create
      ~aligns:[ Spt_util.Table.Left; Spt_util.Table.Right; Spt_util.Table.Right ]
      [ "program"; "best"; "best + inlining" ]
  in
  List.iter
    (fun name ->
      let w = Spt_workloads.Suite.find name in
      let s config =
        (Pipeline.evaluate ~config w.Spt_workloads.Suite.source).Pipeline.speedup
      in
      Spt_util.Table.add_row t
        [
          name;
          Printf.sprintf "%+.1f%%" ((s Config.best -. 1.0) *. 100.0);
          Printf.sprintf "%+.1f%%" ((s Config.best_inline -. 1.0) *. 100.0);
        ])
    [ "crafty"; "twolf"; "parser" ];
  Spt_util.Table.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the compiler itself *)

let microbench () =
  section "Compiler micro-benchmarks (Bechamel)";
  let src = (Spt_workloads.Suite.find "gzip").Spt_workloads.Suite.source in
  let ast = Spt_srclang.Typecheck.parse_and_check src in
  let eff, f, loop =
    let prog = Pipeline.front_end src in
    Pipeline.to_ssa prog;
    let eff = Spt_depgraph.Effects.compute prog in
    let f = Spt_ir.Ir.func_of_program prog "main" in
    let loop =
      List.hd
        (List.filter
           (fun (l : Spt_ir.Loops.loop) ->
             Spt_ir.Loops.Iset.cardinal l.Spt_ir.Loops.body > 3)
           (Spt_ir.Loops.find f))
    in
    (eff, f, loop)
  in
  let graph = Spt_depgraph.Depgraph.build eff f loop in
  let cm = Spt_cost.Cost_model.build graph in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"spt"
      [
        Test.make ~name:"parse+typecheck"
          (Staged.stage (fun () -> Spt_srclang.Typecheck.parse_and_check src));
        Test.make ~name:"lower"
          (Staged.stage (fun () -> Spt_ir.Lower.lower_program ast));
        Test.make ~name:"ssa-construct+optimize"
          (Staged.stage (fun () ->
               let prog = Spt_ir.Lower.lower_program ast in
               Pipeline.to_ssa prog));
        Test.make ~name:"depgraph-build"
          (Staged.stage (fun () -> Spt_depgraph.Depgraph.build eff f loop));
        Test.make ~name:"cost-model-eval"
          (Staged.stage (fun () ->
               Spt_cost.Cost_model.misspeculation_cost cm
                 ~prefork:Spt_cost.Cost_model.Iset.empty));
        Test.make ~name:"partition-search"
          (Staged.stage (fun () -> Spt_partition.Partition.search cm graph));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Spt_util.Table.create
      ~aligns:[ Spt_util.Table.Left; Spt_util.Table.Right ]
      [ "phase"; "time/run" ]
  in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.1f us" (e /. 1000.0)
        | _ -> "-"
      in
      Spt_util.Table.add_row t [ name; est ])
    results;
  Spt_util.Table.print t

(* ------------------------------------------------------------------ *)

let () =
  (* the counter dump in the JSON summary needs the registry live *)
  Spt_obs.Metrics.set_enabled true;
  if profdb_only then begin
    let profdb = profdb_generations () in
    (* graft the section into an existing summary (the committed
       baseline keeps its other sections); fresh summary otherwise *)
    let summary =
      match
        if Sys.file_exists json_path then
          Spt_obs.Json.of_string (read_file json_path)
        else Error "absent"
      with
      | Ok (Spt_obs.Json.Obj _ as j) -> Spt_obs.Json.set ("profdb", profdb) j
      | Ok _ | Error _ ->
        Report.bench_json ~quick:true ~profdb ~per_config:[] ~parallel:[] ()
    in
    Spt_obs.Json.to_file json_path summary;
    Printf.printf "\nmachine-readable summary written to %s\n" json_path;
    exit 0
  end;
  if depth_only then begin
    let depth = depth_sweep () in
    (* same grafting contract as profdb: keep the committed baseline's
       other sections when one is present *)
    let summary =
      match
        if Sys.file_exists json_path then
          Spt_obs.Json.of_string (read_file json_path)
        else Error "absent"
      with
      | Ok (Spt_obs.Json.Obj _ as j) -> Spt_obs.Json.set ("depth", depth) j
      | Ok _ | Error _ ->
        Report.bench_json ~quick:true ~depth ~per_config:[] ~parallel:[] ()
    in
    Spt_obs.Json.to_file json_path summary;
    Printf.printf "\nmachine-readable summary written to %s\n" json_path;
    exit 0
  end;
  section "Evaluating the workloads under 3 compiler configurations";
  let per_config = evaluate_all () in
  let best = List.assoc "best" per_config in
  let parallel, gap = measure_parallel best in
  let feedback = feedback_comparison () in
  let profdb = profdb_generations () in
  let depth = depth_sweep () in

  (* machine-readable summary next to the text tables, one entry per
     configuration; counters are cumulative over the whole run *)
  Spt_obs.Json.to_file json_path
    (Report.bench_json ~quick ~per_config ~parallel ~gap ~feedback ~depth
       ~profdb ());
  Printf.printf "\nmachine-readable summary written to %s\n" json_path;

  section
    "Table 1: IPC of the non-SPT base reference (the IR has no no-ops to exclude)";
  print_string (Report.table1 best);

  section "Figure 14: program speedups under the three compilations";
  print_string (Report.fig14 per_config);

  section "Figure 15: breakdown of loop candidates (best compilation)";
  print_string (Report.fig15 best);

  section "Figure 16: runtime coverage of SPT loops (best compilation)";
  print_string (Report.fig16 best);

  section "Figure 17: SPT loop body sizes and pre-fork regions (best compilation)";
  print_string (Report.fig17 best);

  section "Figure 18: misspeculation ratio and per-loop speedup (best compilation)";
  print_string (Report.fig18 best);

  section "Figure 19: estimated misspeculation cost vs actual re-execution ratio";
  print_string (Report.fig19 best);

  if not quick then begin
    ablation_inlining ();
    ablation_cost_rules ();
    ablation_pruning ();
    microbench ()
  end;
  section "Done"
