(** The experiment harness: regenerates every table and figure of the
    paper's evaluation (§8) on the ten synthetic SPEC2000Int-like
    workloads, plus the ablation studies DESIGN.md calls out.

    Run with: dune exec bench/main.exe
    (set SPT_BENCH_QUICK=1 for a reduced run: three workloads, no
    ablations; SPT_BENCH_JSON overrides the machine-readable summary
    path, default BENCH_results.json next to dune-project).  The end to
    end contract checks over these sections are [dune build @smoke]
    (bench/smoke.ml). *)

open Spt_driver
open Scenarios
module Tls = Spt_tlsim.Tls_machine

let quick = Sys.getenv_opt "SPT_BENCH_QUICK" <> None

(* the summary lands next to dune-project (the committed baseline lives
   there) wherever the harness is invoked from *)
let root =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Sys.getcwd () else up parent
  in
  up (Sys.getcwd ())

let json_path =
  match Sys.getenv_opt "SPT_BENCH_JSON" with
  | Some p -> p
  | None -> Filename.concat root "BENCH_results.json"

(* the feedback demo workload (examples/src/feedback_loop.c) *)
let feedback_loop_src () =
  In_channel.with_open_bin
    (Filename.concat root "examples/src/feedback_loop.c")
    In_channel.input_all

let workloads =
  if quick then
    List.filter
      (fun w -> List.mem w.Spt_workloads.Suite.name [ "gzip"; "mcf"; "bzip2" ])
      Spt_workloads.Suite.all
  else Spt_workloads.Suite.all

let configs = [ Config.basic; Config.best; Config.anticipated ]

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

let feedback_comparison () =
  section "Feedback: static vs profile-guided misspeculation cost";
  let demo = ("feedback_loop", feedback_loop_src ()) in
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

let () =
  (* the counter dump in the JSON summary needs the registry live *)
  Spt_obs.Metrics.set_enabled true;
  section "Evaluating the workloads under 3 compiler configurations";
  let per_config = evaluate_all () in
  let best = List.assoc "best" per_config in
  let parallel, gap = measure_parallel best in
  let feedback = feedback_comparison () in
  let profdb = profdb_generations ~src:(feedback_loop_src ()) () in
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
    ablation_pruning ()
  end;
  section "Done"
