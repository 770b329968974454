(** Experiment reporting: regenerates every table and figure of §8 from
    evaluation results.

    Each [table1] … [fig19] function renders one experiment as an
    aligned text table (see EXPERIMENTS.md for the paper-vs-measured
    record); [fig18_rows]/[fig19_points] expose the raw per-loop series
    for tests and for correlation statistics. *)

open Spt_tlsim
open Spt_util

let pct x = Printf.sprintf "%+.1f%%" ((x -. 1.0) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Table 1: IPC of the non-SPT base reference *)

let table1 (results : (string * Pipeline.eval) list) =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "program"; "IPC (sim)"; "IPC (paper)"; "cycles" ]
  in
  List.iter
    (fun (name, (e : Pipeline.eval)) ->
      let paper =
        match List.assoc_opt name Spt_workloads.Suite.paper_ipc with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.2f" e.Pipeline.base.Tls_machine.ipc;
          paper;
          Printf.sprintf "%.0f" e.Pipeline.base.Tls_machine.cycles;
        ])
    results;
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 14: program speedups under the three compilations *)

let fig14 (per_config : (string * (string * Pipeline.eval) list) list) =
  let configs = List.map fst per_config in
  let t =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) configs)
      ("program" :: configs)
  in
  let programs =
    match per_config with [] -> [] | (_, rs) :: _ -> List.map fst rs
  in
  List.iter
    (fun prog ->
      Table.add_row t
        (prog
        :: List.map
             (fun (_, rs) ->
               match List.assoc_opt prog rs with
               | Some e -> pct e.Pipeline.speedup
               | None -> "-")
             per_config))
    programs;
  let avg rs =
    Stats.mean (List.map (fun (_, e) -> e.Pipeline.speedup) rs) |> pct
  in
  Table.add_row t ("average" :: List.map (fun (_, rs) -> avg rs) per_config);
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 15: breakdown of loop candidates *)

type breakdown = {
  total : int;
  valid : int;
  many_vcs : int;
  small_body : int;
  large_body : int;
  small_trip : int;
  high_cost : int;
  untransformable : int;
  nested : int;
}

let breakdown_of (loops : Pipeline.loop_record list) =
  let z =
    {
      total = 0;
      valid = 0;
      many_vcs = 0;
      small_body = 0;
      large_body = 0;
      small_trip = 0;
      high_cost = 0;
      untransformable = 0;
      nested = 0;
    }
  in
  List.fold_left
    (fun acc (lr : Pipeline.loop_record) ->
      let acc = { acc with total = acc.total + 1 } in
      match lr.Pipeline.lr_decision with
      | Pipeline.Selected -> { acc with valid = acc.valid + 1 }
      | Pipeline.Rejected r -> (
        match Spt_transform.Select.bucket_of_reason r with
        | `Many_vcs -> { acc with many_vcs = acc.many_vcs + 1 }
        | `Small_body -> { acc with small_body = acc.small_body + 1 }
        | `Large_body -> { acc with large_body = acc.large_body + 1 }
        | `Small_trip -> { acc with small_trip = acc.small_trip + 1 }
        | `High_cost -> { acc with high_cost = acc.high_cost + 1 }
        | `Untransformable -> { acc with untransformable = acc.untransformable + 1 }
        | `Nested -> { acc with nested = acc.nested + 1 }))
    z loops

let fig15 (results : (string * Pipeline.eval) list) =
  let t =
    Table.create
      ~aligns:(Table.Left :: List.init 9 (fun _ -> Table.Right))
      [
        "program"; "loops"; "valid"; "many-VCs"; "small-body"; "large-body";
        "small-trip"; "high-cost"; "untransf"; "nested";
      ]
  in
  let totals = ref (breakdown_of []) in
  List.iter
    (fun (name, (e : Pipeline.eval)) ->
      let b = breakdown_of e.Pipeline.loops in
      totals :=
        {
          total = !totals.total + b.total;
          valid = !totals.valid + b.valid;
          many_vcs = !totals.many_vcs + b.many_vcs;
          small_body = !totals.small_body + b.small_body;
          large_body = !totals.large_body + b.large_body;
          small_trip = !totals.small_trip + b.small_trip;
          high_cost = !totals.high_cost + b.high_cost;
          untransformable = !totals.untransformable + b.untransformable;
          nested = !totals.nested + b.nested;
        };
      Table.add_row t
        [
          name;
          string_of_int b.total;
          string_of_int b.valid;
          string_of_int b.many_vcs;
          string_of_int b.small_body;
          string_of_int b.large_body;
          string_of_int b.small_trip;
          string_of_int b.high_cost;
          string_of_int b.untransformable;
          string_of_int b.nested;
        ])
    results;
  let b = !totals in
  let pctof n = if b.total = 0 then "0%" else Printf.sprintf "%d%%" (100 * n / b.total) in
  Table.add_row t
    [
      "share"; "100%"; pctof b.valid; pctof b.many_vcs; pctof b.small_body;
      pctof b.large_body; pctof b.small_trip; pctof b.high_cost;
      pctof b.untransformable; pctof b.nested;
    ];
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 16: runtime coverage of SPT loops and loop counts *)

let fig16 (results : (string * Pipeline.eval) list) =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "program"; "SPT coverage"; "max loop coverage"; "#SPT loops" ]
  in
  let covs = ref [] and maxes = ref [] and counts = ref [] in
  List.iter
    (fun (name, (e : Pipeline.eval)) ->
      let cov =
        if e.Pipeline.spt.Tls_machine.cycles > 0.0 then
          e.Pipeline.spt.Tls_machine.spt_cycles_total
          /. e.Pipeline.spt.Tls_machine.cycles
        else 0.0
      in
      let max_cov =
        if e.Pipeline.base.Tls_machine.cycles > 0.0 then
          e.Pipeline.base.Tls_machine.eligible_loop_cycles
          /. e.Pipeline.base.Tls_machine.cycles
        else 0.0
      in
      covs := cov :: !covs;
      maxes := max_cov :: !maxes;
      counts := float_of_int e.Pipeline.n_spt_loops :: !counts;
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f%%" (100.0 *. cov);
          Printf.sprintf "%.0f%%" (100.0 *. max_cov);
          string_of_int e.Pipeline.n_spt_loops;
        ])
    results;
  Table.add_row t
    [
      "average";
      Printf.sprintf "%.0f%%" (100.0 *. Stats.mean !covs);
      Printf.sprintf "%.0f%%" (100.0 *. Stats.mean !maxes);
      Printf.sprintf "%.1f" (Stats.mean !counts);
    ];
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 17: SPT loop body sizes and pre-fork fractions *)

let selected_loops (e : Pipeline.eval) =
  List.filter
    (fun (lr : Pipeline.loop_record) -> lr.Pipeline.lr_decision = Pipeline.Selected)
    e.Pipeline.loops

let fig17 (results : (string * Pipeline.eval) list) =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "program"; "avg body size"; "avg pre-fork"; "pre-fork %" ]
  in
  let all_sizes = ref [] and all_pf = ref [] in
  List.iter
    (fun (name, e) ->
      let sel = selected_loops e in
      let sizes = List.map (fun lr -> lr.Pipeline.lr_body_size) sel in
      let pfs =
        List.filter_map
          (fun lr ->
            Option.map float_of_int lr.Pipeline.lr_prefork_size)
          sel
      in
      all_sizes := sizes @ !all_sizes;
      all_pf := pfs @ !all_pf;
      if sel = [] then Table.add_row t [ name; "-"; "-"; "-" ]
      else
        Table.add_row t
          [
            name;
            Printf.sprintf "%.0f" (Stats.mean sizes);
            Printf.sprintf "%.1f" (Stats.mean pfs);
            Printf.sprintf "%.0f%%"
              (100.0 *. Stats.mean pfs /. Float.max 1.0 (Stats.mean sizes));
          ])
    results;
  (match (!all_sizes, !all_pf) with
  | [], _ | _, [] -> ()
  | sizes, pfs ->
    Table.add_row t
      [
        "average";
        Printf.sprintf "%.0f" (Stats.mean sizes);
        Printf.sprintf "%.1f" (Stats.mean pfs);
        Printf.sprintf "%.0f%%"
          (100.0 *. Stats.mean pfs /. Float.max 1.0 (Stats.mean sizes));
      ]);
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 18: per-loop misspeculation ratio and loop speedup *)

type fig18_row = {
  f18_program : string;
  f18_loop : string;
  f18_misspec_ratio : float;  (** re-executed / speculated computation *)
  f18_loop_speedup : float;
  f18_violated_pair_ratio : float;
}

let fig18_rows (results : (string * Pipeline.eval) list) =
  List.concat_map
    (fun (name, (e : Pipeline.eval)) ->
      List.filter_map
        (fun (lr : Pipeline.loop_record) ->
          match lr.Pipeline.lr_loop_id with
          | Some id -> (
            match List.assoc_opt id e.Pipeline.spt.Tls_machine.loop_metrics with
            | Some lm when lm.Tls_machine.lm_iterations > 0 ->
              let misspec =
                if lm.Tls_machine.lm_spec_units > 0.0 then
                  lm.Tls_machine.lm_reexec_units /. lm.Tls_machine.lm_spec_units
                else 0.0
              in
              let speedup =
                if lm.Tls_machine.lm_spt_cycles > 0.0 then
                  lm.Tls_machine.lm_serial_est /. lm.Tls_machine.lm_spt_cycles
                else 1.0
              in
              let vr =
                if lm.Tls_machine.lm_pairs > 0 then
                  float_of_int lm.Tls_machine.lm_violated_pairs
                  /. float_of_int lm.Tls_machine.lm_pairs
                else 0.0
              in
              Some
                {
                  f18_program = name;
                  f18_loop =
                    Printf.sprintf "%s@bb%d" lr.Pipeline.lr_func
                      lr.Pipeline.lr_header;
                  f18_misspec_ratio = misspec;
                  f18_loop_speedup = speedup;
                  f18_violated_pair_ratio = vr;
                }
            | _ -> None)
          | None -> None)
        e.Pipeline.loops)
    results

let fig18 results =
  let rows = fig18_rows results in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "program"; "loop"; "misspec ratio"; "loop speedup"; "violated pairs" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.f18_program;
          r.f18_loop;
          Printf.sprintf "%.1f%%" (100.0 *. r.f18_misspec_ratio);
          pct r.f18_loop_speedup;
          Printf.sprintf "%.1f%%" (100.0 *. r.f18_violated_pair_ratio);
        ])
    rows;
  (match rows with
  | [] -> ()
  | _ ->
    Table.add_row t
      [
        "average";
        "";
        Printf.sprintf "%.1f%%"
          (100.0 *. Stats.mean (List.map (fun r -> r.f18_misspec_ratio) rows));
        pct (Stats.mean (List.map (fun r -> r.f18_loop_speedup) rows));
        Printf.sprintf "%.1f%%"
          (100.0
          *. Stats.mean (List.map (fun r -> r.f18_violated_pair_ratio) rows));
      ]);
  Table.render t

(* ------------------------------------------------------------------ *)
(* Fig. 19: estimated misspeculation cost vs actual re-execution ratio *)

type fig19_point = {
  f19_program : string;
  f19_loop : string;
  f19_estimated : float;  (** cost / body size — per-iteration fraction *)
  f19_actual : float;  (** measured re-execution ratio *)
}

let fig19_points (results : (string * Pipeline.eval) list) =
  List.concat_map
    (fun (name, (e : Pipeline.eval)) ->
      List.filter_map
        (fun (lr : Pipeline.loop_record) ->
          match (lr.Pipeline.lr_loop_id, lr.Pipeline.lr_cost) with
          | Some id, Some cost -> (
            match List.assoc_opt id e.Pipeline.spt.Tls_machine.loop_metrics with
            | Some lm when lm.Tls_machine.lm_spec_units > 0.0 ->
              Some
                {
                  f19_program = name;
                  f19_loop =
                    Printf.sprintf "%s@bb%d" lr.Pipeline.lr_func
                      lr.Pipeline.lr_header;
                  f19_estimated =
                    Spt_cost.Cost_model.predicted_fraction ~cost
                      ~body_size:lr.Pipeline.lr_body_size;
                  f19_actual =
                    lm.Tls_machine.lm_reexec_units /. lm.Tls_machine.lm_spec_units;
                }
            | _ -> None)
          | _ -> None)
        e.Pipeline.loops)
    results

let fig19 results =
  let pts = fig19_points results in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "program"; "loop"; "estimated cost"; "actual re-exec" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.f19_program;
          p.f19_loop;
          Printf.sprintf "%.3f" p.f19_estimated;
          Printf.sprintf "%.3f" p.f19_actual;
        ])
    pts;
  let corr =
    match pts with
    | [] | [ _ ] -> 0.0
    | _ ->
      Stats.pearson
        (List.map (fun p -> p.f19_estimated) pts)
        (List.map (fun p -> p.f19_actual) pts)
  in
  Table.render t
  ^ Printf.sprintf "correlation (Pearson): %.2f  (points: %d)\n" corr
      (List.length pts)

(* ------------------------------------------------------------------ *)
(* Machine-readable summaries (the --metrics / BENCH_*.json payload) *)

module Json = Spt_obs.Json

let json_opt of_v = function None -> Json.Null | Some v -> of_v v

let loop_json (e : Pipeline.eval) (lr : Pipeline.loop_record) =
  let runtime =
    match lr.Pipeline.lr_loop_id with
    | None -> []
    | Some id -> (
      match List.assoc_opt id e.Pipeline.spt.Tls_machine.loop_metrics with
      | None -> []
      | Some lm ->
        [
          ("iterations", Json.Int lm.Tls_machine.lm_iterations);
          ("pairs", Json.Int lm.Tls_machine.lm_pairs);
          ("violated_pairs", Json.Int lm.Tls_machine.lm_violated_pairs);
          ("reg_violations", Json.Int lm.Tls_machine.lm_reg_violations);
          ("mem_violations", Json.Int lm.Tls_machine.lm_mem_violations);
          ( "misspec_ratio",
            Json.Float
              (if lm.Tls_machine.lm_spec_units > 0.0 then
                 lm.Tls_machine.lm_reexec_units /. lm.Tls_machine.lm_spec_units
               else 0.0) );
          ( "loop_speedup",
            Json.Float
              (if lm.Tls_machine.lm_spt_cycles > 0.0 then
                 lm.Tls_machine.lm_serial_est /. lm.Tls_machine.lm_spt_cycles
               else 1.0) );
        ])
  in
  Json.Obj
    ([
       ("func", Json.Str lr.Pipeline.lr_func);
       ("header", Json.Int lr.Pipeline.lr_header);
       ( "origin",
         match lr.Pipeline.lr_origin with
         | Some `For -> Json.Str "for"
         | Some `While -> Json.Str "while"
         | Some `Do -> Json.Str "do"
         | None -> Json.Null );
       ("body_size", Json.Float lr.Pipeline.lr_body_size);
       ("static_size", Json.Int lr.Pipeline.lr_static_size);
       ("trip", Json.Float lr.Pipeline.lr_trip);
       ("weight", Json.Int lr.Pipeline.lr_weight);
       ( "decision",
         match lr.Pipeline.lr_decision with
         | Pipeline.Selected -> Json.Str "selected"
         | Pipeline.Rejected r ->
           Json.Str (Spt_transform.Select.string_of_reason r) );
       ("cost", json_opt (fun c -> Json.Float c) lr.Pipeline.lr_cost);
       ( "prefork_size",
         json_opt (fun s -> Json.Int s) lr.Pipeline.lr_prefork_size );
       ("loop_id", json_opt (fun i -> Json.Int i) lr.Pipeline.lr_loop_id);
       ("svp", Json.Bool lr.Pipeline.lr_svp);
       ( "vcs",
         Json.List
           (List.map
              (fun (iid, region, prob) ->
                Json.Obj
                  [
                    ("iid", Json.Int iid);
                    ("region", json_opt (fun s -> Json.Int s) region);
                    ("prob", Json.Float prob);
                  ])
              lr.Pipeline.lr_vcs) );
       ( "chosen_vcs",
         Json.List (List.map (fun v -> Json.Int v) lr.Pipeline.lr_chosen) );
     ]
    @ runtime)

let breakdown_json b =
  Json.Obj
    [
      ("total", Json.Int b.total);
      ("valid", Json.Int b.valid);
      ("many_vcs", Json.Int b.many_vcs);
      ("small_body", Json.Int b.small_body);
      ("large_body", Json.Int b.large_body);
      ("small_trip", Json.Int b.small_trip);
      ("high_cost", Json.Int b.high_cost);
      ("untransformable", Json.Int b.untransformable);
      ("nested", Json.Int b.nested);
    ]

let eval_json ~name (e : Pipeline.eval) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("config", Json.Str e.Pipeline.config_name);
      ("speedup", Json.Float e.Pipeline.speedup);
      ("outputs_match", Json.Bool e.Pipeline.outputs_match);
      ("n_spt_loops", Json.Int e.Pipeline.n_spt_loops);
      ( "base",
        Json.Obj
          [
            ("cycles", Json.Float e.Pipeline.base.Tls_machine.cycles);
            ("instrs", Json.Int e.Pipeline.base.Tls_machine.instrs);
            ("ipc", Json.Float e.Pipeline.base.Tls_machine.ipc);
          ] );
      ( "spt",
        Json.Obj
          [
            ("cycles", Json.Float e.Pipeline.spt.Tls_machine.cycles);
            ("instrs", Json.Int e.Pipeline.spt.Tls_machine.instrs);
            ("ipc", Json.Float e.Pipeline.spt.Tls_machine.ipc);
            ( "spt_cycles_total",
              Json.Float e.Pipeline.spt.Tls_machine.spt_cycles_total );
          ] );
      ("breakdown", breakdown_json (breakdown_of e.Pipeline.loops));
      ("loops", Json.List (List.map (loop_json e) e.Pipeline.loops));
    ]

(* the profile-guided feedback loop's counters, pulled from the metrics
   registry (zero when the feedback subsystem is not linked or idle);
   the per-loop observed kill rates live in the runtime section
   ({!Spt_runtime.Runtime.stats_json}) *)
let feedback_json () =
  let c name =
    match Spt_obs.Metrics.get name with
    | Some (Spt_obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  Json.Obj
    [
      ("profiles_loaded", Json.Int (c "feedback.profiles_loaded"));
      ("profiles_merged", Json.Int (c "feedback.profiles_merged"));
      ("divergences", Json.Int (c "feedback.divergences"));
      ("adapt_iterations", Json.Int (c "feedback.adapt_iterations"));
    ]

let metrics_json_of ?(runtime = []) (evals : Json.t list) =
  Json.Obj
    ([
       ("schema", Json.Str "spt-metrics-v1");
       ("workloads", Json.List evals);
     ]
    @ (if runtime = [] then [] else [ ("runtime", Json.List runtime) ])
    @ [
        ("feedback", feedback_json ());
        ("counters", Spt_obs.Metrics.to_json ());
      ])

let metrics_json ?(parallel = []) (results : (string * Pipeline.eval) list) =
  metrics_json_of
    ~runtime:
      (List.map
         (fun (name, (r : Spt_runtime.Runtime.result)) ->
           Json.prepend ("workload", Json.Str name)
             (Spt_runtime.Runtime.stats_json r))
         parallel)
    (List.map (fun (name, e) -> eval_json ~name e) results)

let bench_json ?(feedback = []) ?(gap = []) ?depth ?profdb ~quick ~per_config
    ~parallel () =
  Json.Obj
    ([
       ("schema", Json.Str "spt-bench-v2");
       ("quick", Json.Bool quick);
       ( "configs",
         Json.List
           (List.map
              (fun (cname, results) ->
                Json.prepend ("config", Json.Str cname) (metrics_json results))
              per_config) );
       ("parallel", Json.List parallel);
     ]
    @ (if gap = [] then [] else [ ("gap", Json.List gap) ])
    @ (match depth with Some d -> [ ("depth", d) ] | None -> [])
    @ (match profdb with Some p -> [ ("profdb", p) ] | None -> [])
    @ [ ("feedback", Json.List feedback) ])

(** One row of the bench's depth sweep ([spt-depth-v1]): one forced
    speculation depth, its median wall time and the spread around it,
    and the speedup and the runtime's misspeculation and
    value-prediction counters of the median run. *)
let depth_row ~depth ~wall_s ~wall_iqr_s ~speedup ~commits ~kills
    ~violations ~despecs ~svp =
  let predicts, hits, mispredicts = svp in
  Json.Obj
    [
      ("depth", Json.Int depth);
      ("wall_s", Json.Float wall_s);
      ("wall_iqr_s", Json.Float wall_iqr_s);
      ("speedup", Json.Float speedup);
      ("commits", Json.Int commits);
      ("kills", Json.Int kills);
      ("violations", Json.Int violations);
      ("despecs", Json.Int despecs);
      ("svp_predicts", Json.Int predicts);
      ("svp_hits", Json.Int hits);
      ("svp_mispredicts", Json.Int mispredicts);
    ]

(** The bench's [spt-depth-v1] section: the sweep rows plus the
    accumulator sub-result (the workload whose loop-carried sum must
    stay speculative through runtime value prediction).  [cores] is the
    machine's usable core count — on a box with fewer cores than
    domains, a deeper pipeline measures its own overhead rather than a
    speedup, and consumers (the smoke check, [dune build @smoke]) scale
    their assertions by this field. *)
let depth_json ~workload ~jobs ~cores ~rounds ?accumulator rows =
  Json.Obj
    ([
       ("schema", Json.Str "spt-depth-v1");
       ("workload", Json.Str workload);
       ("jobs", Json.Int jobs);
       ("cores", Json.Int cores);
       ("rounds", Json.Int rounds);
       ("rows", Json.List rows);
     ]
    @ match accumulator with Some a -> [ ("accumulator", a) ] | None -> [])

(* ------------------------------------------------------------------ *)
(* Overhead attribution (spt-attrib-v1): where a parallel run's wall
   time went, per domain, bucketed into the speculation lifecycle, and
   how far the measured speedup fell from the prediction. *)

module Timeline = Spt_obs.Timeline

let bucket_names =
  [
    "compile"; "dispatch"; "inline"; "chunk"; "svp"; "fork"; "validate";
    "commit"; "rollback";
  ]

(* exec time is the engine dispatching the chunk's instructions, split
   from the one-off compile-to-bytecode cost; inline is the sequential
   thread running a round's head chunks itself; chunk is the sequential
   thread predicting the next chunk's pre-fork backbone; svp is value
   predictions injected into that backbone; kills and serial
   re-executions are both prices of misspeculation, so they land in the
   rollback bucket *)
let bucket_of_kind = function
  | Timeline.Compile -> "compile"
  | Timeline.Exec -> "dispatch"
  | Timeline.Inline -> "inline"
  | Timeline.Chunk -> "chunk"
  | Timeline.Svp -> "svp"
  | Timeline.Fork -> "fork"
  | Timeline.Validate -> "validate"
  | Timeline.Commit -> "commit"
  | Timeline.Rollback | Timeline.Reexec | Timeline.Kill -> "rollback"

let lane_buckets (lane : Timeline.lane_summary) =
  List.map
    (fun b ->
      ( b,
        List.fold_left
          (fun acc (k, s, _) -> if bucket_of_kind k = b then acc +. s else acc)
          0.0 lane.Timeline.ls_by_kind ))
    bucket_names

let gap_json ?predicted ~measured () =
  Json.Obj
    [
      ( "predicted_speedup",
        match predicted with Some p -> Json.Float p | None -> Json.Null );
      ("measured_speedup", Json.Float measured);
      ( "achieved_fraction",
        match predicted with
        | Some p when p > 0.0 -> Json.Float (measured /. p)
        | _ -> Json.Null );
    ]

let attrib_json ?predicted ~workload ~timeline (pr : Pipeline.parallel_run) =
  let wall = pr.Pipeline.pr_runtime.Spt_runtime.Runtime.wall_time in
  let lanes = Timeline.summary timeline in
  let n_lanes = List.length lanes in
  let idle_of busy = Float.max 0.0 (wall -. busy) in
  let domain_json (lane : Timeline.lane_summary) =
    let buckets = lane_buckets lane in
    let busy = lane.Timeline.ls_busy_s in
    Json.Obj
      [
        ("domain", Json.Str (Printf.sprintf "lane-%d" lane.Timeline.ls_lane));
        ("busy_s", Json.Float busy);
        ( "buckets",
          Json.Obj
            (List.map (fun (b, s) -> (b, Json.Float s)) buckets
            @ [ ("idle", Json.Float (idle_of busy)) ]) );
        ("events", Json.Int lane.Timeline.ls_events);
        ("dropped", Json.Int lane.Timeline.ls_dropped);
      ]
  in
  let total b =
    List.fold_left
      (fun acc lane -> acc +. List.assoc b (lane_buckets lane))
      0.0 lanes
  in
  let total_idle =
    List.fold_left
      (fun acc lane -> acc +. idle_of lane.Timeline.ls_busy_s)
      0.0 lanes
  in
  (* buckets-sum / (wall x lanes): how much of the domains' wall time
     the attribution accounts for (busy clamped to the wall, so a lane
     cannot account for more than the run took) *)
  let accounted =
    List.fold_left
      (fun acc lane ->
        let busy = lane.Timeline.ls_busy_s in
        acc +. Float.min busy wall +. idle_of busy)
      0.0 lanes
  in
  let coverage =
    if n_lanes = 0 || wall <= 0.0 then 1.0
    else accounted /. (wall *. float_of_int n_lanes)
  in
  let iter_hist = Spt_obs.Metrics.Hist.create () in
  Timeline.iter_events timeline (fun k ~lane:_ ~lid:_ ~t0 ~t1 ->
      if k = Timeline.Exec then
        Spt_obs.Metrics.Hist.observe iter_hist (t1 -. t0));
  let overhead = Timeline.overhead_s timeline in
  Json.Obj
    [
      ("schema", Json.Str "spt-attrib-v1");
      ("workload", Json.Str workload);
      ("jobs", Json.Int pr.Pipeline.pr_jobs);
      ("workers", Json.Int pr.Pipeline.pr_runtime.Spt_runtime.Runtime.workers);
      ( "chunk",
        match pr.Pipeline.pr_chunk with
        | Some n -> Json.Int n
        | None -> Json.Str "auto" );
      ( "depth",
        match pr.Pipeline.pr_depth with
        | Some k -> Json.Int k
        | None -> Json.Str "auto" );
      ("n_spt_loops", Json.Int pr.Pipeline.pr_n_loops);
      ("wall_s", Json.Float wall);
      ("seq_wall_s", Json.Float pr.Pipeline.pr_seq_wall);
      ("gap", gap_json ?predicted ~measured:pr.Pipeline.pr_measured_speedup ());
      ("domains", Json.List (List.map domain_json lanes));
      ( "totals",
        Json.Obj
          (List.map (fun b -> (b, Json.Float (total b))) bucket_names
          @ [ ("idle", Json.Float total_idle) ]) );
      ("coverage", Json.Float coverage);
      ("iter_latency_s", Spt_obs.Metrics.Hist.to_json iter_hist);
      ("events", Json.Int (Timeline.events timeline));
      ("dropped", Json.Int (Timeline.dropped timeline));
      ("overhead_s", Json.Float overhead);
      ( "overhead_fraction",
        Json.Float (if wall > 0.0 then overhead /. wall else 0.0) );
    ]

(* ------------------------------------------------------------------ *)
(* [sptc top]: offline rendering of the JSON reports as text tables *)

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let num0 j = Option.value ~default:0.0 (num j)
let str_of = function Some (Json.Str s) -> s | _ -> "-"

let fmt_s s =
  if Float.abs s >= 1.0 then Printf.sprintf "%.3fs" s
  else if Float.abs s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let latency_line j =
  Printf.sprintf
    "count %.0f  mean %s  p50 %s  p95 %s  p99 %s  max %s"
    (num0 (Json.member "count" j))
    (fmt_s (num0 (Json.member "mean" j)))
    (fmt_s (num0 (Json.member "p50" j)))
    (fmt_s (num0 (Json.member "p95" j)))
    (fmt_s (num0 (Json.member "p99" j)))
    (fmt_s (num0 (Json.member "max" j)))

let top_attrib j =
  let buf = Buffer.create 512 in
  let wall = num0 (Json.member "wall_s" j) in
  Buffer.add_string buf
    (Printf.sprintf
       "workload %s: %d job(s) on %d worker(s), %d SPT loop(s), wall %s (seq \
        %s)\n"
       (str_of (Json.member "workload" j))
       (int_of_float (num0 (Json.member "jobs" j)))
       (int_of_float (num0 (Json.member "workers" j)))
       (int_of_float (num0 (Json.member "n_spt_loops" j)))
       (fmt_s wall)
       (fmt_s (num0 (Json.member "seq_wall_s" j))));
  (match Json.member "chunk" j with
  | Some (Json.Int n) -> Buffer.add_string buf (Printf.sprintf "chunk %d\n" n)
  | Some (Json.Str s) -> Buffer.add_string buf ("chunk " ^ s ^ "\n")
  | _ -> ());
  (match Json.member "gap" j with
  | Some gap ->
    let measured = num0 (Json.member "measured_speedup" gap) in
    Buffer.add_string buf
      (match num (Json.member "predicted_speedup" gap) with
      | Some p ->
        Printf.sprintf
          "speedup: predicted %.2fx, measured %.2fx (%.0f%% of prediction)\n"
          p measured
          (100.0 *. num0 (Json.member "achieved_fraction" gap))
      | None -> Printf.sprintf "speedup: measured %.2fx\n" measured)
  | None -> ());
  let cols = bucket_names @ [ "idle" ] in
  let t =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (cols @ [ "" ]))
      ("domain" :: cols @ [ "busy" ])
  in
  let row label buckets busy =
    Table.add_row t
      (label
      :: List.map (fun b -> fmt_s (num0 (Json.member b buckets))) cols
      @ [ fmt_s busy ])
  in
  (match Json.member "domains" j with
  | Some (Json.List ds) ->
    List.iter
      (fun d ->
        match Json.member "buckets" d with
        | Some buckets ->
          row (str_of (Json.member "domain" d)) buckets
            (num0 (Json.member "busy_s" d))
        | None -> ())
      ds
  | _ -> ());
  (match Json.member "totals" j with
  | Some totals ->
    let busy =
      List.fold_left (fun acc b -> acc +. num0 (Json.member b totals)) 0.0
        bucket_names
    in
    row "total" totals busy
  | None -> ());
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf
    (Printf.sprintf "coverage %.1f%%  (%d events, %d dropped, overhead %.2f%%)\n"
       (100.0 *. num0 (Json.member "coverage" j))
       (int_of_float (num0 (Json.member "events" j)))
       (int_of_float (num0 (Json.member "dropped" j)))
       (100.0 *. num0 (Json.member "overhead_fraction" j)));
  (match Json.member "iter_latency_s" j with
  | Some h -> Buffer.add_string buf ("iter latency: " ^ latency_line h ^ "\n")
  | None -> ());
  Buffer.contents buf

let top_metrics j =
  let buf = Buffer.create 512 in
  (match Json.member "counters" j with
  | Some (Json.Obj fields) ->
    let t =
      Table.create ~aligns:[ Table.Left; Table.Right ] [ "metric"; "value" ]
    in
    List.iter
      (fun (name, v) ->
        let rendered =
          match v with
          | Json.Int i -> string_of_int i
          | Json.Float f -> Printf.sprintf "%g" f
          | Json.Obj _ ->
            Printf.sprintf "n=%.0f mean %s p95 %s"
              (num0 (Json.member "count" v))
              (fmt_s (num0 (Json.member "mean" v)))
              (fmt_s (num0 (Json.member "p95" v)))
          | _ -> "-"
        in
        Table.add_row t [ name; rendered ])
      fields;
    Buffer.add_string buf (Table.render t)
  | _ -> Buffer.add_string buf "(no counters section)\n");
  Buffer.contents buf

let top_batch j =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "batch: %.0f file(s), %.0f ok, %.0f failed, %.0f timed out; hit rate \
        %.0f%%; wall %s\n"
       (num0 (Json.member "files" j))
       (num0 (Json.member "ok" j))
       (num0 (Json.member "failed" j))
       (num0 (Json.member "timed_out" j))
       (100.0 *. num0 (Json.member "hit_rate" j))
       (fmt_s (num0 (Json.member "wall_s" j))));
  (match Json.member "latency_s" j with
  | Some h -> Buffer.add_string buf ("job latency: " ^ latency_line h ^ "\n")
  | None -> ());
  (match Json.member "results" j with
  | Some (Json.List rs) ->
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Right ]
        [ "file"; "status"; "elapsed" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            str_of (Json.member "file" r);
            (let s = str_of (Json.member "status" r) in
             match Json.member "cache_hit" r with
             | Some (Json.Bool true) -> s ^ " (hit)"
             | _ -> s);
            (match num (Json.member "elapsed_s" r) with
            | Some e -> fmt_s e
            | None -> "-");
          ])
      rs;
    Buffer.add_string buf (Table.render t)
  | _ -> ());
  Buffer.contents buf

(* spt-profdb-v1 renders in two shapes: the database census (`sptc
   profdb stat --json`, serve stats) and the bench's repeated-workload
   generations scenario, which embeds a census under "db".  Render
   whichever parts are present. *)
let top_profdb j =
  let buf = Buffer.create 512 in
  (match Json.member "generations" j with
  | Some (Json.List rows) when rows <> [] ->
    Buffer.add_string buf
      (Printf.sprintf
         "misspeculation across generations (workload %s, %d job(s))\n"
         (str_of (Json.member "workload" j))
         (int_of_float (num0 (Json.member "jobs" j))));
    let t =
      Table.create
        ~aligns:
          [
            Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
            Table.Right;
          ]
        [ "gen"; "guided"; "spt loops"; "misspec"; "cost"; "speedup" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            string_of_int (int_of_float (num0 (Json.member "generation" r)));
            (match Json.member "guided" r with
            | Some (Json.Bool true) -> "yes"
            | _ -> "no");
            string_of_int (int_of_float (num0 (Json.member "n_spt_loops" r)));
            string_of_int (int_of_float (num0 (Json.member "misspec_events" r)));
            string_of_int (int_of_float (num0 (Json.member "misspec_cost" r)));
            Printf.sprintf "%.2fx" (num0 (Json.member "measured_speedup" r));
          ])
      rows;
    Buffer.add_string buf (Table.render t)
  | _ -> ());
  let census = match Json.member "db" j with Some d -> d | None -> j in
  (match Json.member "entries" census with
  | Some _ ->
    Buffer.add_string buf
      (Printf.sprintf
         "profile db: %s; tool %s, decay %.2f; %d entr(ies) (%d invalid), %d \
          byte(s)\n"
         (str_of (Json.member "dir" census))
         (str_of (Json.member "tool" census))
         (num0 (Json.member "decay" census))
         (int_of_float (num0 (Json.member "entries" census)))
         (int_of_float (num0 (Json.member "invalid" census)))
         (int_of_float (num0 (Json.member "bytes" census))));
    Buffer.add_string buf
      (Printf.sprintf
         "lookups %d (hits %d, misses %d); ingests %d, publishes %d, \
          evictions %d, rejected %d\n"
         (int_of_float (num0 (Json.member "lookups" census)))
         (int_of_float (num0 (Json.member "hits" census)))
         (int_of_float (num0 (Json.member "misses" census)))
         (int_of_float (num0 (Json.member "ingests" census)))
         (int_of_float (num0 (Json.member "publishes" census)))
         (int_of_float (num0 (Json.member "evictions" census)))
         (int_of_float (num0 (Json.member "rejected" census))));
    (match Json.member "profiles" census with
    | Some (Json.List rows) when rows <> [] ->
      let t =
        Table.create
          ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
          [ "fingerprint"; "gen"; "loops"; "bytes" ]
      in
      List.iter
        (fun r ->
          let fp = str_of (Json.member "fingerprint" r) in
          Table.add_row t
            [
              (if String.length fp > 12 then String.sub fp 0 12 else fp);
              string_of_int (int_of_float (num0 (Json.member "generation" r)));
              string_of_int (int_of_float (num0 (Json.member "loops" r)));
              string_of_int (int_of_float (num0 (Json.member "bytes" r)));
            ])
        rows;
      Buffer.add_string buf (Table.render t)
    | _ -> ())
  | None -> ());
  Buffer.contents buf

(* spt-depth-v1: the bench's K-deep pipelining sweep — one row per
   forced depth, plus the accumulator workload the runtime value
   predictor must keep speculative. *)
let top_depth j =
  let buf = Buffer.create 512 in
  (match Json.member "rows" j with
  | Some (Json.List rows) when rows <> [] ->
    Buffer.add_string buf
      (Printf.sprintf "depth sweep (workload %s, %d job(s)%s%s)\n"
         (str_of (Json.member "workload" j))
         (int_of_float (num0 (Json.member "jobs" j)))
         (match Json.member "cores" j with
         | Some (Json.Int c) -> Printf.sprintf ", %d core(s)" c
         | _ -> "")
         (match Json.member "rounds" j with
         | Some (Json.Int n) -> Printf.sprintf ", median of %d round(s)" n
         | _ -> ""));
    let t =
      Table.create
        ~aligns:
          [
            Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
            Table.Right; Table.Right; Table.Right;
          ]
        [ "depth"; "wall"; "iqr"; "speedup"; "commits"; "kills";
          "violations"; "svp hit" ]
    in
    List.iter
      (fun r ->
        let inti k = int_of_float (num0 (Json.member k r)) in
        let predicts = num0 (Json.member "svp_predicts" r)
        and hits = num0 (Json.member "svp_hits" r) in
        Table.add_row t
          [
            string_of_int (inti "depth");
            fmt_s (num0 (Json.member "wall_s" r));
            (match num (Json.member "wall_iqr_s" r) with
            | Some q -> fmt_s q
            | None -> "-");
            Printf.sprintf "%.2fx" (num0 (Json.member "speedup" r));
            string_of_int (inti "commits");
            string_of_int (inti "kills");
            string_of_int (inti "violations");
            (if predicts > 0.0 then
               Printf.sprintf "%.0f%%" (100.0 *. hits /. predicts)
             else "-");
          ])
      rows;
    Buffer.add_string buf (Table.render t)
  | _ -> ());
  (match Json.member "accumulator" j with
  | Some a ->
    Buffer.add_string buf
      (Printf.sprintf
         "accumulator (%s): depth %d, despecs %d, svp %d/%d hit(s)\n"
         (str_of (Json.member "workload" a))
         (int_of_float (num0 (Json.member "depth" a)))
         (int_of_float (num0 (Json.member "despecs" a)))
         (int_of_float (num0 (Json.member "svp_hits" a)))
         (int_of_float (num0 (Json.member "svp_predicts" a))))
  | None -> ());
  Buffer.contents buf

let top_bench j =
  let buf = Buffer.create 512 in
  (match Json.member "gap" j with
  | Some (Json.List rows) when rows <> [] ->
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        [ "workload"; "predicted"; "measured"; "achieved" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            str_of (Json.member "workload" r);
            (match num (Json.member "predicted_speedup" r) with
            | Some p -> Printf.sprintf "%.2fx" p
            | None -> "-");
            Printf.sprintf "%.2fx" (num0 (Json.member "measured_speedup" r));
            (match num (Json.member "achieved_fraction" r) with
            | Some f -> Printf.sprintf "%.0f%%" (100.0 *. f)
            | None -> "-");
          ])
      rows;
    Buffer.add_string buf "predicted vs measured speedup (gap)\n";
    Buffer.add_string buf (Table.render t)
  | _ -> Buffer.add_string buf "(no gap section; re-run bench/main.exe)\n");
  (match Json.member "depth" j with
  | Some d ->
    Buffer.add_string buf "speculation depth (K-deep pipelining)\n";
    Buffer.add_string buf (top_depth d)
  | None -> ());
  (match Json.member "profdb" j with
  | Some p ->
    Buffer.add_string buf "profile database (fleet feedback)\n";
    Buffer.add_string buf (top_profdb p)
  | None -> ());
  Buffer.contents buf

let top_text j =
  match Json.member "schema" j with
  | Some (Json.Str "spt-attrib-v1") -> Ok (top_attrib j)
  | Some (Json.Str "spt-metrics-v1") -> Ok (top_metrics j)
  | Some (Json.Str "spt-batch-v1") -> Ok (top_batch j)
  | Some (Json.Str "spt-profdb-v1") -> Ok (top_profdb j)
  | Some (Json.Str "spt-depth-v1") -> Ok (top_depth j)
  | Some (Json.Str "spt-bench-v2") -> Ok (top_bench j)
  | Some (Json.Str s) -> Error (Printf.sprintf "unsupported schema %S" s)
  | _ -> Error "not an spt report (no \"schema\" field)"

(* ------------------------------------------------------------------ *)
(* The [sptc compile] report text.

   This is the one renderer of the human-readable compile summary: the
   CLI prints it and the artifact cache stores it verbatim, so a warm
   compile replays byte-identical output. *)

let compile_text ~name (e : Pipeline.eval) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "configuration    : %s\n" e.Pipeline.config_name);
  Buffer.add_string buf
    (Printf.sprintf "outputs match    : %b\n" e.Pipeline.outputs_match);
  Buffer.add_string buf
    (Printf.sprintf "baseline cycles  : %.0f (IPC %.2f)\n"
       e.Pipeline.base.Tls_machine.cycles e.Pipeline.base.Tls_machine.ipc);
  Buffer.add_string buf
    (Printf.sprintf "SPT cycles       : %.0f\n" e.Pipeline.spt.Tls_machine.cycles);
  Buffer.add_string buf
    (Printf.sprintf "speedup          : %+.2f%%\n"
       ((e.Pipeline.speedup -. 1.0) *. 100.0));
  Buffer.add_string buf
    (Printf.sprintf "SPT loops        : %d\n" e.Pipeline.n_spt_loops);
  if e.Pipeline.n_spt_loops > 0 then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (fig18 [ (name, e) ])
  end;
  Buffer.contents buf
