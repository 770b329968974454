(** Experiment reporting: renders each of §8's tables and figures from
    evaluation results as aligned text tables (what `bench/main.exe`
    prints and EXPERIMENTS.md records). *)

(** Table 1: base-reference IPC per program, next to the paper's. *)
val table1 : (string * Pipeline.eval) list -> string

(** Fig. 14: per-program speedups for each configuration
    ([(config name, per-program results)] outer list). *)
val fig14 : (string * (string * Pipeline.eval) list) list -> string

(** Fig. 15 buckets. *)
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

val breakdown_of : Pipeline.loop_record list -> breakdown

(** Fig. 15: breakdown of loop candidates by decision. *)
val fig15 : (string * Pipeline.eval) list -> string

(** Fig. 16: SPT runtime coverage, maximum eligible-loop coverage and
    loop counts. *)
val fig16 : (string * Pipeline.eval) list -> string

(** Fig. 17: SPT loop body sizes and pre-fork fractions. *)
val fig17 : (string * Pipeline.eval) list -> string

(** One Fig. 18 row. *)
type fig18_row = {
  f18_program : string;
  f18_loop : string;
  f18_misspec_ratio : float;
  f18_loop_speedup : float;
  f18_violated_pair_ratio : float;
}

val fig18_rows : (string * Pipeline.eval) list -> fig18_row list

(** Fig. 18: per-loop misspeculation ratio and speedup. *)
val fig18 : (string * Pipeline.eval) list -> string

(** One Fig. 19 point. *)
type fig19_point = {
  f19_program : string;
  f19_loop : string;
  f19_estimated : float;
  f19_actual : float;
}

val fig19_points : (string * Pipeline.eval) list -> fig19_point list

(** Fig. 19: estimated cost vs actual re-execution, with the Pearson
    correlation. *)
val fig19 : (string * Pipeline.eval) list -> string

(** One evaluation as a JSON object: speedup, cycle counts, the
    Fig. 15 breakdown and the per-loop records (with runtime
    misspeculation metrics where the loop was transformed). *)
val eval_json : name:string -> Pipeline.eval -> Spt_obs.Json.t

(** Machine-readable summary of a result set — the [sptc compile
    --metrics] / bench [BENCH_*.json] payload: a [workloads] array of
    {!eval_json} objects plus a [counters] dump of the full
    {!Spt_obs.Metrics} registry.  [parallel] adds a [runtime] array
    with the speculative-runtime counters (forks, commits, kills,
    violations, despeculations, per-loop wall time) of real parallel
    runs. *)
val metrics_json :
  ?parallel:(string * Spt_runtime.Runtime.result) list ->
  (string * Pipeline.eval) list ->
  Spt_obs.Json.t

(** {!metrics_json} over already-rendered {!eval_json} objects (and
    runtime-stats objects) — what cache-warm paths, which have no live
    {!Pipeline.eval} value, feed to [--metrics]. *)
val metrics_json_of : ?runtime:Spt_obs.Json.t list -> Spt_obs.Json.t list -> Spt_obs.Json.t

(** The `spt-bench-v2` summary `bench/main.exe` writes: one
    {!metrics_json} object per configuration, the measured-speedup
    records of the real parallel runs, the static-vs-profile-guided
    misspeculation-cost comparison rows ([feedback]), the
    speculation-depth sweep ([depth], an
    `spt-depth-v1` object from {!depth_json}), and the
    profile-database repeated-workload generations scenario ([profdb],
    an `spt-profdb-v1` object). *)
val bench_json :
  ?feedback:Spt_obs.Json.t list ->
  ?gap:Spt_obs.Json.t list ->
  ?depth:Spt_obs.Json.t ->
  ?profdb:Spt_obs.Json.t ->
  quick:bool ->
  per_config:(string * (string * Pipeline.eval) list) list ->
  parallel:Spt_obs.Json.t list ->
  unit ->
  Spt_obs.Json.t

(** One row of the bench [depth] section: the same workload run with
    this speculation depth forced, over several rounds — the median
    wall time [wall_s] and its interquartile range [wall_iqr_s], and
    the median run's speedup over the sequential reference and its
    runtime misspeculation and value-prediction counters ([svp] =
    predicts, hits, mispredicts). *)
val depth_row :
  depth:int ->
  wall_s:float ->
  wall_iqr_s:float ->
  speedup:float ->
  commits:int ->
  kills:int ->
  violations:int ->
  despecs:int ->
  svp:int * int * int ->
  Spt_obs.Json.t

(** The `spt-depth-v1` bench section: the sweep [rows] ({!depth_row})
    plus an optional [accumulator] sub-object asserting the
    loop-carried-accumulator workload stayed speculative (fields
    [workload], [depth], [despecs], [svp_predicts], [svp_hits]).
    [cores] records the usable core count so consumers can tell a
    measured pipelining speedup (cores > jobs) from measured pipelining
    overhead (a core-starved box); [rounds] is how many runs per depth
    each row's median is taken over. *)
val depth_json :
  workload:string ->
  jobs:int ->
  cores:int ->
  rounds:int ->
  ?accumulator:Spt_obs.Json.t ->
  Spt_obs.Json.t list ->
  Spt_obs.Json.t

(** The predicted-vs-measured speedup record shared by the attribution
    report and the bench [gap] section: [predicted_speedup] (null when
    no prediction is available), [measured_speedup] and
    [achieved_fraction] (measured / predicted). *)
val gap_json : ?predicted:float -> measured:float -> unit -> Spt_obs.Json.t

(** The `spt-attrib-v1` overhead-attribution report for one parallel
    run: per-domain wall-time buckets (dispatch / fork / validate /
    commit / rollback, plus idle as the unaccounted remainder against
    the run's wall clock), totals, the fraction of [lanes × wall] the
    buckets account for ([coverage]), an iteration-latency histogram
    built from the timeline's exec spans, the predicted-vs-measured
    [gap], and the timeline's own estimated recording overhead.
    [timeline] must be the one the run executed with (pass it to
    {!Pipeline.run_parallel}). *)
val attrib_json :
  ?predicted:float ->
  workload:string ->
  timeline:Spt_obs.Timeline.t ->
  Pipeline.parallel_run ->
  Spt_obs.Json.t

(** Render a machine-readable report (`spt-attrib-v1`, `spt-metrics-v1`,
    `spt-batch-v1`, `spt-profdb-v1`, `spt-depth-v1` or `spt-bench-v2`)
    as aligned text tables — the [sptc top] analyzer.  A bench report
    with an embedded [depth] or [profdb] section renders those too.
    [Error] explains an unknown or missing [schema] field. *)
val top_text : Spt_obs.Json.t -> (string, string) result

(** The human-readable [sptc compile] summary.  The CLI prints this and
    the artifact cache replays it verbatim on a warm hit, so cold and
    warm compiles emit byte-identical reports. *)
val compile_text : name:string -> Pipeline.eval -> string
