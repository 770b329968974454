(** The two-pass SPT compilation pipeline (§3.2, Fig. 4) and the
    evaluation harness around it: front end → unrolling → SSA +
    clean-up → profiling → pass 1 (optimal partition per loop) → SVP on
    costly loops with re-profiling → pass 2 (global selection, SPT
    transformation) → SSA destruction with carried-register coalescing
    → TLS simulation against the non-SPT baseline. *)

open Spt_ir
open Spt_transform
open Spt_tlsim

type decision = Selected | Rejected of Select.reject_reason

(** Observed runtime behaviour of one transformed loop, as exported by
    the feedback subsystem ({!Spt_feedback}) and fed back into the
    analysis: observed misspeculation rates override compile-time
    violation probabilities that diverge beyond a threshold. *)
type loop_obs = {
  ob_iters : int;  (** iterations retired *)
  ob_forks : int;
  ob_commits : int;
  ob_violations : int;  (** validation failures *)
  ob_faults : int;  (** speculative faults *)
  ob_kills : int;  (** tasks discarded behind a misspeculation *)
  ob_serial_reexecs : int;
  ob_stale_regions : (int * int) list;
      (** validation failures per store region sid *)
  ob_stale_other : int;  (** register / RNG failures (unattributable) *)
}

(** Minimum observed−predicted misspeculation-probability excess before
    a feedback override replaces the compile-time estimate (overrides
    only ever raise a probability — a candidate moved pre-fork cannot
    fail validation, so its zero observed rate is not evidence). *)
val default_divergence_threshold : float

(** One analyzed loop, as reported by the compilation (the Fig. 15–19
    record). *)
type loop_record = {
  lr_func : string;
  lr_header : int;
  lr_origin : Ir.loop_origin option;
  lr_body_size : float;  (** dynamic operations per iteration, callees included *)
  lr_static_size : int;
  lr_trip : float;  (** profiled average trip count *)
  lr_weight : int;  (** dynamic operations inside the loop *)
  lr_decision : decision;
  lr_cost : float option;  (** optimal misspeculation cost *)
  lr_prefork_size : int option;
  lr_loop_id : int option;  (** simulator id when transformed *)
  lr_svp : bool;  (** value prediction was applied *)
  lr_vcs : (int * int option * float) list;
      (** violation candidates: (iid, store-region sid, effective
          violation probability after any feedback override) *)
  lr_chosen : int list;  (** candidates moved pre-fork, when selected *)
  lr_depth : int;
      (** speculation depth priced for this loop — the forced
          [Config.depth] if any, else {!Spt_cost.Cost_model.pick_depth}
          on the optimal partition and the runtime's auto chunk
          ({!Spt_runtime.Runtime.auto_chunk}) for selected loops; 0 when
          unpriced *)
}

(** Result of evaluating one program under one configuration. *)
type eval = {
  config_name : string;
  base : Tls_machine.result;
  spt : Tls_machine.result;
  speedup : float;  (** base cycles / SPT cycles *)
  loops : loop_record list;
  outputs_match : bool;  (** transformed output equals the baseline's *)
  n_spt_loops : int;
}

(** Parse, type-check and lower MiniC source. *)
val front_end : string -> Ir.program

(** SSA-construct and optimize every function, in place. *)
val to_ssa : Ir.program -> unit

(** Destruct SSA and clean up, in place. *)
val out_of_ssa : ?phi_primed:(int -> Ir.var option) -> Ir.program -> unit

(** The non-SPT O3-style baseline build (Table 1's reference), with the
    same unrolling/inlining as the SPT build it is compared against so
    speedups measure speculation. *)
val compile_base :
  ?unroll:Unroll.policy -> ?inline:bool -> string -> Ir.program

(** Run the edge, dependence and value profilers in one probed run of
    the bytecode engine ({!Spt_exec.Engine.profile}).
    @raise Spt_interp.Interp.Runtime_error when the run fails or
    exceeds [max_steps]. *)
val profile_all :
  ?value_targets:Spt_profile.Value_profile.target list ->
  Ir.program ->
  max_steps:int ->
  Spt_profile.Edge_profile.t * Spt_profile.Dep_profile.t * Spt_profile.Value_profile.t

(** Run the front half of {!compile_spt} — front end, inlining,
    unrolling, SSA, profiling — and return the three profilers.  This
    is the program state the persistent profile store captures. *)
val profile_source :
  ?config:Config.t ->
  string ->
  Spt_profile.Edge_profile.t * Spt_profile.Dep_profile.t * Spt_profile.Value_profile.t

(** A fully SPT-compiled program with its simulator registrations and
    per-loop records. *)
type spt_compilation = {
  program : Ir.program;
  spt_loops : Tls_machine.spt_loop list;
  records : loop_record list;
}

(** [profile_seed] is called on the freshly built profilers after every
    profiling pass (including the SVP re-profile) so stored counts can
    be merged in before analysis; [observations], keyed by
    (function, loop header), injects observed misspeculation rates;
    [divergence] tunes the override threshold
    ({!default_divergence_threshold}). *)
val compile_spt :
  ?profile_seed:
    (Spt_profile.Edge_profile.t ->
    Spt_profile.Dep_profile.t ->
    Spt_profile.Value_profile.t ->
    unit) ->
  ?observations:((string * int) * loop_obs) list ->
  ?divergence:float ->
  Config.t ->
  string ->
  spt_compilation

(** The runtime registrations of a compilation's SPT loops: one
    {!Spt_runtime.Runtime.loop_spec} per simulator loop, carrying the
    cost model's per-iteration estimate (which sizes the chunk) and
    its priced depth (which bounds the epoch window); 0 for both when
    the loop has no record. *)
val loop_specs : spt_compilation -> Spt_runtime.Runtime.loop_spec list

(** Compile both ways, simulate both, compare. *)
val evaluate :
  ?config:Config.t ->
  ?profile_seed:
    (Spt_profile.Edge_profile.t ->
    Spt_profile.Dep_profile.t ->
    Spt_profile.Value_profile.t ->
    unit) ->
  ?observations:((string * int) * loop_obs) list ->
  ?divergence:float ->
  string ->
  eval

(** An SPT compilation executed for real on the speculative runtime
    ({!Spt_runtime.Runtime}), next to a sequential run of the same
    program for the measured (wall-clock) speedup. *)
type parallel_run = {
  pr_jobs : int;
  pr_chunk : int option;  (** forced chunk size ([None] = auto) *)
  pr_depth : int option;
      (** forced speculation depth ([None] = the cost model's per-loop
          pick, capped at the runtime window) *)
  pr_n_loops : int;  (** SPT loops handed to the runtime *)
  pr_seq_wall : float;  (** sequential run's wall time, seconds *)
  pr_measured_speedup : float;  (** sequential wall / parallel wall *)
  pr_runtime : Spt_runtime.Runtime.result;
  pr_spt : spt_compilation;  (** the compilation that was executed *)
}

(** Compile with [config], then execute on OCaml 5 domains.
    [runtime_config] replaces the default runtime configuration; [jobs]
    then overrides its worker count (else [SPT_JOBS] / 1); [chunk]
    forces the iterations-per-fork chunk size (else auto-sized from the
    cost model); [depth] forces the speculation depth — chunks in
    flight — for every loop (else [config]'s forced depth, else the
    cost model's per-loop pick); [timeline] overrides its timeline — the per-domain
    speculation events land there, and (when tracing is enabled) are
    merged into the pipeline trace as extra lanes.  Both the parallel
    run and its sequential baseline execute on {!Spt_exec.Engine}.
    [profile_seed] / [observations] / [divergence] are passed to
    {!compile_spt}. *)
val run_parallel :
  ?config:Config.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?depth:int ->
  ?runtime_config:Spt_runtime.Runtime.config ->
  ?timeline:Spt_obs.Timeline.t ->
  ?profile_seed:
    (Spt_profile.Edge_profile.t ->
    Spt_profile.Dep_profile.t ->
    Spt_profile.Value_profile.t ->
    unit) ->
  ?observations:((string * int) * loop_obs) list ->
  ?divergence:float ->
  string ->
  parallel_run
