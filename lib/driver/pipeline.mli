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

(** [profile] guides the compile: its counts are merged into the
    freshly built profilers after every profiling pass (including the
    SVP re-profile, {!Spt_profile.Profile_store.seed}), and its
    observed per-loop misspeculation rates, keyed by (function, loop
    header), override compile-time violation probabilities that
    diverge beyond [divergence] ({!default_divergence_threshold}).  An
    empty store compiles as no store. *)
val compile_spt :
  ?profile:Spt_profile.Profile_store.t ->
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

(** Compile both ways, simulate both, compare.  [profile] and
    [divergence] guide the SPT compile ({!compile_spt}). *)
val evaluate :
  ?config:Config.t ->
  ?profile:Spt_profile.Profile_store.t ->
  ?divergence:float ->
  string ->
  eval

(** {!evaluate} of an SPT compilation already in hand ([config] and the
    source it was compiled from): builds and simulates the baseline,
    simulates the given build, compares. *)
val simulate : ?config:Config.t -> string -> spt_compilation -> eval

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

(** Compile with [config], then execute on OCaml 5 domains under
    [runtime_config] (default {!Spt_runtime.Runtime.default_config}),
    which sets the worker count, the chunk size, the speculation depth
    and the timeline.  When [runtime_config] forces no depth, [config]'s
    forced depth is the runtime's; with neither, each loop runs at the
    cost model's pick.  A timeline receives the per-domain speculation
    events, merged into the pipeline trace as extra lanes when tracing
    is enabled.  Both the parallel run and its sequential baseline
    execute on {!Spt_exec.Engine}.  [profile] and [divergence] are
    passed to {!compile_spt}. *)
val run_parallel :
  ?config:Config.t ->
  ?runtime_config:Spt_runtime.Runtime.config ->
  ?profile:Spt_profile.Profile_store.t ->
  ?divergence:float ->
  string ->
  parallel_run
