(** The differential oracle: one generated program, executed at every
    point of the configuration matrix, every observable compared back
    to the sequential reference interpreter.

    The matrix spans the framework's independently-configurable
    execution paths:

    - [seq] — the reference itself (front end + sequential interpreter
      on the {e untransformed} program); its observables are the ground
      truth the other points are compared against.
    - [par] — the SPT compilation executed on the speculative runtime
      at 1, 2 and 4 worker domains (one compile, three executions); the
      runtime's own internal sequential-equivalence oracle must also
      report [`Match].
    - [engine] — the {e transformed} program run sequentially (markers
      as no-ops) on the tree-walking reference interpreter and on the
      bytecode engine ({!Spt_exec.Engine}): a direct
      instruction-for-instruction parity check between the two on real
      code.
    - [depth] — K-deep pipelining: the 2-domain runtime with the
      speculation depth forced to 1, 2 and 4 in-flight epochs,
      exercising the ordered-commit queue, the kill cascade and the
      runtime value predictor at each depth.
    - [cache] — a cold {!Spt_service.Cached.compile} through a
      throwaway on-disk cache, then two warm ones: of the identical
      text and of the text with a comment line prepended.  Each warm
      request must hit the cold request's key and replay the report
      and eval byte-identically.
    - [feedback] — runtime telemetry of the jobs-2 run recorded into a
      {!Spt_profile.Profile_store} ({!Spt_feedback.Telemetry.record})
      and fed back as the profile of a guided recompile, which must
      preserve semantics (guidance may change the partition, never the
      meaning).
    - [inject:<fault>] — a recompile with a transform fault armed
      ({!Spt_transform.Spt_transform_loop.fault_drop_moved}); when the
      fault actually fires this point is {e expected} to diverge — it
      is how the harness proves the oracle has teeth.

    Observables per executed point: program output, return value,
    final-memory digest ({!Spt_runtime.Runtime.heap_digest} on both
    sides), error class, plus per-compilation report invariants
    (predicted cost finite and non-negative, every [Selected] loop
    re-passing {!Spt_transform.Select.final_check}).

    A program whose {e reference} run fails (it should not, by
    generator construction, but shrinking explores arbitrary mutants)
    is [Skipped], never divergent: the oracle only judges programs it
    can ground-truth. *)

type point =
  | P_par of int  (** speculative runtime at this many worker domains *)
  | P_engine of [ `Tree | `Bytecode ]
      (** the transformed program run sequentially on the tree
          interpreter or on the bytecode engine *)
  | P_depth of int
      (** the 2-domain runtime with this speculation depth forced *)
  | P_cache
  | P_feedback
  | P_inject of string  (** fault name, e.g. ["drop-prefork-stmt"] *)

(** [engine:tree:seq] and [engine:bytecode:seq] — what the [engine]
    matrix family expands to. *)
val engine_axis : point list

(** Depths 1, 2 and 4 — what the [depth] matrix family expands to. *)
val depth_axis : point list

(** [seq] plus the given parallel job counts, the full engine axis,
    the depth axis, cache and feedback — the full clean matrix ([par]
    at 1, 2 and 4). *)
val default_matrix : point list

(** Parse a [--matrix] spec: comma-separated [seq]/[par]/[engine]/
    [depth]/[cache]/[feedback] (unknown names rejected).  [seq] is the
    implicit basis and always accepted. *)
val matrix_of_string : string -> (point list, string) result

val string_of_point : point -> string

(** The only fault name {!P_inject} currently understands. *)
val known_faults : string list

type divergence = {
  d_point : string;  (** matrix point, e.g. ["par:2"] *)
  d_kind : string;  (** [output] / [return] / [heap] / [error] /
                        [runtime-oracle] / [cache-miss] / [cache-replay]
                        / [invariant] *)
  d_detail : string;
}

type verdict = {
  v_status : [ `Ok | `Divergent | `Skipped of string ];
      (** [`Skipped reason]: the reference run itself failed *)
  v_divergences : divergence list;
  v_spt_loops : int;  (** loops the base compilation speculated *)
  v_misspecs : int;
      (** violations + faults + kills observed across the parallel
          runs — the "did speculation actually happen" signal used to
          pick corpus-worthy cases *)
  v_fault_fired : bool;
      (** an armed {!P_inject} fault actually dropped a statement *)
}

(** The step budget every execution (reference and runtime) runs
    under: ~500x the dynamic size of a typical generated program, yet
    small enough that a shrink mutant that loops forever is rejected in
    milliseconds. *)
val default_max_steps : int

(** Run [source] through the matrix under [config] (default
    {!Spt_driver.Config.best}).  Never raises on program misbehaviour —
    compile or runtime failures at a non-reference point are recorded
    as [error] divergences; a reference that exceeds [max_steps]
    (default {!default_max_steps}) skips the case. *)
val check :
  ?config:Spt_driver.Config.t ->
  ?max_steps:int ->
  matrix:point list ->
  string ->
  verdict

val divergence_json : divergence -> Spt_obs.Json.t
