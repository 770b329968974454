(** The speculative scheduler: executes an SPT-transformed program on
    OCaml 5 domains with genuine fork / validate / commit / kill.

    One iteration of an SPT loop splits at its [SPT_FORK] into a
    pre-fork slice (the violation candidates the partitioner moved up)
    and a post-fork slice (the rest of the body).  The runtime forks in
    {e chunks}: one speculative task covers [chunk] whole fork-to-fork
    spans — the post-fork slice of one iteration followed by the
    pre-fork slice of the next, [chunk] times — executed sequentially
    against a single {!Specmem.view}, so view creation, validation and
    commit are paid once per chunk instead of once per iteration.
    Chunks run on the worker pool; the sequential thread meanwhile
    predicts the loop-carried pre-fork state the {e next} chunk starts
    from by running only the pre-fork slices (the {e backbone}) into
    predictor views the chunks read through — the assumption, exactly
    the paper's §3 execution model, being that pre-fork work of later
    iterations is independent of earlier post-fork work.  Chunks are
    validated and committed strictly in order; on a read violation or
    a speculative fault the chunk is killed and its whole span is
    re-executed serially on master state (a mispredicted backbone
    surfaces this way too — prediction can cost time, never
    correctness).

    Up to [depth] chunks (epochs) are in flight at once — K-deep
    DOACROSS pipelining.  A misspeculated head cascades: every
    in-flight successor chained through its refuted backbone state, so
    the cascade kills exactly the epochs after the offender (committed
    work is never touched) and re-speculates from the replayed master
    state.  Registers the backbone demonstrably cannot supply (post-
    fork loop-carried scalars) enter a per-loop software value
    predictor on their first violation: the runtime learns their
    per-chunk stride from committed master states and injects
    [last + stride * in_flight] into the backbone view each new chunk
    reads through; a wrong prediction is caught by the reader's
    ordinary read-log validation.  A loop that misspeculates
    [despec_after] times in a row — guaranteed-clean commits of
    master-fed respawns don't reset the count — is de-speculated for
    the rest of the run. *)

module Interp = Spt_interp.Interp

(** A transformed loop, as registered by the driver: the id carried by
    its [SPT_FORK]/[SPT_KILL] markers, its function and its header
    block in the final (post-SSA-destruction) CFG.  [ls_iter_ops] is
    the cost model's dynamic-operations-per-iteration estimate
    ([<= 0.0] when unknown), used to auto-size chunks. *)
type loop_spec = {
  ls_id : int;
  ls_fname : string;
  ls_header : int;
  ls_iter_ops : float;
  ls_depth : int;
      (** cost-model-chosen speculation depth for this loop ([<= 0]
          when unpriced); overridden by {!config.depth}, capped by
          [window] *)
}

type config = {
  jobs : int;  (** worker domains (≥ 1) *)
  window : int;  (** max speculative chunks in flight *)
  despec_after : int;  (** consecutive misspeculations before the valve *)
  spec_fuel : int;  (** step budget of one speculative {e iteration};
      a chunk's fuel is [spec_fuel * chunk], capped at [max_steps] *)
  max_steps : int;  (** overall sequential step budget *)
  oracle : bool;  (** check against a sequential reference run *)
  timeline : Spt_obs.Timeline.t option;
      (** when set, every fork/exec/validate/commit/rollback/reexec/
          kill/chunk/compile is recorded per domain; drain it only
          after {!run} returns (the pool has then joined its workers) *)
  chunk : int option;
      (** iterations per speculative fork; [None] auto-sizes from
          [ls_iter_ops] (targeting ~2048 dynamic ops per chunk,
          clamped to [1, 256]; 16 when the estimate is unknown) *)
  depth : int option;
      (** forced speculation depth (chunks in flight) for every loop;
          [None] uses the loop's cost-model-chosen [ls_depth], falling
          back to [window].  The effective depth — forced or not — is
          always capped at [window], the runtime's in-flight resource
          bound. *)
}

(** [jobs] honours [SPT_JOBS]; window is [2 * jobs]; chunk is
    auto-sized; depth is per-loop/auto. *)
val default_config : unit -> config

(** The auto chunk size for a loop whose cost-model estimate is
    [iter_ops] dynamic operations per iteration: ~2048 dynamic ops per
    chunk, rounded up, clamped to [1, 256]; 16 when [iter_ops <= 0.0]
    (unknown).  The compile-time depth choice prices these chunks too. *)
val auto_chunk : float -> int

(** Chunk size [run] will use for a loop under this config: the forced
    [config.chunk], else {!auto_chunk} of [ls_iter_ops]. *)
val chunk_size : config -> loop_spec -> int

(** Speculation depth [run] will use for a loop under this config:
    [config.depth] if forced, else [ls_depth] capped at [window], else
    [window]. *)
val depth_of : config -> loop_spec -> int

(** Per-variable software-value-prediction counters. *)
type svp_stats = {
  mutable sv_predicts : int;  (** predictions injected *)
  mutable sv_hits : int;  (** predictions the reader committed on *)
  mutable sv_mispredicts : int;  (** predictions refuted by validation *)
}

(** Mutable per-loop counters, in the paper's §3 vocabulary.  [forks],
    [commits], [violations], [faults], [kills] and [serial_reexecs]
    count {e chunks}; [iters] counts retired iterations. *)
type loop_stats = {
  mutable chunk : int;  (** iterations per speculative fork *)
  mutable depth : int;  (** effective speculation depth used *)
  mutable forks : int;  (** speculative chunks started *)
  mutable commits : int;  (** chunks validated and committed *)
  mutable violations : int;  (** validation failures *)
  mutable faults : int;  (** speculative runtime faults *)
  mutable kills : int;  (** chunks discarded on control divergence *)
  mutable despecs : int;  (** de-speculation valve trips *)
  mutable serial_reexecs : int;  (** serial recoveries *)
  mutable iters : int;  (** loop iterations retired *)
  mutable wall : float;  (** seconds spent inside the loop *)
  mutable stale_mem : int;  (** validation failures on a memory read *)
  mutable stale_reg : int;  (** … on a register read *)
  mutable stale_rng : int;  (** … on the RNG state *)
  stale_regions : (int, int) Hashtbl.t;
      (** memory validation failures per region sid — the observed
          counterpart of the compiler's per-candidate violation
          probabilities, exported to the feedback loop *)
  svp_vars : (int, svp_stats) Hashtbl.t;
      (** value-prediction outcomes per register vid — the fleet
          database learns predictability from these *)
}

type result = {
  output : string;
  return_value : Interp.value option;
  heap_digest : string;  (** of final memory + RNG state *)
  dynamic_instrs : int;  (** committed work only (retries excluded) *)
  wall_time : float;
  stats : (int * loop_stats) list;  (** per loop id *)
  oracle : [ `Match | `Mismatch of string | `Skipped ];
}

(** Per-region validation-failure counts, {e sorted by region sid}.
    The table fills in worker-scheduling order; every consumer (JSON
    emit, telemetry export, oracle comparisons) must go through this
    accessor so reports are byte-stable across domain interleavings. *)
val sorted_regions : loop_stats -> (int * int) list

(** Per-variable SVP counters, {e sorted by vid} — same byte-stability
    contract as {!sorted_regions}. *)
val sorted_svp : loop_stats -> (int * svp_stats) list

(** (predicts, hits, mispredicts) summed over all predicted vids. *)
val svp_totals : loop_stats -> int * int * int

(** Digest of a store's final memory image and RNG state — the same
    rendering {!result.heap_digest} uses, so an external sequential
    reference (e.g. the differential fuzz oracle) can compare memory
    images with the runtime's. *)
val heap_digest : Spt_interp.Interp.store -> string

val stats_json : result -> Spt_obs.Json.t

(** Execute [main].  Loops whose function still contains phis are
    silently despeculated (the runtime targets post-SSA-destruction
    code).  The worker pool lives for the duration of the call.
    @raise Interp.Runtime_error as the sequential interpreter does
    (speculative faults do not escape — they trigger re-execution). *)
val run :
  ?config:config -> ?loops:loop_spec list -> Spt_ir.Ir.program -> result
