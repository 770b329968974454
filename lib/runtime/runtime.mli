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
    The loop runs in {e rounds}: speculative chunks run on the worker
    pool, while the sequential thread runs the chunks between them
    itself, on master state, as the paper's main thread does (see
    {!plan_inline}).  Before spawning a chunk, the sequential thread
    predicts the loop-carried pre-fork state it starts from by running
    only the pre-fork slices (the {e backbone}) into predictor views
    the chunks read through — the assumption, exactly the paper's §3
    execution model, being that pre-fork work of later iterations is
    independent of earlier post-fork work.  Chunks retire strictly in
    order; a speculative chunk is validated and committed, and on a
    read violation or a speculative fault it is killed and its whole
    span is re-executed serially on master state (a mispredicted
    backbone surfaces this way too — prediction can cost time, never
    correctness).

    Up to [depth] speculative chunks (epochs) are in flight at once —
    K-deep DOACROSS pipelining.  A misspeculated head cascades: every
    in-flight successor chained through its refuted backbone state, so
    the cascade kills exactly the epochs after the offender (committed
    work is never touched) and the next round starts from the replayed
    master state, with an inline chunk.  Registers the backbone
    demonstrably cannot supply (post-fork loop-carried scalars) enter a
    per-loop software value predictor on their first violation: the
    runtime learns their per-chunk stride from retired master states
    and injects [last + stride * ahead] into the backbone view each new
    chunk reads through; a wrong prediction is caught by the reader's
    ordinary read-log validation.  A loop whose speculative chunks
    misspeculate [despec_after] times in a row is de-speculated for the
    rest of the run. *)

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
  jobs : int;
      (** worker domains wanted (≥ 1); the pool holds {!workers_for}
          [jobs] of them, since the sequential thread computes too *)
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

(** [jobs] is the given count (at least 1), else [SPT_JOBS], else 1;
    window is [2 * jobs]; chunk is auto-sized; depth is per-loop/auto.
    Set the other fields on the result. *)
val default_config : ?jobs:int -> unit -> config

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

(** Worker domains a run with [jobs] starts once a loop speculates:
    [max 1 (min jobs (cores - 1))], leaving a core to the sequential
    thread, which runs each round's head chunks itself. *)
val workers_for : int -> int

(** [plan_inline ~inline ~fill ~exec ~resolve ~workers ~depth] is the
    number m of chunks the sequential thread runs itself, on master
    state, between a round's [depth] worker chunks.  Costs are seconds
    per chunk: [inline] the master running a chunk, [fill] the backbone
    predicting past one, [exec] a worker running one on its view,
    [resolve] validating and committing one.  m balances the master's
    share of the round against the workers' and maximises chunks
    retired per second; it is at least 1, at most [4 * depth] so every
    round still speculates, and 1 while [inline] or [exec] is unknown
    ([<= 0.0]). *)
val plan_inline :
  inline:float ->
  fill:float ->
  exec:float ->
  resolve:float ->
  workers:int ->
  depth:int ->
  int

(** Per-variable software-value-prediction counters. *)
type svp_stats = {
  mutable sv_predicts : int;  (** predictions injected *)
  mutable sv_hits : int;  (** predictions the reader committed on *)
  mutable sv_mispredicts : int;  (** predictions refuted by validation *)
}

(** Mutable per-loop counters, in the paper's §3 vocabulary.  [forks],
    [inline], [commits], [violations], [faults], [kills] and
    [serial_reexecs] count {e chunks}; [iters] counts retired
    iterations.  Rates (kill, re-execution, violation) are per fork:
    inline chunks are never validated. *)
type loop_stats = {
  mutable chunk : int;  (** iterations per speculative fork *)
  mutable depth : int;  (** effective speculation depth used *)
  mutable forks : int;  (** speculative chunks started *)
  mutable inline : int;
      (** chunks the sequential thread ran itself on master state *)
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
  heap_digest : string Lazy.t;
      (** of final memory + RNG state; computed when first forced *)
  dynamic_instrs : int;  (** committed work only (retries excluded) *)
  wall_time : float;
  workers : int;  (** worker domains started; 0 when nothing speculated *)
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
    code).  The worker pool starts with the first worker chunk, so a
    run that never speculates starts no domain, and is shut down when
    the call returns.
    @raise Interp.Runtime_error as the sequential interpreter does
    (speculative faults do not escape — they trigger re-execution). *)
val run :
  ?config:config -> ?loops:loop_spec list -> Spt_ir.Ir.program -> result
