(** Speculative store buffer: versioned views of the master state.

    Each speculative task executes against a {!view}: writes are
    buffered per-task, reads are logged the first time an address (or
    register, or the RNG) is observed, and resolution goes

    {v own writes → own read log → uncommitted ancestor views → master v}

    The ancestor chain holds only {e pre-fork} views of earlier
    iterations — never post-fork views; their independence is exactly
    the paper's speculation assumption, checked at commit time.

    [validate] replays the read log against the master state.  Because
    views are validated and committed strictly in sequential order, a
    view that validates observed precisely the values sequential
    execution would have produced, so committing its write buffer
    (and buffered output) preserves sequential semantics regardless of
    any races during the speculative run.  OCaml 5's memory model makes
    the racy master reads memory-safe; any stale value they return is
    caught here.  Validation is by value (bit-level for floats), which
    subsumes address-based conflict detection. *)

module Interp = Spt_interp.Interp

(** The authoritative sequential state a loop speculates against: the
    flat memory and output buffer of the engaged {!Interp.store} and
    the register file of the engaged frame. *)
type master = {
  m_mem : Interp.value array;
  m_regs : Interp.value option array;
  m_rng_get : unit -> int64;
  m_rng_set : int64 -> unit;
  m_out : Buffer.t;
}

type view

(** [create ?parent master] opens a fresh view.  [parent] is the most
    recent pre-fork view of the chain (its own parents included);
    committed ancestors are skipped during reads since their effects
    already reached master. *)
val create : ?parent:view -> master -> view

(** Backends routing a task's execution through the view. *)
val memio : view -> Interp.memio

val regio : view -> Interp.regio

(** [reg_predict v vid x] buffers a value-predicted register write into
    a predictor (backbone) view, keyed by raw [vid].  The chunk reading
    through [v] observes [x] for that register instead of walking on to
    master; the prediction is checked for free by the reader's
    {!validate} (its read log records [x], replayed against master at
    the reader's sequential turn).  Dropped on a rolled-back view, like
    every post-kill write. *)
val reg_predict : view -> int -> Interp.value -> unit

(** The first stale observation found by {!validate}, in a form the
    runtime can attribute: a memory violation carries the element
    address (mappable back to its region), a register violation the
    vid. *)
type stale =
  | Stale_mem of int  (** element address whose read proved stale *)
  | Stale_reg of int  (** register vid *)
  | Stale_rng

val string_of_stale : stale -> string

(** Replay the read log against master.  [Error] describes the
    earliest-logged stale observation: memory first, then registers,
    then the RNG, each in first-read order — the same read on every run,
    whatever addresses and vids are involved. *)
val validate : view -> (unit, stale) result

(** Apply the write buffer and buffered output to master and mark the
    view committed (release-ordered: readers that see the flag see the
    master writes).  Must only be called after [validate], from the
    sequential thread, in order.
    @raise Invalid_argument on a rolled-back view. *)
val commit : view -> unit

val is_committed : view -> bool

(** Kill the view: its buffered writes, output and RNG advance are
    discarded (they never reach master, and descendants skip them
    during chained reads), and any write arriving {e after} the
    rollback — an abandoned worker still finishing into the dead view —
    is dropped.  Idempotent: rolling back twice is the first rollback.
    Only flips a flag, so it is safe to call while the task's domain is
    still executing.
    @raise Invalid_argument on a committed view. *)
val rollback : view -> unit

val is_rolled_back : view -> bool

(** Mark the view committed {e without} merging its buffers.  For
    predictor (backbone) views whose writes are re-executed by the
    chunk that reads through them: call it from the sequential thread
    once that chunk has resolved — master then already holds every
    value the view could supply, so descendants may skip it during
    chained reads (release-ordered, like {!commit}).
    @raise Invalid_argument on a rolled-back view. *)
val seal : view -> unit

(** (reads, writes) logged so far — memory + registers + RNG. *)
val footprint : view -> int * int

(** Bit-level value equality (NaN-safe, [-0.] ≠ [0.]). *)
val value_eq : Interp.value -> Interp.value -> bool
