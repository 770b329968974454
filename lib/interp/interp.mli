(** Reference interpreter for the IR, with instrumentation hooks.

    The interpreter is the ground truth for program semantics: an
    SPT-transformed program must print the same output as the original
    ([SPT_FORK]/[SPT_KILL] are sequential no-ops).  The hooks expose
    the full dynamic event stream on which the profilers (§4.1, §7.2,
    §7.3) and the trace-driven TLS timing machine are built.

    The machine-level API ([make], [exec_segment], [set_marker_handler],
    [memio]/[regio]) is what {!Spt_runtime} builds on: it lets a caller
    run instruction-granular segments of a frame against pluggable
    memory/register backends and intercept SPT markers, so speculative
    tasks reuse these semantics verbatim against versioned state. *)

open Spt_ir

type value = Eval.value

(** Register and memory effects of one executed instruction.  Addresses
    are element-granular (see {!Layout.element_address}). *)
type effects = {
  loads : (int * value) list;  (** (address, value read) *)
  stores : (int * value) list;  (** (address, value written) *)
  defs : (Ir.var * value) list;
  uses : (Ir.var * value) list;
}

val no_effects : effects

type hooks = {
  on_instr : Ir.func -> int -> Ir.instr -> effects -> unit;
      (** fires after each instruction; callee instructions fire with
          their own function and blocks *)
  on_block : Ir.func -> int -> unit;  (** block entry *)
  on_edge : Ir.func -> src:int -> dst:int -> unit;  (** taken CFG edge *)
  on_branch : Ir.func -> int -> taken:bool -> unit;
      (** conditional-branch outcome in the given block *)
  on_enter : Ir.func -> unit;  (** function entry (after the caller's
      [on_instr] for the call instruction) *)
  on_exit : Ir.func -> unit;  (** function return *)
}

val null_hooks : hooks

exception Runtime_error of string

type result = {
  return_value : value option;
  output : string;  (** everything the print builtins wrote *)
  dynamic_instrs : int;
}

(** Execute [main].  Deterministic: the [rand] builtin is a fixed-seed
    LCG ([srand] reseeds it).
    @raise Runtime_error on out-of-bounds access, division by zero or
    exceeding [max_steps]. *)
val run : ?hooks:hooks -> ?max_steps:int -> Ir.program -> result

(** Front-end convenience: parse, type-check, lower and run. *)
val run_source : ?hooks:hooks -> ?max_steps:int -> string -> result

(** {1 Machine-level API}

    Everything below is the explicit-machine interface used by the
    speculative runtime.  [run] is equivalent to [make] with a fresh
    [store] backend followed by [call] of [main]. *)

(** Memory, RNG and output backend of a machine.  Addresses are
    element-granular. *)
type memio = {
  mio_load : int -> value;
  mio_store : int -> value -> unit;
  mio_rng : unit -> int64;  (** current LCG state *)
  mio_set_rng : int64 -> unit;
  mio_print : string -> unit;  (** output of the print builtins *)
}

(** Register backend for a single frame; [rio_get] returns [None] for
    uninitialized registers. *)
type regio = {
  rio_get : Ir.var -> value option;
  rio_set : Ir.var -> value -> unit;
}

(** The concrete default backend: flat element-granular memory
    initialized from the program's globals, the fixed-seed LCG, and an
    output buffer. *)
type store = { smem : value array; mutable srng : int64; sout : Buffer.t }

val initial_rng : int64
val new_store : Layout.t -> Ir.program -> store
val store_memio : store -> memio

(** An activation record.  [frio = None] reads and writes the flat
    [regs] array; [Some r] routes every register access through [r]
    (used for speculative register versioning of the loop frame). *)
type frame = {
  func : Ir.func;
  regs : value option array;
  arr_args : Ir.sym array;
  frio : regio option;
}

(** Frame whose registers live entirely behind a [regio]. *)
val mk_frame : Ir.func -> arr_args:Ir.sym array -> regio:regio -> frame

(** Position within a frame: block, incoming edge (for phis; [-1] at
    function entry) and index of the next instruction among the block's
    {e non-phi} instructions.  [cpos = 0] is a fresh block entry. *)
type cursor = { cbid : int; cprev : int; cpos : int }

type marker = [ `Fork of int | `Kill of int ]

(** Why [exec_segment] stopped. *)
type seg_stop =
  | Seg_marker of marker * cursor
      (** an SPT marker executed in the segment's own frame; the cursor
          points just past it *)
  | Seg_stop_block of cursor
      (** control is about to enter [stop_block]; phis not yet run *)
  | Seg_return of value option

(** What a marker handler tells the executing frame to do next. *)
type marker_action =
  | Proceed  (** treat the marker as a sequential no-op *)
  | Jump_to of cursor  (** resume this frame at the given cursor *)
  | Return_now of value option  (** unwind the frame with this value *)

(** An interpreter machine: a program plus a backend and step budget.
    Machines are single-threaded; concurrency comes from running one
    machine per domain against views of shared state. *)
type state

val make :
  ?hooks:hooks -> ?max_steps:int -> memio:memio -> Ir.program -> state

val layout : state -> Layout.t
val steps : state -> int  (** dynamic instructions executed so far *)

(** Arm dispatch-time sampling on this machine: every [mask + 1] block
    entries (default 1024; [mask] must be [2^k - 1]) the machine books
    the observed ns-per-instruction of the window into the
    ["interp.dispatch_ns_per_instr"] registry histogram.  Install only
    on machines driven by the metrics-owning thread — the registry is
    not thread-safe.  [run] arms itself when metrics are enabled. *)
val set_sampler : ?mask:int -> state -> unit

(** Install (or clear, with [None]) the SPT-marker interceptor.  When
    set, every [`Fork]/[`Kill] executed by a frame driven by [call]
    is dispatched to it; segment execution inside the handler must use
    [exec_segment] directly to avoid re-entrant dispatch. *)
val set_marker_handler :
  state -> (state -> frame -> marker -> cursor -> marker_action) option -> unit

(** Execute from [cursor] until: a marker executes in this frame (if
    [watch_markers]; the marker is counted and its [on_instr] fired
    before stopping), control is about to transfer to [stop_block]
    (checked on block transitions only, never the initial cursor), or
    the frame returns.  Calls run to completion inside the segment.
    @raise Runtime_error as [run] does. *)
val exec_segment :
  state ->
  frame ->
  ?stop_block:int ->
  watch_markers:bool ->
  cursor ->
  seg_stop

(** Call a function with the given scalar and array arguments, driving
    it (and its callees) to completion, dispatching markers to the
    machine's handler. *)
val call : state -> Ir.func -> value list -> Ir.sym list -> value option

(** {1 Engine support}

    Accessors used by the bytecode engine ({!Spt_exec}) to drive a
    machine through the same backends, budgets and marker handlers as
    this interpreter.  Not intended for general use. *)

val memio_of : state -> memio
val program_of : state -> Ir.program
val max_steps_of : state -> int

val marker_handler_of :
  state -> (state -> frame -> marker -> cursor -> marker_action) option

(** [true] when no instrumentation hooks are installed — the only
    machines the bytecode engine may drive (it fires no hooks). *)
val hooks_are_null : state -> bool

(** Current [(steps, block_entries)] counters. *)
val counts : state -> int * int

val set_counts : state -> steps:int -> block_entries:int -> unit

(** Execute a builtin against the machine's backend ([rand]/[srand]
    use its RNG, prints its output buffer).
    @raise Runtime_error on unknown builtins or bad arguments. *)
val exec_builtin : state -> string -> value list -> value option
