(** Flat-bytecode execution engine: every sequential and speculative
    run, and the segment machine the speculative runtime builds on.

    The engine compiles each function once into a contiguous array of
    register-resolved instructions and dispatches with an
    unsafe-indexed loop.  Its output, return value, dynamic instruction
    count and error messages are those of the tree interpreter's
    {!Interp.run}, which stays the reference.

    A {e machine} runs compiled code against a [memio] backend under a
    step budget.  It runs segments of a frame from a cursor and stops
    at an SPT marker, at a given block or at return ({!exec_segment}),
    and it dispatches the markers of the frames it drives to its marker
    handler.  That is what lets the runtime execute pre-fork and
    post-fork slices of a loop iteration on different domains against
    versioned state.  A function the engine did not compile (a
    shadowed second binding, or another program's) raises
    [Invalid_argument]; nothing falls back to the tree.

    The profilers run on typed probe events compiled into the code of
    one profiling run ({!profile}); code compiled by {!compile} carries
    no probe and pays nothing for them. *)

open Spt_ir
module Interp = Spt_interp.Interp

type value = Interp.value

(** A program compiled to bytecode against a fixed layout.  Compiled
    code is immutable and may be shared across domains. *)
type t

(** Compile the first binding of every function name.  O(static
    program size); call once per run, before spawning workers. *)
val compile : Ir.program -> t

(** The memory layout the code was compiled against: build the
    program's {!Interp.store} with it. *)
val layout : t -> Spt_interp.Layout.t

(** Number of bytecode instructions across all compiled functions. *)
val code_size : t -> int

(** {1 Frames and the segment protocol} *)

(** An activation record.  [frio = None] reads and writes the flat
    [regs] array; [Some r] routes every register access through [r]
    (speculative register versioning of the loop frame). *)
type frame = {
  func : Ir.func;
  regs : value option array;
  arr_args : Ir.sym array;
  frio : Interp.regio option;
}

(** Frame whose registers live entirely behind a [regio]. *)
val mk_frame : Ir.func -> arr_args:Ir.sym array -> regio:Interp.regio -> frame

(** Position within a frame: block, incoming edge (for phis; [-1] at
    function entry) and index of the next instruction among the block's
    {e non-phi} instructions.  [cpos = 0] is a fresh block entry. *)
type cursor = { cbid : int; cprev : int; cpos : int }

type marker = [ `Fork of int | `Kill of int ]

(** Why {!exec_segment} stopped. *)
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

(** {1 Machines} *)

(** Compiled code, a backend, a step budget and counters, and an
    optional marker handler.  Machines are single-threaded; concurrency
    comes from running one machine per domain against views of shared
    state. *)
type machine

(** A machine with no marker handler; [max_steps] defaults to
    200,000,000. *)
val make : ?max_steps:int -> memio:Interp.memio -> t -> machine

(** Dynamic instructions executed so far. *)
val steps : machine -> int

(** Install (or clear, with [None]) the SPT-marker handler.  When set,
    every [`Fork]/[`Kill] executed by a frame the machine drives
    ({!call} and its callees) is dispatched to it with the engaged
    frame and the cursor just past the marker.  A handler runs code
    through {!exec_segment}, which never dispatches to it. *)
val set_marker_handler :
  machine -> (frame -> marker -> cursor -> marker_action) option -> unit

(** Execute from [cursor] until: a marker executes in this frame (if
    [watch_markers]; the marker is counted before stopping), control is
    about to transfer to [stop_block] (checked on block transitions
    only, never the initial cursor), or the frame returns.  Calls run
    to completion inside the segment.
    @raise Interp.Runtime_error as {!Interp.run} does.
    @raise Invalid_argument when the frame's function was not
    compiled, or when a resumed cursor lies past its code. *)
val exec_segment :
  machine ->
  frame ->
  ?stop_block:int ->
  watch_markers:bool ->
  cursor ->
  seg_stop

(** Call a function with the given scalar and array arguments, driving
    it and its callees to completion and dispatching markers to the
    machine's handler.
    @raise Invalid_argument when the function was not compiled. *)
val call : machine -> Ir.func -> value list -> Ir.sym list -> value option

(** Sequential entry point equivalent to {!Interp.run} (without hooks):
    compile, fresh store, execute [main].
    @raise Interp.Runtime_error exactly as {!Interp.run} does. *)
val run : ?max_steps:int -> Ir.program -> Interp.result

(** {1 Profiling}

    A profiling run compiles probe points into its own copy of the
    bytecode, so the events cost only that run.  The events come in the
    tree interpreter's hook order ({!Interp.hooks}), which is the
    contract the profilers are checked against.

    Functions are named by their index in {!functions}.  A [None]
    handler compiles no probe for its event. *)

type probes = {
  on_enter : (int -> unit) option;
      (** [fid]: function entry, after the parameters are bound *)
  on_exit : (int -> unit) option;
      (** [fid]: function return, after the return operand is read;
          none fires when an error unwinds the frame *)
  on_block : (int -> int -> int -> unit) option;
      (** [fid bid prev]: block entry, before the block's phis; [prev]
          is the predecessor, [-1] at function entry *)
  on_call : (int -> unit) option;
      (** [iid] of an executed call: a program call fires before its
          callee's entry, a builtin call after the builtin ran *)
  on_load : (int -> int -> unit) option;
      (** [iid addr] after a load of element address [addr] *)
  on_store : (int -> int -> unit) option;  (** [iid addr] after a store *)
  watch : int -> int -> bool;
      (** [watch fid iid] selects the instructions [on_value] reports *)
  on_value : (int -> int -> value -> unit) option;
      (** [fid iid v] after a watched instruction defines [v]: moves,
          unops, binops, loads, builtin results and phis (after all of
          the block's phis are written); never a program call *)
  on_finish : (unit -> unit) option;
      (** once, when the run ends, by return or by an error *)
}

(** No handler at all. *)
val no_probes : probes

(** Fan each event out to every probe set that handles it; each set's
    [on_value] sees only the instructions its own [watch] selects. *)
val combine : probes list -> probes

(** The first binding of each function name, in program order — the
    function a call by that name executes.  The index is a function's
    [fid]. *)
val functions : Ir.program -> Ir.func array

(** Run [main] like {!run}, firing [probes] on every call, block,
    memory access and watched value.
    @raise Interp.Runtime_error exactly as {!Interp.run} does, after the
    events that precede the error (and [on_finish]). *)
val profile : ?max_steps:int -> probes -> Ir.program -> Interp.result
