(** Flat-bytecode execution engine.

    The tree-walking interpreter ({!Spt_interp.Interp.exec_segment})
    matches on IR records on every dynamic instruction, reads phi
    operands through association lists and resolves every memory
    operand through a per-access layout lookup.  This engine compiles
    each function once into a contiguous array of register-resolved
    instructions and then dispatches with an unsafe-indexed loop,
    implementing the *same* segment-machine contract — identical stops,
    markers, step budgets, error messages and [memio]/[regio] backends
    — so it drops in under the speculative runtime and the sequential
    paths without changing observable semantics.

    Restrictions: the engine fires no instrumentation hooks, so it only
    drives machines whose hooks are null ({!Interp.hooks_are_null});
    for any other machine — and for a frame whose function is not part
    of the compiled program — it silently delegates to the tree
    interpreter.  The TLS timing machine therefore keeps running on the
    tree interpreter.  The profilers run here instead, on typed probe
    events compiled into the code of one profiling run ({!profile});
    code compiled by {!compile} carries no probe and pays nothing for
    them. *)

open Spt_ir
module Interp = Spt_interp.Interp

type value = Interp.value

(** A program compiled to bytecode against a fixed layout.  Compiled
    code is immutable and may be shared across domains. *)
type t

(** Compile every function of the machine's program.  O(static program
    size); call once per run, before spawning workers. *)
val compile : Interp.state -> t

(** Number of bytecode instructions across all compiled functions. *)
val code_size : t -> int

(** Drop-in equivalent of {!Interp.exec_segment}: same stops, same
    step/entry accounting (kept in the machine's own counters), same
    error messages.  Falls back to the tree interpreter when the
    machine has hooks installed or executes a foreign program. *)
val exec_segment :
  t ->
  Interp.state ->
  Interp.frame ->
  ?stop_block:int ->
  watch_markers:bool ->
  Interp.cursor ->
  Interp.seg_stop

(** Drop-in equivalent of {!Interp.call}: drives the function and its
    callees to completion, dispatching markers to the machine's
    handler. *)
val call :
  t -> Interp.state -> Ir.func -> value list -> Ir.sym list -> value option

(** Sequential entry point equivalent to {!Interp.run} (without hooks):
    fresh store, compile, execute [main] on the bytecode engine.
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

(** Run [main] like {!run}, firing [probes].  Every call is entered
    through the probed code, so the run never hands a frame to the tree
    interpreter and loses no event.
    @raise Interp.Runtime_error exactly as {!Interp.run} does, after the
    events that precede the error (and [on_finish]). *)
val profile : ?max_steps:int -> probes -> Ir.program -> Interp.result
