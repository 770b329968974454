(** Flat-bytecode execution engine.

    The tree-walking interpreter ({!Spt_interp.Interp.exec_segment})
    re-traverses IR lists on every dynamic instruction: it partitions
    phis per block entry, walks an instruction list, allocates an
    effects record per step and resolves every memory operand through a
    per-access layout lookup.  This engine compiles each function once
    into a contiguous array of register-resolved instructions and then
    dispatches with an unsafe-indexed loop, implementing the *same*
    segment-machine contract — identical stops, markers, step budgets,
    error messages and [memio]/[regio] backends — so it drops in under
    the speculative runtime and the sequential paths without changing
    observable semantics.

    Restrictions: the engine fires no instrumentation hooks, so it only
    drives machines whose hooks are null ({!Interp.hooks_are_null});
    for any other machine — and for a frame whose function is not part
    of the compiled program — it silently delegates to the tree
    interpreter.  Profilers and the TLS timing machine therefore keep
    running on the tree interpreter unchanged. *)

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
