(** Reference interpreter for the IR, with instrumentation hooks.

    The interpreter is the ground truth for program semantics: an
    SPT-transformed program must print the same output as the original
    ([SPT_FORK]/[SPT_KILL] are sequential no-ops).  It runs a whole
    program block by block; the hooks expose the full dynamic event
    stream on which the trace-driven TLS timing machine and the
    profilers' reference model are built.

    It also defines what it shares with the bytecode engine
    ({!Spt_exec.Engine}, the runtime's segment machine): values, the
    memory and register backends ([memio], [regio], [store]) and the
    builtins. *)

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

(** {1 State backends} *)

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

val new_store : Layout.t -> Ir.program -> store
val store_memio : store -> memio

(** Execute a builtin against a backend ([rand]/[srand] use its RNG,
    prints its output).
    @raise Runtime_error on unknown builtins or bad arguments. *)
val exec_builtin : memio -> string -> value list -> value option

(** {1 Whole-program runs} *)

type result = {
  return_value : value option;
  output : string;  (** everything the print builtins wrote *)
  dynamic_instrs : int;
}

(** Execute [main], on [store] when one is given (built by {!new_store}
    for this program; it holds the final memory afterwards) and on a
    fresh one otherwise.  Deterministic: the [rand] builtin is a
    fixed-seed LCG ([srand] reseeds it).
    @raise Runtime_error on out-of-bounds access, division by zero or
    exceeding [max_steps]. *)
val run : ?hooks:hooks -> ?max_steps:int -> ?store:store -> Ir.program -> result

(** Front-end convenience: parse, type-check, lower and run. *)
val run_source : ?hooks:hooks -> ?max_steps:int -> string -> result
