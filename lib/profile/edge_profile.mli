(** Control-flow edge profiling (§4.1; the paper's basic compilation
    uses only this).  Counts block executions, taken edges and function
    entries; derived queries feed violation probabilities and the §6.1
    iteration-count criterion. *)

open Spt_ir

type t

val create : unit -> t

(** Probe handlers counting one engine run of [prog] into [t]
    ({!Spt_exec.Engine.profile}; compose with
    {!Spt_exec.Engine.combine}).  The counts land in [t] when the run
    finishes. *)
val probes : t -> Ir.program -> Spt_exec.Engine.probes

val block_count : t -> Ir.func -> int -> int
val edge_count : t -> Ir.func -> src:int -> dst:int -> int
val call_count : t -> Ir.func -> int

(** Probability that the block executes in one iteration of [loop]
    (capped at 1); 1.0 without data. *)
val exec_prob_in_loop : t -> Ir.func -> Loops.loop -> int -> float

(** Number of times [loop] was entered from outside. *)
val loop_entries : t -> Ir.func -> Loops.loop -> int

(** Average header executions per entry (§6.1 criterion 4). *)
val avg_trip_count : ?default:float -> t -> Ir.func -> Loops.loop -> float

(** Dynamic operation count spent inside the loop's own blocks. *)
val weight_of_loop : t -> Ir.func -> Loops.loop -> int

(** A flat, sorted rendering of every counter, for the on-disk profile
    store ({!Profile_store}). *)
type dump = {
  d_blocks : ((string * int) * int) list;  (** (function, block) -> count *)
  d_edges : ((string * int * int) * int) list;  (** (function, src, dst) *)
  d_entries : (string * int) list;  (** function -> call count *)
}

val export : t -> dump

(** Add the dump's counts into [t] (counts add, so absorbing two runs
    behaves as one longer run). *)
val absorb : t -> dump -> unit
