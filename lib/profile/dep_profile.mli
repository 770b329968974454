(** Data-dependence profiling (§7.3).

    A shadow memory tracks, per element address, the last write with
    its attribution to every active loop (instance, iteration, and
    *owner* instruction — the loop-body instruction responsible at that
    nesting level, so dependences through callees surface at the call
    site).  Loads yield dependence events classified by iteration
    distance; the probability of a W→R edge is
    [events(W→R) / executions(W)], the paper's §4.1 definition. *)

open Spt_ir

type loop_key = string * int  (** function name, loop header bid *)

type dep_kind = Intra | Cross1 | Cross_far

type t

val create : Ir.program -> t

(** Probe handlers profiling one engine run of [prog] into [t]
    ({!Spt_exec.Engine.profile}).  The shadow memory and the loop and
    call stacks live for that run only; the counts land in [t] when it
    finishes. *)
val probes : t -> Ir.program -> Spt_exec.Engine.probes

(** Raw event and execution counts. *)
val dep_events : t -> loop_key -> w:int -> r:int -> dep_kind -> int

val write_executions : t -> loop_key -> w:int -> int

(** Profiled probability of the dependence edge [w -> r], or [None]
    when [w] was never seen writing in this loop. *)
val dep_prob : t -> loop_key -> w:int -> r:int -> dep_kind -> float option

(** All (writer, reader, probability) triples observed for the kind,
    sorted. *)
val pairs : t -> loop_key -> dep_kind -> (int * int * float) list

(** True when the loop executed during profiling. *)
val observed : t -> loop_key -> bool

val string_of_kind : dep_kind -> string
val kind_of_string : string -> dep_kind option

(** A flat, sorted rendering of the count tables for the on-disk
    profile store.  The shadow memory (live run state) does not
    travel. *)
type dump = {
  d_deps : ((loop_key * int * int * dep_kind) * int) list;
      (** (loop, writer owner, reader owner, kind) -> events *)
  d_writes : ((loop_key * int) * int) list;
      (** (loop, writer owner) -> write executions *)
}

val export : t -> dump

(** Add the dump's counts into [t]; loops present in the dump count as
    {!observed} even if this run never reached them. *)
val absorb : t -> dump -> unit
