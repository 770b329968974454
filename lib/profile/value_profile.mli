(** Software-value-prediction profiling (§7.2): watches designated
    instructions and fits a stride predictor
    [value(n+1) = value(n) + c] to the values they define (stride 0 is
    a last-value predictor). *)

(** An instruction to watch, identified by function name and iid. *)
type target = { tfunc : string; tiid : int }

type t

val create : target list -> t

(** Probe handlers watching the targets over one engine run of [prog]
    ({!Spt_exec.Engine.profile}); the stride counts land in [t] when the
    run finishes. *)
val probes : t -> Spt_ir.Ir.program -> Spt_exec.Engine.probes

type prediction = {
  stride : int64;
  hit_rate : float;  (** fraction of transitions matching the stride *)
  observations : int;
}

(** Best stride for a target, if it was observed at least twice. *)
val best_prediction : t -> func:string -> iid:int -> prediction option

(** Default acceptance bar for inserting prediction code. *)
val min_hit_rate : float

(** [best_prediction] filtered by the hit-rate bar and a minimum
    observation count — "the values are found to be predictable". *)
val predictable : ?threshold:float -> t -> func:string -> iid:int -> prediction option

(** Stride histograms per target, sorted, for the on-disk profile
    store; targets with no transitions are omitted. *)
type dump = { d_strides : ((string * int) * (int64 * int) list) list }

val export : t -> dump

(** Add the dump's stride counts into [t], creating targets the current
    run does not watch. *)
val absorb : t -> dump -> unit
