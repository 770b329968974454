(** The compiler configurations evaluated in §8 of the paper, plus the
    inlining extension. *)

open Spt_transform

type t = {
  name : string;
  alias_model : [ `Exact | `Type_based ];
      (** [`Type_based] mimics ORC's type-based disambiguation on
          pointer-rich C (the `basic` compilation's only alias
          information) *)
  use_dep_profile : bool;
  use_svp : bool;
  inline : bool;  (** extension: inline small callees before analysis *)
  unroll : Unroll.policy;
  thresholds : Select.thresholds;
  static_mem_prob : float;
  include_control : bool;
  sim : Spt_tlsim.Tls_machine.config;
  depth : int option;
      (** forced speculation depth (chunks in flight per loop); [None]
          lets the cost model price and pick a depth per region.
          Part of the cache key: a forced depth changes both the
          selector's kill-cascade pricing and the per-loop depth baked
          into compile records *)
}

(** Cost model + code reordering + DO-loop unrolling, control-flow edge
    profiling only (paper: ≈1% average speedup). *)
val basic : t

(** [basic] + dependence profiling + software value prediction
    (paper: ≈8%). *)
val best : t

(** [best] + while-loop unrolling and relaxed thresholds standing in
    for the manually-applied techniques (paper: ≈15.6%). *)
val anticipated : t

(** [best] + small-function inlining (extension beyond the paper). *)
val best_inline : t

val all : t list

(** @raise Invalid_argument on unknown names. *)
val by_name : string -> t

(** A stable token covering every knob that can change an analysis or
    simulation result — the configuration half of an artifact-cache key
    ({!Spt_service.Fingerprint}).  Two configurations share a token iff
    all their fields are equal.  [profile] appends the digest of the
    persistent profile store seeding the compilation, so profile-guided
    results never collide with cold ones. *)
val cache_key : ?profile:string -> t -> string
