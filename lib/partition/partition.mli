(** Optimal SPT loop partitioning (§5 of the paper).

    A partition is identified by the set of violation candidates moved
    into the pre-fork region; its statement content is the backward
    closure of those candidates over every intra-iteration dependence
    edge — the paper's legality rule ("maintain all forward
    intra-iteration dependence edges").  {!search} runs the paper's
    branch-and-bound over the VC-dependence graph with both §5.2.1
    pruning heuristics. *)

open Spt_depgraph

module Iset : module type of Set.Make (Int)

(** [ancestors g iid] is [iid] plus all its intra-iteration dependence
    ancestors — the statements that must accompany it into the pre-fork
    region.  Apply [ancestors g] once per graph: the partial application
    builds the predecessor table that every later [iid] shares. *)
val ancestors : Depgraph.t -> int -> Iset.t

(** Pre-fork statement set of a chosen violation-candidate set, given a
    (memoized) [anc] function. *)
val closure : Depgraph.t -> anc:(int -> Iset.t) -> Iset.t -> Iset.t

(** Static size of a statement set in elementary operations; statements
    in the loop-header block are free (they sit before the fork point
    by position). *)
val size_of : Depgraph.t -> Iset.t -> int

(** Static size of the whole loop body in elementary operations. *)
val body_size : Depgraph.t -> int

(** The violation-candidate dependence graph (§5.1), topologically
    sorted. *)
type vc_graph = {
  vcs : int array;  (** candidates in topological order *)
  topo_of : (int, int) Hashtbl.t;  (** iid → topological index *)
  vc_preds : Iset.t array;  (** per index, indices of VC-dep predecessors *)
}

val build_vc_graph : Depgraph.t -> anc:(int -> Iset.t) -> vc_graph

type options = {
  max_vcs : int;  (** skip loops with more candidates (§5.2.1; paper: 30) *)
  prefork_size_limit : int;  (** absolute threshold in operations *)
  node_budget : int;  (** hard cap on explored partitions *)
  use_pruning : bool;  (** disable only for the ablation benchmark *)
  vc_filter : int -> bool;
      (** candidates failing this predicate are never moved; the driver
          uses it to keep the search within what the transformation can
          realize *)
}

val default_options : body_size:int -> options

type result = {
  chosen_vcs : Iset.t;  (** violation candidates in the pre-fork region *)
  prefork : Iset.t;  (** full pre-fork statement set *)
  cost : float;  (** optimal misspeculation cost *)
  prefork_size : int;
  body : int;  (** loop body size in operations *)
  nodes_explored : int;
  pruned_by_threshold : int;
      (** subtrees cut by heuristic 1 (pre-fork size monotonicity) *)
  pruned_by_bound : int;
      (** subtrees cut by heuristic 2 (optimistic cost bound) *)
  exhausted : bool;  (** completed within the node budget *)
}

(** Chosen violation candidates of a partition, sorted by iid — the
    stable signature the feedback loop compares across recompiles. *)
val chosen : result -> int list

type outcome = Found of result | Too_many_vcs of int

(** Find the minimum-cost legal partition whose pre-fork region fits
    the size threshold.  The empty pre-fork partition is always
    feasible, so [Found] is returned whenever the candidate count is
    within [max_vcs]. *)
val search : ?options:options option -> Spt_cost.Cost_model.t -> Depgraph.t -> outcome
