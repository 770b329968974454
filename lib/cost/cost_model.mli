(** The misspeculation cost model (§4.2 of the paper).

    Given a loop's annotated dependence graph ({!Spt_depgraph.Depgraph}),
    {!build} constructs the loop's *cost graph* once: a pseudo-node per
    violation candidate, initial edges to the readers of its
    cross-iteration dependences, and the intra-iteration
    true-dependence closure of those readers.  {!misspeculation_cost}
    then evaluates any candidate partition in time linear in the cost
    graph. *)

open Spt_depgraph

module Iset : module type of Set.Make (Int)

(** How re-execution probabilities combine.

    - [`Independent] — the paper's §4.2.3 node-level recurrence
      [x := 1 − (1−x)(1 − r·v(p))].  On reconvergent graphs one
      violation candidate is counted once per path, inflating the
      estimate (the conservatism the paper observes in Fig. 19).
    - [`Per_seed] (default) — per-candidate max-product path strength,
      combined across candidates with the independence rule; identical
      to [`Independent] whenever paths do not reconverge (in particular
      on the paper's Fig. 5/6 worked example).
    - [`Max_rule] — ablation lower bound. *)
type combine = [ `Independent | `Max_rule | `Per_seed ]

(** A cost-graph edge for the generic core: probability that
    re-execution of [gsrc] re-executes [gdst]. *)
type gedge = { gsrc : int; gdst : int; gprob : float }

(** Generic node-level propagation over an explicit graph (used by the
    Fig. 5/6 worked-example tests); returns each node's re-execution
    probability.  [intra] must be acyclic, and every edge endpoint a
    given node.
    @raise Invalid_argument on an edge from a node outside the graph. *)
val compute :
  ?combine:[ `Independent | `Max_rule ] ->
  op_nodes:int list ->
  vc_pseudo:int list ->
  initial:gedge list ->
  intra:gedge list ->
  vc_prob:(int -> float) ->
  unit ->
  (int, float) Hashtbl.t

(** Per-seed variant of {!compute} (see {!type-combine}). *)
val compute_per_seed :
  op_nodes:int list ->
  vc_pseudo:int list ->
  initial:gedge list ->
  intra:gedge list ->
  vc_prob:(int -> float) ->
  unit ->
  (int, float) Hashtbl.t

(** A cost graph laid out for evaluation: nodes in topological order
    with their incoming edges. *)
type layout

(** A loop's cost graph, built once and evaluated per partition: its
    layout and operation weights are computed by {!build}, so pricing a
    partition only propagates probabilities. *)
type t = {
  graph : Depgraph.t;
  vcs : int list;  (** violation candidates, sorted *)
  op_nodes : int list;  (** operation nodes of the cost graph *)
  initial : gedge list;  (** pseudo(vc) → reader edges *)
  intra : gedge list;  (** propagation edges among operations *)
  layout : layout;
  op_cost : float array;  (** Cost(c) of each operation, as [op_nodes] *)
  op_freq : float array;  (** executions per iteration, as [op_nodes] *)
}

(** Pseudo-node id for a violation candidate (instruction iids are
    non-negative, pseudo ids negative). *)
val pseudo_of_vc : int -> int

val vc_of_pseudo : int -> int
val is_pseudo : int -> bool

(** Build the cost graph of [graph]'s loop. *)
val build : Depgraph.t -> t

(** Re-execution probability of every operation node under the
    partition whose pre-fork statement set is [prefork] (§4.2.3). *)
val reexec_probs : ?combine:combine -> t -> prefork:Iset.t -> (int, float) Hashtbl.t

(** Misspeculation cost of a partition (§4.2.4): the expected amount of
    re-executed computation per speculative iteration, in elementary
    operation units, weighting each operation by its per-iteration
    execution frequency. *)
val misspeculation_cost : ?combine:combine -> t -> prefork:Iset.t -> float

(** [cost / max 1 body_size] — the predicted per-iteration
    misspeculation fraction, directly comparable to observed runtime
    misspeculation rates (Fig. 19, and the feedback loop's divergence
    detector). *)
val predicted_fraction : cost:float -> body_size:float -> float

(** The speculation depths the compile-time chooser considers. *)
val depth_candidates : int list

(** Probability at least one of [chunk] iterations violates, given the
    per-iteration misspeculation probability [iter_prob]. *)
val chunk_violation_prob : iter_prob:float -> chunk:int -> float

(** Expected kill-cascade cost of one violation at [depth], in
    chunk-execution units: the offender's serial replay plus, on
    average, [(depth-1)/2] in-flight successors thrown away. *)
val cascade_factor : depth:int -> float

(** Expected relative cost per retired chunk at [depth]: a [1/depth]
    pipelining-gain term plus the expected kill-cascade loss
    [chunk_prob * cascade_factor]. *)
val depth_cost : chunk_prob:float -> depth:int -> float

(** The depth minimizing {!depth_cost} for a loop with optimal
    misspeculation cost [cost], dynamic body size [body_size] and
    [chunk] iterations per speculative fork (the caller passes the
    runtime's chunk size, so depth pricing sees the chunks the runtime
    will fork) — K-deep pipelining priced per region (smallest depth
    wins ties).  Independent of the worker count; the runtime caps the
    effective depth at its in-flight window. *)
val pick_depth : cost:float -> body_size:float -> chunk:int -> int

(** Render the cost graph as Graphviz DOT (Fig. 6 style). *)
val to_dot : t -> string
