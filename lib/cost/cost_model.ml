(** The misspeculation cost model (§4.2).

    Given a loop's annotated dependence graph, a *cost graph* is built
    once per loop: a pseudo-node per violation candidate, initial edges
    from each pseudo-node to the readers of its cross-iteration
    dependences (annotated with the cross-dependence probability), and
    the intra-iteration true-dependence closure of those readers (the
    propagation of re-execution inside the speculative iteration).

    Evaluating a partition then:
    1. sets each pseudo-node's re-execution probability to 0 when its
       violation candidate sits in the pre-fork region, and to its
       violation probability otherwise (§4.2.3 steps 1 & 3);
    2. propagates in topological order with the independence
       approximation [x := 1 − (1−x)(1 − r·v(p))] (§4.2.3 step 4);
    3. sums [v(c) · Cost(c)] over operation nodes outside the pre-fork
       region (§4.2.4).

    The generic core ({!compute}) is exposed separately so the paper's
    Fig. 5/6 worked example (cost 0.58) can be replayed on a hand-built
    graph, and so the ablation benchmark can swap the combination rule. *)

open Spt_ir
open Spt_depgraph
module Iset = Set.Make (Int)

(* observability counters (no-ops unless metrics are enabled) *)
let m_builds = Spt_obs.Metrics.counter "cost.builds"
let m_graph_nodes = Spt_obs.Metrics.counter "cost.graph_nodes"
let m_evaluations = Spt_obs.Metrics.counter "cost.evaluations"

(** How re-execution probabilities combine.

    [`Independent] is the paper's §4.2.3 node-level recurrence,
    [x := 1 − (1−x)(1 − r·v(p))], which assumes predecessors
    misspeculate independently.  On reconvergent graphs (the stacked
    diamonds an unrolled loop produces) one violation candidate's
    influence arrives over several *correlated* paths and the rule
    counts it repeatedly, inflating the estimate — the conservative
    over-estimation the paper itself observes in Fig. 19.

    [`Per_seed] (the default here) propagates each violation
    candidate's probability separately with max-product path strength
    (one cause counted once, however many paths it takes) and combines
    *across* candidates with the independence rule.  It coincides with
    the paper's rule whenever paths do not reconverge — in particular
    on the paper's Fig. 5/6 worked example.

    [`Max_rule] is an ablation lower-bound variant. *)
type combine = [ `Independent | `Max_rule | `Per_seed ]

(* ------------------------------------------------------------------ *)
(* Generic core over abstract node ids *)

type gedge = { gsrc : int; gdst : int; gprob : float }

(* A cost graph laid out for evaluation: its nodes in topological
   order, each with its incoming edges as (source position,
   probability).  A loop's layout is built once, with its cost graph,
   and every partition the search prices is evaluated over it. *)
type layout = {
  ids : int array;  (** node id at each topological position *)
  pseudo : bool array;  (** per position: a violation-candidate pseudo-node *)
  preds : (int * float) list array;
      (** per position: incoming edges, the last given first *)
  seeds : int array;  (** positions of the pseudo-nodes, in the given order *)
  ops : int array;  (** positions of the operation nodes, in the given order *)
}

let layout ~op_nodes ~vc_pseudo edges =
  let succs_tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace succs_tbl e.gsrc
        (e.gdst :: Option.value ~default:[] (Hashtbl.find_opt succs_tbl e.gsrc)))
    edges;
  let succs n = Option.value ~default:[] (Hashtbl.find_opt succs_tbl n) in
  let ids =
    Array.of_list (Spt_util.Topo_sort.sort ~nodes:(vc_pseudo @ op_nodes) ~succs)
  in
  let n = Array.length ids in
  let pos_tbl = Hashtbl.create (2 * n) in
  Array.iteri (fun p id -> Hashtbl.replace pos_tbl id p) ids;
  let pos id =
    match Hashtbl.find_opt pos_tbl id with
    | Some p -> p
    | None -> invalid_arg "Cost_model: edge from a node outside the graph"
  in
  let pseudo = Array.make n false in
  List.iter (fun id -> pseudo.(pos id) <- true) vc_pseudo;
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      let d = pos e.gdst in
      preds.(d) <- (pos e.gsrc, e.gprob) :: preds.(d))
    edges;
  {
    ids;
    pseudo;
    preds;
    seeds = Array.of_list (List.map pos vc_pseudo);
    ops = Array.of_list (List.map pos op_nodes);
  }

(* the node-level rules over a layout; probabilities by position *)
let propagate ~combine l ~vc_prob =
  let v = Array.make (Array.length l.ids) 0.0 in
  Array.iter (fun p -> v.(p) <- vc_prob l.ids.(p)) l.seeds;
  Array.iteri
    (fun p preds ->
      if not l.pseudo.(p) then
        v.(p) <-
          List.fold_left
            (fun x (q, prob) ->
              match combine with
              | `Independent -> 1.0 -. ((1.0 -. x) *. (1.0 -. (prob *. v.(q))))
              | `Max_rule -> Float.max x (prob *. v.(q)))
            0.0 preds)
    l.preds;
  v

(* the per-seed rule over a layout: each seed's max-product reach,
   walked from the seed's own position (nothing earlier is reachable
   from it), folded into every operation's survival product *)
let propagate_per_seed l ~vc_prob =
  let n = Array.length l.ids in
  let v = Array.make n 1.0 in
  (* reach > 0 marks a node the current seed reaches *)
  let reach = Array.make n 0.0 in
  Array.iter
    (fun s ->
      let p_seed = vc_prob l.ids.(s) in
      if p_seed > 0.0 then begin
        reach.(s) <- 1.0;
        for p = s + 1 to n - 1 do
          if not l.pseudo.(p) then begin
            let r =
              List.fold_left
                (fun acc (q, prob) ->
                  let rq = reach.(q) in
                  if rq > 0.0 then Float.max acc (rq *. prob) else acc)
                0.0 l.preds.(p)
            in
            reach.(p) <- r;
            if r > 0.0 then v.(p) <- v.(p) *. (1.0 -. (p_seed *. r))
          end
        done;
        Array.fill reach s (n - s) 0.0
      end)
    l.seeds;
  Array.iter (fun p -> v.(p) <- 1.0 -. v.(p)) l.ops;
  Array.iter (fun p -> v.(p) <- vc_prob l.ids.(p)) l.seeds;
  v

let to_table l v =
  let tbl = Hashtbl.create (2 * Array.length v) in
  Array.iteri (fun p x -> Hashtbl.replace tbl l.ids.(p) x) v;
  tbl

(** [compute] returns the re-execution probability of every node.

    [nodes] must be closed under [initial] and [intra] edge endpoints;
    pseudo-nodes are the [vcs] (given by id), all ids distinct from
    operation ids.  [intra] edges must be acyclic. *)
let compute ?(combine = `Independent) ~op_nodes ~vc_pseudo ~initial ~intra
    ~vc_prob () : (int, float) Hashtbl.t =
  let l = layout ~op_nodes ~vc_pseudo (initial @ intra) in
  to_table l (propagate ~combine l ~vc_prob)

(** Per-seed evaluation: for every violation candidate pseudo-node,
    propagate its probability with max-product path strength, then
    combine candidates independently at each node. *)
let compute_per_seed ~op_nodes ~vc_pseudo ~initial ~intra ~vc_prob () :
    (int, float) Hashtbl.t =
  let l = layout ~op_nodes ~vc_pseudo (initial @ intra) in
  to_table l (propagate_per_seed l ~vc_prob)

(* ------------------------------------------------------------------ *)
(* Cost graph over a Depgraph *)

type t = {
  graph : Depgraph.t;
  vcs : int list;  (** violation candidates, sorted *)
  op_nodes : int list;  (** operation nodes in the cost graph *)
  initial : gedge list;  (** pseudo(vc) -> reader edges *)
  intra : gedge list;  (** propagation edges among operations *)
  layout : layout;
  op_cost : float array;  (** Cost(c) of each operation node, as [op_nodes] *)
  op_freq : float array;  (** executions per iteration, as [op_nodes] *)
}

(* pseudo-node ids never collide with instruction iids, which are
   non-negative *)
let pseudo_of_vc iid = -iid - 1
let vc_of_pseudo p = -p - 1
let is_pseudo n = n < 0

let build (graph : Depgraph.t) =
  let vcs = Depgraph.violation_candidates graph in
  let initial =
    List.map
      (fun (e : Depgraph.edge) ->
        { gsrc = pseudo_of_vc e.Depgraph.src; gdst = e.Depgraph.dst; gprob = e.Depgraph.prob })
      (Depgraph.cross_edges graph)
  in
  (* operation nodes: readers of initial edges, closed under
     intra-iteration true-dependence successors (§4.2.2) *)
  let intra_all = Depgraph.intra_true_edges graph in
  let succs_of = Hashtbl.create 64 in
  List.iter
    (fun (e : Depgraph.edge) ->
      Hashtbl.replace succs_of e.Depgraph.src
        (e :: Option.value ~default:[] (Hashtbl.find_opt succs_of e.Depgraph.src)))
    intra_all;
  let in_graph = Hashtbl.create 64 in
  let rec close iid =
    if not (Hashtbl.mem in_graph iid) then begin
      Hashtbl.replace in_graph iid ();
      List.iter
        (fun (e : Depgraph.edge) -> close e.Depgraph.dst)
        (Option.value ~default:[] (Hashtbl.find_opt succs_of iid))
    end
  in
  List.iter (fun e -> close e.gdst) initial;
  let op_nodes =
    List.filter (fun iid -> Hashtbl.mem in_graph iid) graph.Depgraph.nodes
  in
  let intra =
    List.filter_map
      (fun (e : Depgraph.edge) ->
        if Hashtbl.mem in_graph e.Depgraph.src && Hashtbl.mem in_graph e.Depgraph.dst
        then
          Some { gsrc = e.Depgraph.src; gdst = e.Depgraph.dst; gprob = e.Depgraph.prob }
        else None)
      intra_all
  in
  let layout =
    layout ~op_nodes ~vc_pseudo:(List.map pseudo_of_vc vcs) (initial @ intra)
  in
  let per_op f = Array.of_list (List.map f op_nodes) in
  Spt_obs.Metrics.inc m_builds;
  Spt_obs.Metrics.add m_graph_nodes (List.length op_nodes);
  {
    graph;
    vcs;
    op_nodes;
    initial;
    intra;
    layout;
    op_cost =
      per_op (fun iid ->
          float_of_int (Ir.op_cost (Depgraph.instr graph iid).Ir.kind));
    op_freq = per_op (Depgraph.freq graph);
  }

(* ------------------------------------------------------------------ *)
(* Partition evaluation *)

(* re-execution probability by layout position; the pre-fork region's
   operations are left to the caller *)
let probs ~combine t ~prefork =
  let vc_prob p =
    let vc = vc_of_pseudo p in
    if Iset.mem vc prefork then 0.0 else Depgraph.violation_prob t.graph vc
  in
  match combine with
  | `Per_seed -> propagate_per_seed t.layout ~vc_prob
  | (`Independent | `Max_rule) as combine -> propagate ~combine t.layout ~vc_prob

(** Re-execution probability of every operation node of the cost graph
    for the partition whose pre-fork *statement* set is [prefork]
    (instruction iids, as produced by {!Partition.closure}). *)
let reexec_probs ?(combine = `Per_seed) t ~prefork =
  let v = to_table t.layout (probs ~combine t ~prefork) in
  (* operations in the pre-fork region execute before the fork and
     cannot be misspeculated *)
  Iset.iter (fun iid -> if Hashtbl.mem v iid then Hashtbl.replace v iid 0.0) prefork;
  v

(** Misspeculation cost of a partition (§4.2.4): expected amount of
    re-executed computation per speculative iteration, in elementary
    operation units. *)
let misspeculation_cost ?(combine = `Per_seed) t ~prefork =
  Spt_obs.Metrics.inc m_evaluations;
  let v = probs ~combine t ~prefork in
  let cost = ref 0.0 in
  Array.iteri
    (fun k p ->
      if not (Iset.mem t.layout.ids.(p) prefork) then
        (* Cost(c) weighted by executions per iteration: an operation
           in a nested loop re-executes once per inner trip *)
        cost := !cost +. (v.(p) *. t.op_cost.(k) *. t.op_freq.(k)))
    t.layout.ops;
  !cost

(** A partition cost normalized to the loop body: the predicted
    per-iteration misspeculation fraction.  This is the model-side
    quantity the Fig. 19 comparison and the feedback loop's divergence
    detector both put next to observed runtime misspeculation. *)
let predicted_fraction ~cost ~body_size = cost /. Float.max 1.0 body_size

(* ------------------------------------------------------------------ *)
(* K-deep misspeculation pricing.  The runtime keeps up to K chunks
   (epochs) in flight; a violated head kills every in-flight successor
   (they chained through its refuted state).  A violation therefore
   costs the offender's re-execution plus, on average, half the window
   of successor work thrown away — the kill cascade. *)

let depth_candidates = [ 1; 2; 4; 8 ]

let chunk_violation_prob ~iter_prob ~chunk =
  let p = Float.max 0.0 (Float.min 1.0 iter_prob) in
  1.0 -. ((1.0 -. p) ** float_of_int (max 1 chunk))

(* Expected kill-cascade cost of one violation at depth [k], in
   chunk-execution units: the offender replays serially (1) and on
   average (k-1)/2 in-flight successors die with it. *)
let cascade_factor ~depth = 1.0 +. (float_of_int (max 1 depth - 1) /. 2.0)

(* Expected relative cost per retired chunk at depth [k]: the 1/k term
   is the pipelining gain (backbone prediction and ordered commit are
   amortized over k in-flight epochs), the second term the expected
   kill-cascade loss. *)
let depth_cost ~chunk_prob ~depth =
  let k = max 1 depth in
  (1.0 /. float_of_int k) +. (chunk_prob *. cascade_factor ~depth:k)

(* Deliberately independent of the worker count: a baked-in record must
   not depend on SPT_JOBS (the artifact cache key does not carry it);
   the runtime caps the effective depth at its window instead. *)
let pick_depth ~cost ~body_size ~chunk =
  let p_chunk =
    chunk_violation_prob ~iter_prob:(predicted_fraction ~cost ~body_size) ~chunk
  in
  List.fold_left
    (fun best k ->
      if depth_cost ~chunk_prob:p_chunk ~depth:k
         < depth_cost ~chunk_prob:p_chunk ~depth:best
      then k
      else best)
    1 depth_candidates

(** Cost graph rendered to DOT, mirroring Fig. 6 (pseudo-nodes boxed as
    ellipses). *)
let to_dot t =
  let g = Spt_util.Dot.create "costgraph" in
  List.iter
    (fun vc ->
      Spt_util.Dot.add_node ~shape:"ellipse" g ~id:(pseudo_of_vc vc)
        ~label:(Printf.sprintf "VC' i%d" vc))
    t.vcs;
  List.iter
    (fun iid ->
      let i = Depgraph.instr t.graph iid in
      Spt_util.Dot.add_node g ~id:iid
        ~label:(Format.asprintf "i%d: %a" iid Ir_pretty.pp_kind i.Ir.kind))
    t.op_nodes;
  List.iter
    (fun e ->
      Spt_util.Dot.add_edge g ~src:e.gsrc ~dst:e.gdst
        ~label:(Printf.sprintf "%.2f" e.gprob))
    (t.initial @ t.intra);
  Spt_util.Dot.render g
