(** Optimal SPT loop partitioning (§5).

    A partition is defined by the set of violation candidates moved to
    the pre-fork region; the actual pre-fork *statement* set is the
    backward closure of those candidates over all intra-iteration
    dependence edges (true, anti, output, control), which is exactly
    the legality rule "maintain all forward intra-iteration dependence
    edges".

    The search is the paper's branch-and-bound over the VC-dependence
    graph: candidates are added in increasing topological order (so no
    partition is visited twice), a partition whose pre-fork size
    exceeds the threshold is not expanded (heuristic 1 — size is
    monotone in the set), and a subtree whose cost lower bound (cost of
    the partition extended with *every* still-addable candidate — cost
    is antitone in the set) already exceeds the incumbent is pruned
    (heuristic 2). *)

open Spt_ir
open Spt_depgraph
open Spt_cost
module Iset = Set.Make (Int)

(* observability: search-effort counters (no-ops unless metrics are
   enabled; the handles are interned once at module load) *)
let m_searches = Spt_obs.Metrics.counter "partition.searches"
let m_nodes = Spt_obs.Metrics.counter "partition.nodes_explored"
let m_pruned_threshold = Spt_obs.Metrics.counter "partition.pruned_by_threshold"
let m_pruned_bound = Spt_obs.Metrics.counter "partition.pruned_by_bound"
let m_too_many_vcs = Spt_obs.Metrics.counter "partition.too_many_vcs"
let m_budget_hits = Spt_obs.Metrics.counter "partition.budget_hits"
let h_vcs = Spt_obs.Metrics.histogram "partition.vcs_per_loop"

(* ------------------------------------------------------------------ *)
(* Statement closure *)

(** [ancestors g iid] — [iid] plus all its intra-iteration dependence
    ancestors: the statements that must accompany it into the pre-fork
    region.  [ancestors g] builds the motion-edge predecessor table
    once; every [iid] it is applied to shares it. *)
let ancestors (g : Depgraph.t) =
  let preds_tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Depgraph.edge) ->
      Hashtbl.replace preds_tbl e.Depgraph.dst
        (e.Depgraph.src
        :: Option.value ~default:[] (Hashtbl.find_opt preds_tbl e.Depgraph.dst)))
    (Depgraph.motion_edges g);
  fun iid ->
    let seen = ref Iset.empty in
    let rec go n =
      if not (Iset.mem n !seen) then begin
        seen := Iset.add n !seen;
        List.iter go (Option.value ~default:[] (Hashtbl.find_opt preds_tbl n))
      end
    in
    go iid;
    !seen

(** Pre-fork statement set for a set of chosen violation candidates. *)
let closure (_g : Depgraph.t) ~anc vcs =
  Iset.fold (fun vc acc -> Iset.union (anc vc) acc) vcs Iset.empty

(** Static size of a statement set in elementary operations.
    Statements in the loop-header block are excluded: they execute
    before the fork point by position (the header holds the exit test
    and the phis), so they cost no extra sequential time. *)
let size_of (g : Depgraph.t) stmts =
  let header = g.Depgraph.loop.Loops.header in
  Iset.fold
    (fun iid acc ->
      if Depgraph.block_of g iid = header then acc
      else acc + Ir.op_cost (Depgraph.instr g iid).Ir.kind)
    stmts 0

(** Static size of the whole loop body. *)
let body_size (g : Depgraph.t) =
  List.fold_left
    (fun acc iid -> acc + Ir.op_cost (Depgraph.instr g iid).Ir.kind)
    0 g.Depgraph.nodes

(* ------------------------------------------------------------------ *)
(* VC-dependence graph (§5.1) *)

type vc_graph = {
  vcs : int array;  (** in topological order *)
  topo_of : (int, int) Hashtbl.t;  (** iid -> topological index *)
  vc_preds : Iset.t array;  (** per topological index, indices of
                                VC-dep predecessors *)
}

let build_vc_graph_of (_g : Depgraph.t) ~anc vcs =
  (* direct-or-indirect dependence: vc2 depends on vc1 iff vc1 is among
     vc2's intra-iteration ancestors *)
  let dependent_on vc2 vc1 = vc1 <> vc2 && Iset.mem vc1 (anc vc2) in
  let succs vc1 = List.filter (fun vc2 -> dependent_on vc2 vc1) vcs in
  let sorted = Spt_util.Topo_sort.sort ~nodes:vcs ~succs in
  let arr = Array.of_list sorted in
  let topo_of = Hashtbl.create 16 in
  Array.iteri (fun i vc -> Hashtbl.replace topo_of vc i) arr;
  let vc_preds =
    Array.map
      (fun vc ->
        List.fold_left
          (fun acc vc1 ->
            if dependent_on vc vc1 then Iset.add (Hashtbl.find topo_of vc1) acc
            else acc)
          Iset.empty vcs)
      arr
  in
  { vcs = arr; topo_of; vc_preds }

let build_vc_graph (g : Depgraph.t) ~anc =
  build_vc_graph_of g ~anc (Depgraph.violation_candidates g)

(* ------------------------------------------------------------------ *)
(* Search *)

type options = {
  max_vcs : int;  (** skip loops with more candidates (§5.2.1; paper: 30) *)
  prefork_size_limit : int;  (** absolute threshold in operations *)
  node_budget : int;  (** hard cap on explored partitions *)
  use_pruning : bool;  (** disable only for the ablation benchmark *)
  vc_filter : int -> bool;
      (** candidates failing this predicate are never moved — the
          driver retries with a filter when the optimal partition turns
          out to be untransformable (e.g. it reaches into a nested
          loop) *)
}

let default_options ~body_size =
  {
    max_vcs = 30;
    (* §6.1 criterion 2: pre-fork region below a fraction of the body *)
    prefork_size_limit = max 6 (body_size / 3);
    node_budget = 50_000;
    use_pruning = true;
    vc_filter = (fun _ -> true);
  }

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
  exhausted : bool;  (** search completed within the node budget *)
}

let chosen r = Iset.elements r.chosen_vcs

type outcome = Found of result | Too_many_vcs of int

(** Find the minimum-misspeculation-cost legal partition of [g] whose
    pre-fork region fits the size threshold. *)
let search ?(options = None) (cm : Cost_model.t) (g : Depgraph.t) : outcome =
  let bsize = body_size g in
  let opts = match options with Some o -> o | None -> default_options ~body_size:bsize in
  let anc_cache = Hashtbl.create 16 in
  let ancestors = ancestors g in
  let anc iid =
    match Hashtbl.find_opt anc_cache iid with
    | Some s -> s
    | None ->
      let s = ancestors iid in
      Hashtbl.replace anc_cache iid s;
      s
  in
  let g_filtered_vcs =
    List.filter opts.vc_filter (Depgraph.violation_candidates g)
  in
  let vcg = build_vc_graph_of g ~anc g_filtered_vcs in
  let n = Array.length vcg.vcs in
  Spt_obs.Metrics.inc m_searches;
  Spt_obs.Metrics.observe h_vcs (float_of_int n);
  if n > opts.max_vcs then begin
    Spt_obs.Metrics.inc m_too_many_vcs;
    Too_many_vcs n
  end
  else begin
    let explored = ref 0 in
    let cut_threshold = ref 0 in
    let cut_bound = ref 0 in
    let best = ref None in
    let budget_hit = ref false in
    let eval vcs_set =
      let prefork = closure g ~anc vcs_set in
      let psize = size_of g prefork in
      let cost = Cost_model.misspeculation_cost cm ~prefork in
      (prefork, psize, cost)
    in
    let better cost psize =
      match !best with
      | None -> true
      | Some (_, _, bcost, bpsize) ->
        cost < bcost -. 1e-12
        || (Float.abs (cost -. bcost) <= 1e-12 && psize < bpsize)
    in
    (* indices of VCs with topological number > last whose predecessors
       are all in the set *)
    let rec dfs set_indices vcs_set last =
      if !explored >= opts.node_budget then budget_hit := true
      else begin
        incr explored;
        let prefork, psize, cost = eval vcs_set in
        let feasible = psize <= opts.prefork_size_limit in
        if feasible && better cost psize then
          best := Some (vcs_set, prefork, cost, psize);
        (* heuristic 1: size is monotone — an oversize partition cannot
           have feasible descendants *)
        if (not feasible) && opts.use_pruning then incr cut_threshold;
        if feasible || not opts.use_pruning then begin
          (* heuristic 2: optimistic bound with every addable VC moved *)
          let addable =
            List.filter
              (fun i ->
                i > last && Iset.subset vcg.vc_preds.(i) set_indices)
              (List.init n Fun.id)
          in
          let skip_subtree =
            opts.use_pruning
            &&
            match !best with
            | None -> false
            | Some (_, _, bcost, _) ->
              let all_addable =
                List.filter (fun i -> i > last) (List.init n Fun.id)
              in
              let full_set =
                List.fold_left
                  (fun acc i -> Iset.add vcg.vcs.(i) acc)
                  vcs_set all_addable
              in
              let _, _, lb_cost = eval full_set in
              lb_cost > bcost +. 1e-12
          in
          if skip_subtree then incr cut_bound;
          if not skip_subtree then
            List.iter
              (fun i ->
                if not !budget_hit then
                  dfs (Iset.add i set_indices)
                    (Iset.add vcg.vcs.(i) vcs_set)
                    i)
              addable
        end
      end
    in
    dfs Iset.empty Iset.empty (-1);
    Spt_obs.Metrics.add m_nodes !explored;
    Spt_obs.Metrics.add m_pruned_threshold !cut_threshold;
    Spt_obs.Metrics.add m_pruned_bound !cut_bound;
    if !budget_hit then Spt_obs.Metrics.inc m_budget_hits;
    match !best with
    | Some (vcs_set, prefork, cost, psize) ->
      Found
        {
          chosen_vcs = vcs_set;
          prefork;
          cost;
          prefork_size = psize;
          body = bsize;
          nodes_explored = !explored;
          pruned_by_threshold = !cut_threshold;
          pruned_by_bound = !cut_bound;
          exhausted = not !budget_hit;
        }
    | None ->
      (* the empty partition is always feasible (size 0) — reaching here
         means even it was rejected, which cannot happen *)
      assert false
  end
