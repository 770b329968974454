(** Annotated data-dependence graph of one loop body (§4.1).

    Nodes are the loop-body instructions (operations, per §4.2.2).
    Edges carry a kind, a cross-iteration flag and a probability:

    - register true dependences come from SSA def-use chains; the
      cross-iteration ones are exactly the loop-header phi operands that
      are defined inside the body (the def is the violation candidate,
      the phi its first reader in the next iteration);
    - memory true dependences connect may-aliasing store/load pairs
      (calls participate through their static effect summaries); their
      probabilities come from the dependence profiler when one is
      supplied, otherwise from the conservative type-based static
      default — the difference between the paper's `basic` and `best`
      compilations;
    - anti and output memory dependences are tracked intra-iteration
      only: they are the code-motion legality constraints of §5
      ("maintain all forward intra-iteration dependence edges");
    - control dependences link each branch's condition to the
      instructions it guards, via post-dominance on the acyclic
      one-iteration body. *)

open Spt_ir
open Spt_profile
module Iset = Set.Make (Int)

(* observability counters (no-ops unless metrics are enabled) *)
let m_builds = Spt_obs.Metrics.counter "depgraph.builds"
let m_nodes = Spt_obs.Metrics.counter "depgraph.nodes"
let m_edges = Spt_obs.Metrics.counter "depgraph.edges"

type dep_kind = Reg_true | Mem_true | Mem_anti | Mem_output | Control

let string_of_kind = function
  | Reg_true -> "reg"
  | Mem_true -> "mem"
  | Mem_anti -> "anti"
  | Mem_output -> "out"
  | Control -> "ctrl"

type edge = { src : int; dst : int; kind : dep_kind; cross : bool; prob : float }

type config = {
  dep_profile : Dep_profile.t option;
  edge_profile : Edge_profile.t option;
  static_mem_prob : float;
      (** probability assigned to may-aliasing pairs without profile
          data; 1.0 reproduces the paper's type-based basic compilation *)
  include_control : bool;  (** put control edges in the graph (ablation) *)
  violation_overrides : (int * float) list;
      (** per-instruction violation-probability overrides; the SVP
          transform registers its predicted carried values here with
          their profiled misprediction rates (§7.2) *)
  alias_model : [ `Exact | `Type_based ];
      (** [`Exact]: two named regions alias only when identical.
          [`Type_based] mimics ORC's type-based disambiguation on C —
          where most data sits behind pointers, so any two same-typed
          objects may alias.  The paper's `basic` compilation has only
          this plus edge profiling (§8), which is precisely why it finds
          so little speculative parallelism. *)
  sym_ty : int -> Ir.ty option;
      (** element type per region sid (for [`Type_based]); [None] for
          pseudo regions *)
}

let default_config =
  {
    dep_profile = None;
    edge_profile = None;
    static_mem_prob = 1.0;
    include_control = true;
    violation_overrides = [];
    alias_model = `Exact;
    sym_ty = (fun _ -> None);
  }

type t = {
  func : Ir.func;
  loop : Loops.loop;
  config : config;
  nodes : int list;  (** instruction iids, in body order *)
  instr_tbl : (int, Ir.instr * int * int) Hashtbl.t;
      (** iid -> (instr, bid, position in block) *)
  edges : edge list;
  succs : (int, edge list) Hashtbl.t;
  preds : (int, edge list) Hashtbl.t;
  exec_prob : (int, float) Hashtbl.t;
  freq : (int, float) Hashtbl.t;
      (** uncapped executions per loop iteration (> 1 inside nested
          loops); the cost model weighs Cost(c) by this *)
  header_phis : int list;
  violation_tbl : (int, float) Hashtbl.t;
      (** refined violation probabilities (§4.2.3 step 1): a
          join phi that merely passes a loop-carried value through on
          most iterations (the reduction / conditional-update pattern)
          only *modifies its result* when a modifying arm executes *)
}

let instr t iid =
  match Hashtbl.find_opt t.instr_tbl iid with
  | Some (i, _, _) -> i
  | None -> invalid_arg (Printf.sprintf "Depgraph.instr: %d not in loop body" iid)

let block_of t iid =
  match Hashtbl.find_opt t.instr_tbl iid with
  | Some (_, bid, _) -> bid
  | None -> invalid_arg "Depgraph.block_of"

let mem t iid = Hashtbl.mem t.instr_tbl iid
let succs t iid = Option.value ~default:[] (Hashtbl.find_opt t.succs iid)
let preds t iid = Option.value ~default:[] (Hashtbl.find_opt t.preds iid)
let exec_prob t iid = Option.value ~default:1.0 (Hashtbl.find_opt t.exec_prob iid)
let freq t iid = Option.value ~default:1.0 (Hashtbl.find_opt t.freq iid)

(* ------------------------------------------------------------------ *)
(* Access sets: which regions an instruction may read / write *)

type access = { syms : Iset.t; params : Iset.t }

let no_access = { syms = Iset.empty; params = Iset.empty }
let is_empty_access a = Iset.is_empty a.syms && Iset.is_empty a.params

let access_of_region = function
  | Ir.Rsym s -> { no_access with syms = Iset.singleton s.Ir.sid }
  | Ir.Rparam (slot, _) -> { no_access with params = Iset.singleton slot }

let reads_writes effects_tbl (i : Ir.instr) =
  match i.Ir.kind with
  | Ir.Load (_, r, _) -> (access_of_region r, no_access)
  | Ir.Store (r, _, _) -> (no_access, access_of_region r)
  | Ir.Call _ ->
    let s = Effects.call_site_effects effects_tbl i in
    ( { syms = s.Effects.sym_reads; params = s.Effects.param_reads },
      { syms = s.Effects.sym_writes; params = s.Effects.param_writes } )
  | _ -> (no_access, no_access)

(* Parameters may alias any real (non-pseudo) global region and any
   other parameter; pseudo regions (rng, io) only alias themselves.
   Under the type-based model, two distinct real regions of the same
   element type may alias as well. *)
let may_alias config a b =
  let has_real x = Iset.exists (fun sid -> sid >= 0) x.syms in
  (not (Iset.disjoint a.syms b.syms))
  || ((not (Iset.is_empty a.params)) && (has_real b || not (Iset.is_empty b.params)))
  || ((not (Iset.is_empty b.params)) && has_real a)
  || (config.alias_model = `Type_based
     && Iset.exists
          (fun sa ->
            match config.sym_ty sa with
            | None -> false
            | Some ta ->
              Iset.exists (fun sb -> config.sym_ty sb = Some ta) b.syms)
          a.syms)

(* ------------------------------------------------------------------ *)
(* Post-dominance and control dependence on the one-iteration body DAG *)

(* The body as an acyclic one-iteration graph.  The outer loop's own
   back edges become edges to a virtual sink (-1), as do loop exits.
   A back edge of a loop *nested in the body* is different: within one
   outer iteration, control re-runs the inner test and eventually
   leaves through the inner loop's exits — so the inner back edge is
   redirected to those exit targets.  (Routing it to the sink instead
   would make everything after an inner loop spuriously
   control-dependent on it.)  Each body block's successors are computed
   once; the returned function looks them up. *)
let body_dag (f : Ir.func) (loop : Loops.loop) =
  let dom = Dominance.compute (Cfg.of_func f) in
  let body = loop.Loops.body in
  let inner_exits =
    (* inner-loop header -> exit targets inside the outer body *)
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (l : Loops.loop) ->
        if
          l.Loops.header <> loop.Loops.header
          && Loops.Iset.subset l.Loops.body body
        then
          Hashtbl.replace tbl l.Loops.header
            (List.sort_uniq compare
               (List.filter_map
                  (fun (_, target) ->
                    if Loops.Iset.mem target body then Some target else None)
                  l.Loops.exits)))
      (Loops.find f);
    tbl
  in
  let succs bid =
    let b = Ir.block f bid in
    let all = Ir.term_succs b.Ir.term in
    let keep, removed =
      List.partition
        (fun s ->
          Loops.Iset.mem s body
          && s <> loop.Loops.header
          && not (Dominance.dominates dom s bid))
        all
    in
    (* redirect removed inner back edges to their loop's exits; the
       outer back edge and true exits go to the sink *)
    let extra =
      List.concat_map
        (fun s ->
          if s <> loop.Loops.header && Loops.Iset.mem s body then
            match Hashtbl.find_opt inner_exits s with
            | Some (_ :: _ as exits) -> exits
            | _ -> [ -1 ]
          else [ -1 ])
        removed
    in
    List.sort_uniq compare (keep @ extra)
  in
  let tbl = Hashtbl.create 16 in
  Loops.Iset.iter (fun bid -> Hashtbl.replace tbl bid (succs bid)) body;
  Hashtbl.find tbl

(* postdom.(b) = set of blocks post-dominating b within the iteration *)
let postdominators ~dag:succs (loop : Loops.loop) =
  let body = Loops.Iset.elements loop.Loops.body in
  let universe = Iset.add (-1) (Iset.of_list body) in
  let pd = Hashtbl.create 16 in
  Hashtbl.replace pd (-1) (Iset.singleton (-1));
  List.iter (fun b -> Hashtbl.replace pd b universe) body;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let ss = succs b in
        let meet =
          match ss with
          | [] -> Iset.singleton (-1)  (* treat dead ends as exits *)
          | s :: rest ->
            List.fold_left
              (fun acc s' -> Iset.inter acc (Hashtbl.find pd s'))
              (Hashtbl.find pd s) rest
        in
        let next = Iset.add b meet in
        if not (Iset.equal next (Hashtbl.find pd b)) then begin
          Hashtbl.replace pd b next;
          changed := true
        end)
      body
  done;
  pd

(* For each block, the branch blocks it is control-dependent on:
   B depends on branch C iff B post-dominates some in-body successor of
   C but does not post-dominate C. *)
let control_deps_over ~dag (f : Ir.func) (loop : Loops.loop) =
  let pd = postdominators ~dag loop in
  let postdom b x = b <> -1 && Iset.mem b (Hashtbl.find pd x) in
  let deps = Hashtbl.create 16 in
  Loops.Iset.iter
    (fun c ->
      let succs_in =
        List.filter
          (fun s -> Loops.Iset.mem s loop.Loops.body && s <> loop.Loops.header)
          (Ir.term_succs (Ir.block f c).Ir.term)
      in
      if List.length (Ir.term_succs (Ir.block f c).Ir.term) >= 2 then
        Loops.Iset.iter
          (fun b ->
            if
              (not (postdom b c))
              && List.exists (fun s -> postdom b s) succs_in
            then
              Hashtbl.replace deps b
                (c :: Option.value ~default:[] (Hashtbl.find_opt deps b)))
          loop.Loops.body)
    loop.Loops.body;
  deps

let control_deps f loop = control_deps_over ~dag:(body_dag f loop) f loop

(* ------------------------------------------------------------------ *)
(* Intra-iteration ordering: can [a] execute before [b] in one
   iteration?  Same block: position order; otherwise: reachability in
   the body DAG. *)

let intra_reach ~dag:succs (loop : Loops.loop) =
  let reach = Hashtbl.create 16 in
  let rec compute bid =
    match Hashtbl.find_opt reach bid with
    | Some r -> r
    | None ->
      (* cycles are impossible in the body DAG *)
      Hashtbl.replace reach bid Iset.empty;  (* guard *)
      let r =
        List.fold_left
          (fun acc s ->
            if s = -1 then acc else Iset.union (Iset.add s (compute s)) acc)
          Iset.empty (succs bid)
      in
      Hashtbl.replace reach bid r;
      r
  in
  Loops.Iset.iter (fun b -> ignore (compute b)) loop.Loops.body;
  fun ~src ~dst -> Iset.mem dst (Hashtbl.find reach src)

(* ------------------------------------------------------------------ *)
(* Graph construction *)

let build ?(config = default_config) effects_tbl (f : Ir.func) (loop : Loops.loop) =
  let body_blocks = Loops.Iset.elements loop.Loops.body in
  let instr_tbl = Hashtbl.create 64 in
  let nodes = ref [] in
  List.iter
    (fun bid ->
      List.iteri
        (fun pos (i : Ir.instr) ->
          Hashtbl.replace instr_tbl i.Ir.iid (i, bid, pos);
          nodes := i.Ir.iid :: !nodes)
        (Ir.block f bid).Ir.instrs)
    body_blocks;
  let nodes = List.rev !nodes in
  (* execution probability (capped at 1) and execution frequency
     (uncapped — an instruction in a nested loop executes several times
     per outer iteration and contributes that much computation) *)
  let exec_prob_tbl = Hashtbl.create 64 in
  let freq_tbl = Hashtbl.create 64 in
  let block_freq bid =
    match config.edge_profile with
    | Some ep ->
      let h = Edge_profile.block_count ep f loop.Loops.header in
      if h = 0 then 1.0
      else float_of_int (Edge_profile.block_count ep f bid) /. float_of_int h
    | None -> 1.0
  in
  List.iter
    (fun iid ->
      let _, bid, _ = Hashtbl.find instr_tbl iid in
      let fq = block_freq bid in
      Hashtbl.replace freq_tbl iid fq;
      Hashtbl.replace exec_prob_tbl iid (Float.min 1.0 fq))
    nodes;
  let edges = ref [] in
  let add_edge e = edges := e :: !edges in
  (* intra-iteration ordering, used to keep the graph acyclic: edges of
     loops nested in the body would otherwise close cycles (an
     inner-loop-carried dependence is a true dependence *within* one
     outer iteration, but flows backward in program order).  Such
     backward register edges are dropped; the forward phi→use edges
     still connect inner producers to outer consumers, so legality
     closures remain safe while the cost of repeated inner iterations
     is approximated by a single pass. *)
  (* the one-iteration body DAG, shared by the ordering and the
     control dependences *)
  let dag = body_dag f loop in
  let before =
    let reach = intra_reach ~dag loop in
    fun a b ->
      let _, ba, pa = Hashtbl.find instr_tbl a in
      let _, bb, pb = Hashtbl.find instr_tbl b in
      if ba = bb then pa < pb else reach ~src:ba ~dst:bb
  in
  (* --- register true dependences (SSA def-use) --- *)
  let def_site = Hashtbl.create 64 in
  List.iter
    (fun iid ->
      let i, _, _ = Hashtbl.find instr_tbl iid in
      match Ir.def_of_kind i.Ir.kind with
      | Some d -> Hashtbl.replace def_site d.Ir.vid iid
      | None -> ())
    nodes;
  let header_phis = ref [] in
  let latch_set = Iset.of_list loop.Loops.latches in
  List.iter
    (fun iid ->
      let i, bid, _ = Hashtbl.find instr_tbl iid in
      match i.Ir.kind with
      | Ir.Phi (_, ins) when bid = loop.Loops.header ->
        header_phis := iid :: !header_phis;
        (* operands arriving over back edges: cross-iteration true deps *)
        List.iter
          (fun (p, o) ->
            match o with
            | Ir.Reg v when Iset.mem p latch_set -> (
              match Hashtbl.find_opt def_site v.Ir.vid with
              | Some src ->
                add_edge { src; dst = iid; kind = Reg_true; cross = true; prob = 1.0 }
              | None -> () (* defined outside: loop-invariant, no dependence *))
            | _ -> ())
          ins
      | k ->
        (* ordinary uses, and operands of non-header phis: intra edges *)
        let use_vars =
          match k with
          | Ir.Phi (_, ins) ->
            List.filter_map (fun (_, o) -> match o with Ir.Reg v -> Some v | _ -> None) ins
          | k -> Ir.reg_uses_of_kind k
        in
        List.iter
          (fun v ->
            match Hashtbl.find_opt def_site v.Ir.vid with
            | Some src when src <> iid && before src iid ->
              let p_src = Hashtbl.find exec_prob_tbl src in
              let p_dst = Hashtbl.find exec_prob_tbl iid in
              let prob = if p_src <= 0.0 then 1.0 else min 1.0 (p_dst /. p_src) in
              add_edge { src; dst = iid; kind = Reg_true; cross = false; prob }
            | _ -> ())
          use_vars)
    nodes;
  (* uses of header-phi defs: intra edges phi -> use, handled above
     because the phi is the def site. *)
  (* --- memory dependences --- *)
  let loop_key = (f.Ir.fname, loop.Loops.header) in
  let mem_nodes =
    List.filter_map
      (fun iid ->
        let i, _, _ = Hashtbl.find instr_tbl iid in
        let reads, writes = reads_writes effects_tbl i in
        if is_empty_access reads && is_empty_access writes then None
        else Some (iid, reads, writes))
      nodes
  in
  let profiled kind ~w ~r =
    match config.dep_profile with
    | Some dp when Dep_profile.observed dp loop_key ->
      Dep_profile.dep_prob dp loop_key ~w ~r kind
    | _ -> None
  in
  List.iter
    (fun (w_iid, _, w_writes) ->
      if not (is_empty_access w_writes) then
        List.iter
          (fun (r_iid, r_reads, r_writes) ->
            (* true dependences W -> R *)
            if may_alias config w_writes r_reads then begin
              (* intra: only if W can precede R in an iteration *)
              if w_iid <> r_iid && before w_iid r_iid then begin
                let prob =
                  match profiled Dep_profile.Intra ~w:w_iid ~r:r_iid with
                  | Some p -> p
                  | None -> config.static_mem_prob
                in
                if prob > 0.0 then
                  add_edge
                    { src = w_iid; dst = r_iid; kind = Mem_true; cross = false; prob }
              end;
              (* cross at distance 1: any position pair *)
              let prob =
                match profiled Dep_profile.Cross1 ~w:w_iid ~r:r_iid with
                | Some p -> p
                | None -> config.static_mem_prob
              in
              if prob > 0.0 then
                add_edge
                  { src = w_iid; dst = r_iid; kind = Mem_true; cross = true; prob }
            end;
            (* anti dependence R(read) before W(write): legality edge
               R -> W, meaning W may not move above R *)
            if
              w_iid <> r_iid
              && may_alias config r_reads w_writes
              && before r_iid w_iid
            then
              add_edge
                { src = r_iid; dst = w_iid; kind = Mem_anti; cross = false; prob = 1.0 };
            (* output dependence W before W' *)
            if
              w_iid <> r_iid
              && may_alias config w_writes r_writes
              && before w_iid r_iid
            then
              add_edge
                { src = w_iid; dst = r_iid; kind = Mem_output; cross = false; prob = 1.0 })
          mem_nodes)
    mem_nodes;
  (* --- control dependences --- *)
  if config.include_control then begin
    let cdeps = control_deps_over ~dag f loop in
    let cond_def_of_block = Hashtbl.create 8 in
    Loops.Iset.iter
      (fun bid ->
        match (Ir.block f bid).Ir.term with
        | Ir.Br (Ir.Reg v, _, _) -> (
          match Hashtbl.find_opt def_site v.Ir.vid with
          | Some iid -> Hashtbl.replace cond_def_of_block bid iid
          | None -> ())
        | _ -> ())
      loop.Loops.body;
    (* a join phi's *value* is selected by the branches its predecessors
       are guarded by: re-executing such a branch's condition reselects
       the phi, so the condition is a control ancestor of the phi (this
       also keeps cloned conditional regions self-contained: the
       pre-fork closure of a moved join phi includes its condition) *)
    let ctrl_blocks_for iid =
      let i, bid, _ = Hashtbl.find instr_tbl iid in
      let direct = Option.value ~default:[] (Hashtbl.find_opt cdeps bid) in
      match i.Ir.kind with
      | Ir.Phi (_, ins) when bid <> loop.Loops.header ->
        (* only the immediately selecting branches: a predecessor that
           is itself a branch block (the direct branch→join edge), or
           the single branch guarding a predecessor.  Transitive guards
           are deliberately left out — the independence combination rule
           would count the same upstream cause once per join otherwise. *)
        let from_preds =
          List.filter_map
            (fun (p, _) ->
              if Hashtbl.mem cond_def_of_block p then Some p
              else
                match Hashtbl.find_opt cdeps p with
                | Some [ c ] -> Some c
                | _ -> None)
            ins
        in
        List.sort_uniq compare (direct @ from_preds)
      | _ -> direct
    in
    List.iter
      (fun iid ->
        List.iter
          (fun cblk ->
            match Hashtbl.find_opt cond_def_of_block cblk with
            | Some cond_iid when cond_iid <> iid && before cond_iid iid ->
              let p_c = Hashtbl.find exec_prob_tbl cond_iid in
              let p_i = Hashtbl.find exec_prob_tbl iid in
              let prob = if p_c <= 0.0 then 1.0 else min 1.0 (p_i /. p_c) in
              add_edge
                { src = cond_iid; dst = iid; kind = Control; cross = false; prob }
            | _ -> ())
          (ctrl_blocks_for iid))
      nodes
  end;
  (* dedupe edges (same src/dst/kind/cross), keeping the max prob *)
  let dedup = Hashtbl.create 256 in
  List.iter
    (fun e ->
      let key = (e.src, e.dst, e.kind, e.cross) in
      match Hashtbl.find_opt dedup key with
      | Some e' when e'.prob >= e.prob -> ()
      | _ -> Hashtbl.replace dedup key e)
    !edges;
  let edges = Hashtbl.fold (fun _ e acc -> e :: acc) dedup [] in
  let succs_tbl = Hashtbl.create 64 and preds_tbl = Hashtbl.create 64 in
  let push tbl k e =
    Hashtbl.replace tbl k (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun e ->
      push succs_tbl e.src e;
      push preds_tbl e.dst e)
    edges;
  (* refined violation probabilities for conditional-update join phis:
     z = phi(p_keep: h, p_mod: new) where h is a header phi carrying z
     back — z's result is modified only when a modifying predecessor
     executes, so the violation probability is the modifying arms'
     combined edge probability rather than 1 *)
  let violation_tbl = Hashtbl.create 8 in
  (match config.edge_profile with
  | None -> ()
  | Some ep ->
    let header_count =
      Spt_profile.Edge_profile.block_count ep f loop.Loops.header
    in
    if header_count > 0 then begin
      (* header phi vid -> its latch-operand defining iid *)
      let latch_set = Iset.of_list loop.Loops.latches in
      let carried_back = Hashtbl.create 8 in
      List.iter
        (fun iid ->
          match (Hashtbl.find instr_tbl iid : Ir.instr * int * int) with
          | { Ir.kind = Ir.Phi (h, ins); _ }, _, _ ->
            List.iter
              (fun (p, o) ->
                match o with
                | Ir.Reg v when Iset.mem p latch_set ->
                  Hashtbl.replace carried_back v.Ir.vid h.Ir.vid
                | _ -> ())
              ins
          | _ -> ())
        !header_phis;
      List.iter
        (fun iid ->
          let i, zbid, _ = Hashtbl.find instr_tbl iid in
          match i.Ir.kind with
          | Ir.Phi (z, ins)
            when zbid <> loop.Loops.header
                 && Hashtbl.find_opt carried_back z.Ir.vid <> None ->
            (* z feeds a header phi h; operands whose value *is* h are
               pass-throughs *)
            let hvid = Hashtbl.find carried_back z.Ir.vid in
            let pass_through o =
              match o with
              | Ir.Reg v -> (
                match Hashtbl.find_opt def_site v.Ir.vid with
                | Some def_iid -> (
                  match (Hashtbl.find instr_tbl def_iid : Ir.instr * int * int) with
                  | { Ir.kind = Ir.Phi (h, _); _ }, hb, _ ->
                    hb = loop.Loops.header && h.Ir.vid = hvid
                  | _ -> false)
                | None -> false)
              | _ -> false
            in
            let modifying_prob =
              List.fold_left
                (fun acc (p, o) ->
                  if pass_through o then acc
                  else
                    acc
                    +. float_of_int
                         (Spt_profile.Edge_profile.edge_count ep f ~src:p
                            ~dst:zbid)
                       /. float_of_int header_count)
                0.0 ins
            in
            Hashtbl.replace violation_tbl iid (Float.min 1.0 modifying_prob)
          | _ -> ())
        nodes
    end);
  Spt_obs.Metrics.inc m_builds;
  Spt_obs.Metrics.add m_nodes (List.length nodes);
  Spt_obs.Metrics.add m_edges (List.length edges);
  {
    func = f;
    loop;
    config;
    nodes;
    instr_tbl;
    edges;
    succs = succs_tbl;
    preds = preds_tbl;
    exec_prob = exec_prob_tbl;
    freq = freq_tbl;
    header_phis = List.rev !header_phis;
    violation_tbl;
  }

(* ------------------------------------------------------------------ *)
(* Derived views *)

(** Cross-iteration true-dependence edges. *)
let cross_edges t =
  List.filter (fun e -> e.cross && (e.kind = Reg_true || e.kind = Mem_true)) t.edges

(** Violation candidates (§4.2.1): sources of cross-iteration true
    dependences, in deterministic order. *)
let violation_candidates t =
  List.sort_uniq compare (List.map (fun e -> e.src) (cross_edges t))

(** Intra-iteration edges of the kinds that constrain code motion
    (true, anti, output, control). *)
let motion_edges t =
  List.filter
    (fun e ->
      (not e.cross)
      &&
      match e.kind with
      | Reg_true | Mem_true | Mem_anti | Mem_output | Control -> true)
    t.edges

(** Intra-iteration *true* dependence edges (register, memory, and
    control when configured) — the propagation edges of the cost graph. *)
let intra_true_edges t =
  List.filter
    (fun e ->
      (not e.cross)
      && (e.kind = Reg_true || e.kind = Mem_true
         || (e.kind = Control && t.config.include_control)))
    t.edges

(** Violation probability of a node (§4.2.3 step 1): how often per
    iteration the statement executes and modifies its result — or the
    registered override (SVP misprediction rate) when one exists. *)
let violation_prob t iid =
  match List.assoc_opt iid t.config.violation_overrides with
  | Some p -> p
  | None -> (
    match Hashtbl.find_opt t.violation_tbl iid with
    | Some p -> p
    | None -> exec_prob t iid)

(** Render to DOT (dashed = cross-iteration), mirroring Fig. 5. *)
let to_dot t =
  let g = Spt_util.Dot.create "depgraph" in
  List.iter
    (fun iid ->
      let i, bid, _ = Hashtbl.find t.instr_tbl iid in
      Spt_util.Dot.add_node g ~id:iid
        ~label:(Format.asprintf "bb%d i%d: %a" bid iid Ir_pretty.pp_kind i.Ir.kind))
    t.nodes;
  List.iter
    (fun e ->
      Spt_util.Dot.add_edge g ~src:e.src ~dst:e.dst
        ~label:(Printf.sprintf "%s %.2f" (string_of_kind e.kind) e.prob)
        ~style:(if e.cross then "dashed" else "solid"))
    t.edges;
  Spt_util.Dot.render g
