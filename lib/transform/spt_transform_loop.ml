(** The SPT loop transformation (§6.2).

    Works on a function in SSA form.  Given a loop and a pre-fork
    statement set (the dependence closure of the chosen violation
    candidates, from {!Spt_partition.Partition}), it

    1. opens a pre-fork region at the top of the iteration — after the
       exit test for while/for loops (Fig. 2), after the header phis
       otherwise;
    2. *moves* the pre-fork statements there — plain SSA code motion,
       which is the paper's code reordering; the temporary variables of
       Figs. 10–11 materialize later during SSA destruction;
    3. replicates branch structure for statements moved out of
       conditionals (Fig. 12), in two flavours:
       - *exit-test guards*: a statement that sits beyond one of the
         loop's exit tests (the common case after unrolling, where each
         copy keeps its test) is emitted behind a clone of those tests,
         whose exit side skips straight to the fork;
       - *if regions*: single-level if-then / if-then-else regions with
         straight-line arms are cloned with their join phis retargeted;
         the original branch stays in the post-fork region, re-using
         the same (now pre-fork) condition value;
    4. inserts [SPT_FORK] at the end of the pre-fork region and
       [SPT_KILL] at the loop exits (Fig. 2).

    Partitions needing deeper conditional structure — or statements
    from nested inner loops — are rejected as untransformable.

    After this transformation the function is no longer strict SSA
    (a use in the post-fork region of a value moved under a cloned
    conditional is not dominated by its definition, though it is always
    dynamically defined when reached); callers must run
    {!Spt_ir.Ssa.destruct} before anything that assumes SSA. *)

open Spt_ir
open Spt_depgraph
module Iset = Set.Make (Int)

type reject =
  | Inner_loop_stmt  (** pre-fork set reaches into a nested loop *)
  | Unsupported_shape of string
      (** conditional structure beyond guard chains + single-level ifs *)

let string_of_reject = function
  | Inner_loop_stmt -> "pre-fork statement inside nested loop"
  | Unsupported_shape s -> "unsupported control shape: " ^ s

type info = {
  loop_id : int;
  header : int;  (** unchanged header bid (now phis + jump) *)
  fork_block : int;  (** block holding the SPT_FORK *)
  moved : Iset.t;  (** iids moved into the pre-fork region *)
  effective_prefork : Iset.t;
      (** moved plus header statements — everything before the fork *)
  coalesce : (int * Ir.var) list;
      (** (header-phi vid, latch-operand var) pairs whose defining
          statement was moved pre-fork.  SSA destruction must coalesce
          them ({!Spt_ir.Ssa.destruct}'s [phi_primed]) so the carried
          register is *written before the fork* — the paper's [temp_i]
          in Fig. 2.  With the default latch-placed phi copies the
          motion would be timing-inert: the speculative thread would
          still read a stale carrier and violate every iteration. *)
}

(* ------------------------------------------------------------------ *)

(* All blocks belonging to loops strictly nested inside [loop]. *)
let inner_loop_blocks (f : Ir.func) (loop : Loops.loop) =
  List.fold_left
    (fun acc (l : Loops.loop) ->
      if
        l.Loops.header <> loop.Loops.header
        && Loops.Iset.subset l.Loops.body loop.Loops.body
      then Loops.Iset.union acc l.Loops.body
      else acc)
    Loops.Iset.empty (Loops.find f)

type arm = Arm_then | Arm_else | Arm_join

(* a moved single-level conditional region *)
type region = {
  rbranch : int;  (** controlling branch block *)
  rcond : Ir.operand;
  rguards : int list;  (** exit-test guards of the region itself *)
  rmembers : (int * arm) list;
}

exception Reject of reject

(* Fault injection for the differential fuzz harness: when armed, one
   moved statement is detached but never re-emitted into the pre-fork
   region — the region-construction bug class the harness must be able
   to catch (losing the paper's temp-variable writes, Fig. 10–11). *)
let fault_drop_moved = ref false
let fault_fired = ref false

(** Apply the transformation.  [graph] must be the dependence graph the
    partition was computed on (its instruction table must not be
    stale). *)
let apply (f : Ir.func) (graph : Depgraph.t) ~(prefork : Iset.t) ~loop_id :
    (info, reject) result =
  let loop = graph.Depgraph.loop in
  let header_bid = loop.Loops.header in
  let header = Ir.block f header_bid in
  let inner = inner_loop_blocks f loop in
  let cdeps = Depgraph.control_deps f loop in
  let in_body b = Loops.Iset.mem b loop.Loops.body in
  (* exit branches: conditional branches with a successor leaving the
     loop — including the header's own test.  Statements behind them
     are re-guarded in the pre-fork region rather than treated as
     conditional. *)
  let is_exit_branch bid =
    match (Ir.block f bid).Ir.term with
    | Ir.Br (_, t, e) -> (not (in_body t)) || not (in_body e)
    | _ -> false
  in
  (* the pre-fork region opens after the header's exit test when there
     is one (Fig. 2); header statements then sit before the fork and
     must not move, and the header's test never needs re-guarding *)
  let test_header =
    match header.Ir.term with
    | Ir.Br (_, t, e) -> (
      match (in_body t, in_body e) with
      | true, false when t <> header_bid -> Some t
      | false, true when e <> header_bid -> Some e
      | _ -> None)
    | _ -> None
  in
  let raw_ctrl bid = Option.value ~default:[] (Hashtbl.find_opt cdeps bid) in
  let guards_of bid =
    List.filter
      (fun c -> is_exit_branch c && not (test_header <> None && c = header_bid))
      (raw_ctrl bid)
  in
  let if_ctrl_of bid =
    List.filter (fun c -> not (is_exit_branch c)) (raw_ctrl bid)
  in
  (* original-order key, computed before any surgery disconnects the
     body from the entry *)
  let rpo_tbl = Hashtbl.create 32 in
  List.iteri
    (fun i bid -> Hashtbl.replace rpo_tbl bid i)
    (Cfg.reverse_postorder (Cfg.of_func f));
  let order_key iid =
    match Hashtbl.find_opt graph.Depgraph.instr_tbl iid with
    | Some (_, bid, pos) ->
      (Option.value ~default:max_int (Hashtbl.find_opt rpo_tbl bid), pos)
    | None -> (max_int, max_int)
  in
  let header_iids =
    List.filter_map
      (fun (i : Ir.instr) ->
        if test_header <> None || Ir.is_phi i.Ir.kind then Some i.Ir.iid
        else None)
      header.Ir.instrs
  in
  let to_move = Iset.filter (fun iid -> not (List.mem iid header_iids)) prefork in
  (* one-iteration reachability from [entry] (never through the header) *)
  let reaches_from entry =
    let seen = ref Iset.empty in
    let rec go b =
      if (not (Iset.mem b !seen)) && in_body b && b <> header_bid then begin
        seen := Iset.add b !seen;
        List.iter go (Ir.term_succs (Ir.block f b).Ir.term)
      end
    in
    go entry;
    !seen
  in
  let branch_of_block cblk =
    match (Ir.block f cblk).Ir.term with
    | Ir.Br (c, t, e) -> Some (c, t, e)
    | _ -> None
  in
  (* ---- classification ---- *)
  (* plain statements (possibly behind exit guards) and if-regions *)
  let classify () =
    try
      let plain = ref [] in
      let region_members : (int, (int * arm) list) Hashtbl.t = Hashtbl.create 8 in
      let region_order = ref [] in
      let add_member cblk iid arm =
        if not (List.mem cblk !region_order) then
          region_order := cblk :: !region_order;
        Hashtbl.replace region_members cblk
          ((iid, arm)
          :: Option.value ~default:[] (Hashtbl.find_opt region_members cblk))
      in
      Iset.iter
        (fun iid ->
          let bid = Depgraph.block_of graph iid in
          if Loops.Iset.mem bid inner then raise (Reject Inner_loop_stmt);
          let i = Depgraph.instr graph iid in
          match (Ir.is_phi i.Ir.kind, if_ctrl_of bid) with
          | false, [] -> plain := iid :: !plain
          | false, [ c ] ->
            if if_ctrl_of c <> [] then
              raise (Reject (Unsupported_shape "nested conditional"));
            (match branch_of_block c with
            | None ->
              raise (Reject (Unsupported_shape "no branch at control block"))
            | Some (_, t_succ, e_succ) ->
              let in_t = Iset.mem bid (reaches_from t_succ) in
              let in_e = Iset.mem bid (reaches_from e_succ) in
              (match (in_t, in_e) with
              | true, false -> add_member c iid Arm_then
              | false, true -> add_member c iid Arm_else
              | _ -> raise (Reject (Unsupported_shape "ambiguous arm"))))
          | false, _ ->
            raise (Reject (Unsupported_shape "multiple controlling branches"))
          | true, [] -> (
            (* a moved phi with no if-control: either a join of an if
               region (find the branch through its preds) or a merge of
               exit-guard paths (unsupported) *)
            match i.Ir.kind with
            | Ir.Phi (_, ins) ->
              let cands =
                List.filter_map
                  (fun (p, _) ->
                    match if_ctrl_of p with
                    | [ c ] -> Some c
                    | [] ->
                      if branch_of_block p <> None && not (is_exit_branch p)
                      then Some p
                      else None
                    | _ -> None)
                  ins
              in
              (match List.sort_uniq compare cands with
              | [ c ] when if_ctrl_of c = [] -> add_member c iid Arm_join
              | [ _ ] ->
                raise (Reject (Unsupported_shape "nested conditional join"))
              | [] ->
                raise (Reject (Unsupported_shape "phi merging exit paths"))
              | _ -> raise (Reject (Unsupported_shape "join with mixed controls")))
            | _ -> assert false)
          | true, _ -> raise (Reject (Unsupported_shape "conditional phi")))
        to_move;
      let regions =
        List.rev_map
          (fun cblk ->
            match branch_of_block cblk with
            | Some (cond, _, _) ->
              {
                rbranch = cblk;
                rcond = cond;
                rguards = guards_of cblk;
                rmembers = List.rev (Hashtbl.find region_members cblk);
              }
            | None -> assert false)
          !region_order
      in
      Ok (List.rev !plain, regions)
    with Reject r -> Error r
  in
  match classify () with
  | Error r -> Error r
  | Ok (plain, regions) ->
    (* values needed by cloned branches must be available pre-fork:
       defined outside the body, a header phi / header statement, or
       themselves moved *)
    let available o =
      match o with
      | Ir.Reg v -> (
        let def_in_body =
          List.find_opt
            (fun iid ->
              match Ir.def_of_kind (Depgraph.instr graph iid).Ir.kind with
              | Some d -> Ir.Var.equal d v
              | None -> false)
            graph.Depgraph.nodes
        in
        match def_in_body with
        | None -> true (* loop-invariant *)
        | Some iid -> Iset.mem iid prefork || List.mem iid header_iids)
      | Ir.Imm_i _ | Ir.Imm_f _ -> true
    in
    let guard_cond g =
      match branch_of_block g with
      | Some (c, _, _) -> c
      | None -> invalid_arg "guard without branch"
    in
    let all_guards =
      List.sort_uniq compare
        (List.concat_map (fun iid -> guards_of (Depgraph.block_of graph iid))
           (Iset.elements to_move)
        @ List.concat_map (fun r -> r.rguards) regions)
    in
    let all_conds =
      List.map guard_cond all_guards @ List.map (fun r -> r.rcond) regions
    in
    if not (List.for_all available all_conds) then
      Error (Unsupported_shape "branch condition not available pre-fork")
    else begin
      (* ---- surgery ---- *)
      let first_p = Ir.add_block f in
      let fork_blk = Ir.add_block f in
      let rest_bid, header_stmt_owner =
        match test_header with
        | Some body_entry ->
          Cfg.retarget_term header ~old_dst:body_entry ~new_dst:first_p.Ir.bid;
          (body_entry, header)
        | None ->
          let rest_blk = Ir.add_block f in
          let phis, others =
            List.partition
              (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind)
              header.Ir.instrs
          in
          rest_blk.Ir.instrs <- others;
          rest_blk.Ir.term <- header.Ir.term;
          header.Ir.instrs <- phis;
          header.Ir.term <- Ir.Jump first_p.Ir.bid;
          (* the header's terminator (and with it every outgoing edge)
             now lives in [rest_blk]: successors' phis still name the
             header as their incoming predecessor and must be
             retargeted, or SSA destruction later places their carrier
             writes in the pre-fork header — before the values they
             copy exist *)
          List.iter
            (fun s ->
              Cfg.retarget_phis (Ir.block f s) ~old_pred:header_bid
                ~new_pred:rest_blk.Ir.bid)
            (Ir.term_succs rest_blk.Ir.term);
          (rest_blk.Ir.bid, rest_blk)
      in
      let cur = ref first_p in
      (* after the surgery above, the header's original terminator (and
         instruction suffix) live in [header_stmt_owner]; any lookup of
         a classified branch must follow it there *)
      let branch_of_block_now bid =
        let b = if bid = header_bid then header_stmt_owner else Ir.block f bid in
        match b.Ir.term with
        | Ir.Br (c, t, e) -> Some (c, t, e)
        | _ -> None
      in
      let detach iid =
        let bid = Depgraph.block_of graph iid in
        let owner = if bid = header_bid then header_stmt_owner else Ir.block f bid in
        let found = ref None in
        owner.Ir.instrs <-
          List.filter
            (fun (i : Ir.instr) ->
              if i.Ir.iid = iid then begin
                found := Some i;
                false
              end
              else true)
            owner.Ir.instrs;
        match !found with
        | Some i -> i
        | None -> invalid_arg "Spt_transform_loop: moved instruction not found"
      in
      (* emit the exit-test guards needed before a statement: each guard
         clone continues into a fresh block and bails to the fork block
         on its exit side, preserving branch polarity *)
      let emitted_guards = ref Iset.empty in
      let ensure_guards gs =
        let gs =
          List.filter (fun g -> not (Iset.mem g !emitted_guards)) gs
          |> List.sort (fun a b ->
                 compare
                   (Option.value ~default:max_int (Hashtbl.find_opt rpo_tbl a))
                   (Option.value ~default:max_int (Hashtbl.find_opt rpo_tbl b)))
        in
        List.iter
          (fun g ->
            emitted_guards := Iset.add g !emitted_guards;
            match branch_of_block_now g with
            | Some (c, t, _e) ->
              let next = Ir.add_block f in
              next.Ir.term <- Ir.Jump fork_blk.Ir.bid;
              let t_inside = in_body t in
              !cur.Ir.term <-
                (if t_inside then Ir.Br (c, next.Ir.bid, fork_blk.Ir.bid)
                 else Ir.Br (c, fork_blk.Ir.bid, next.Ir.bid));
              cur := next
            | None -> assert false)
          gs
      in
      let emit_region r =
        ensure_guards r.rguards;
        let p_then = Ir.add_block f in
        let p_else = Ir.add_block f in
        let p_join = Ir.add_block f in
        !cur.Ir.term <- Ir.Br (r.rcond, p_then.Ir.bid, p_else.Ir.bid);
        p_then.Ir.term <- Ir.Jump p_join.Ir.bid;
        p_else.Ir.term <- Ir.Jump p_join.Ir.bid;
        let t_succ =
          match branch_of_block_now r.rbranch with
          | Some (_, t, _) -> t
          | None -> assert false
        in
        let members =
          List.sort
            (fun (a, _) (b, _) -> compare (order_key a) (order_key b))
            r.rmembers
        in
        List.iter
          (fun (iid, arm) ->
            let i = detach iid in
            match arm with
            | Arm_then -> Ir.append_instr p_then i
            | Arm_else -> Ir.append_instr p_else i
            | Arm_join -> (
              match i.Ir.kind with
              | Ir.Phi (d, ins) ->
                let jbid = Depgraph.block_of graph iid in
                let then_side = reaches_from t_succ in
                let retarget (p, o) =
                  if p = r.rbranch then
                    if t_succ = jbid then (p_then.Ir.bid, o)
                    else (p_else.Ir.bid, o)
                  else if Iset.mem p then_side then (p_then.Ir.bid, o)
                  else (p_else.Ir.bid, o)
                in
                i.Ir.kind <- Ir.Phi (d, List.map retarget ins);
                Ir.append_instr p_join i
              | _ -> assert false))
          members;
        cur := p_join
      in
      (* emission stream: plain statements and regions, ordered by
         original position (a region sorts at its first statement) *)
      let items =
        List.map (fun iid -> (order_key iid, `Plain iid)) plain
        @ List.map
            (fun r ->
              let first_key =
                List.fold_left
                  (fun acc (iid, _) -> min acc (order_key iid))
                  (max_int, max_int) r.rmembers
              in
              (first_key, `Region r))
            regions
      in
      let sorted_items = List.sort compare items in
      let drop_victim =
        if not !fault_drop_moved then None
        else
          List.fold_left
            (fun acc (_, item) ->
              match item with `Plain iid -> Some iid | `Region _ -> acc)
            None sorted_items
      in
      List.iter
        (fun (_, item) ->
          match item with
          | `Plain iid ->
            ensure_guards (guards_of (Depgraph.block_of graph iid));
            let i = detach iid in
            if drop_victim = Some iid then fault_fired := true
            else Ir.append_instr !cur i
          | `Region r -> emit_region r)
        sorted_items;
      (* ---- SPT_FORK, then the rest of the iteration ---- *)
      !cur.Ir.term <- Ir.Jump fork_blk.Ir.bid;
      Ir.append_instr fork_blk (Ir.mk_instr f (Ir.Spt_fork loop_id));
      fork_blk.Ir.term <- Ir.Jump rest_bid;
      if test_header <> None then
        Cfg.retarget_phis (Ir.block f rest_bid) ~old_pred:header_bid
          ~new_pred:fork_blk.Ir.bid;
      (* ---- SPT_KILL at every outside exit target, after its phis ---- *)
      let exit_targets = List.sort_uniq compare (List.map snd loop.Loops.exits) in
      List.iter
        (fun out_bid ->
          let ob = Ir.block f out_bid in
          let ophis, orest =
            List.partition (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind) ob.Ir.instrs
          in
          ob.Ir.instrs <- ophis @ (Ir.mk_instr f (Ir.Spt_kill loop_id) :: orest))
        exit_targets;
      let effective_prefork =
        List.fold_left (fun acc iid -> Iset.add iid acc) to_move header_iids
      in
      (* carried values whose defining statement moved pre-fork: their
         phi carriers coalesce with the definition.  Each definition is
         claimed by at most one phi — after copy propagation two phis
         can share a latch operand, and priming both onto one register
         would let SSA destruction write both initial values into it
         (the later wins).  A second phi keeps its fresh intermediate. *)
      let def_site = Hashtbl.create 32 in
      Iset.iter
        (fun iid ->
          match Ir.def_of_kind (Depgraph.instr graph iid).Ir.kind with
          | Some d -> Hashtbl.replace def_site d.Ir.vid iid
          | None -> ())
        to_move;
      let latch_set = Iset.of_list loop.Loops.latches in
      let claimed = Hashtbl.create 8 in
      let coalesce =
        List.filter_map
          (fun (i : Ir.instr) ->
            match i.Ir.kind with
            | Ir.Phi (d, ins) -> (
              match
                List.find_map
                  (fun (p, o) ->
                    match o with
                    | Ir.Reg v
                      when Iset.mem p latch_set && Hashtbl.mem def_site v.Ir.vid ->
                      Some v
                    | _ -> None)
                  ins
              with
              | Some v when not (Hashtbl.mem claimed v.Ir.vid) ->
                Hashtbl.replace claimed v.Ir.vid ();
                Some (d.Ir.vid, v)
              | Some _ | None -> None)
            | _ -> None)
          header.Ir.instrs
      in
      Ok
        {
          loop_id;
          header = header_bid;
          fork_block = fork_blk.Ir.bid;
          moved = to_move;
          effective_prefork;
          coalesce;
        }
    end
