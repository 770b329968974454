(** Control-flow-graph utilities over {!Ir.func}: successor/predecessor
    maps, reverse postorder, reachability clean-up, edge splitting and
    preheader insertion.

    All analyses recompute from the function on demand; nothing is
    cached inside the IR, so transformation passes never have to keep
    derived structures consistent. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type t = {
  func : Ir.func;
  succs : int list Imap.t;
  preds : int list Imap.t;
  rpo : int list;  (** reverse postorder from the entry; only reachable blocks *)
}

let successors t bid = try Imap.find bid t.succs with Not_found -> []
let predecessors t bid = try Imap.find bid t.preds with Not_found -> []
let reverse_postorder t = t.rpo
let entry t = t.func.Ir.entry

let compute_rpo (f : Ir.func) =
  let visited = Hashtbl.create 32 in
  let order = ref [] in
  let rec dfs bid =
    if not (Hashtbl.mem visited bid) then begin
      Hashtbl.replace visited bid ();
      List.iter dfs (Ir.term_succs (Ir.block f bid).Ir.term);
      order := bid :: !order
    end
  in
  dfs f.Ir.entry;
  !order

let of_func (f : Ir.func) =
  let succs =
    List.fold_left
      (fun acc bid ->
        Imap.add bid (Ir.term_succs (Ir.block f bid).Ir.term) acc)
      Imap.empty (Ir.block_ids f)
  in
  let preds =
    Imap.fold
      (fun bid ss acc ->
        List.fold_left
          (fun acc s ->
            let existing = try Imap.find s acc with Not_found -> [] in
            if List.mem bid existing then acc else Imap.add s (existing @ [ bid ]) acc)
          acc ss)
      succs
      (List.fold_left (fun acc bid -> Imap.add bid [] acc) Imap.empty (Ir.block_ids f))
  in
  { func = f; succs; preds; rpo = compute_rpo f }

(** Delete blocks unreachable from the entry.  Phi nodes in surviving
    blocks drop operands arriving from deleted predecessors.  Returns
    the number of blocks removed. *)
let remove_unreachable (f : Ir.func) =
  let reachable = Iset.of_list (compute_rpo f) in
  let removed = ref 0 in
  List.iter
    (fun bid ->
      if not (Iset.mem bid reachable) then begin
        Ir.remove_block f bid;
        incr removed
      end)
    (Ir.block_ids f);
  if !removed > 0 then
    List.iter
      (fun bid ->
        let b = Ir.block f bid in
        b.Ir.instrs <-
          List.filter_map
            (fun (i : Ir.instr) ->
              match i.Ir.kind with
              | Ir.Phi (d, ins) -> (
                let ins = List.filter (fun (p, _) -> Iset.mem p reachable) ins in
                match ins with
                | [] -> None
                | [ (_, o) ] ->
                  i.Ir.kind <- Ir.Move (d, o);
                  Some i
                | ins ->
                  i.Ir.kind <- Ir.Phi (d, ins);
                  Some i)
              | _ -> Some i)
            b.Ir.instrs)
      (Ir.block_ids f);
  !removed

(** Redirect the [old_dst] successor of [b]'s terminator to [new_dst]. *)
let retarget_term b ~old_dst ~new_dst =
  let sub t = if t = old_dst then new_dst else t in
  b.Ir.term <-
    (match b.Ir.term with
    | Ir.Jump t -> Ir.Jump (sub t)
    | Ir.Br (c, t, e) -> Ir.Br (c, sub t, sub e)
    | Ir.Ret _ as t -> t)

(** Update phi nodes of [blk] so that operands arriving from [old_pred]
    arrive from [new_pred] instead. *)
let retarget_phis blk ~old_pred ~new_pred =
  List.iter
    (fun (i : Ir.instr) ->
      match i.Ir.kind with
      | Ir.Phi (d, ins) ->
        i.Ir.kind <-
          Ir.Phi (d, List.map (fun (p, o) -> ((if p = old_pred then new_pred else p), o)) ins)
      | _ -> ())
    blk.Ir.instrs

(** Split the edge [src -> dst] by inserting a fresh empty block.
    Returns the new block.  Phis in [dst] are retargeted. *)
let split_edge (f : Ir.func) ~src ~dst =
  let mid = Ir.add_block f in
  mid.Ir.term <- Ir.Jump dst;
  let sb = Ir.block f src in
  (* Only redirect the edges to [dst]; a conditional with both arms on
     [dst] redirects both, which preserves semantics. *)
  retarget_term sb ~old_dst:dst ~new_dst:mid.Ir.bid;
  retarget_phis (Ir.block f dst) ~old_pred:src ~new_pred:mid.Ir.bid;
  mid

(** [split_critical_edges f] inserts blocks on all edges whose source
    has several successors and whose destination has several
    predecessors.  Required before SSA destruction. *)
let split_critical_edges (f : Ir.func) =
  let t = of_func f in
  let critical =
    List.concat_map
      (fun src ->
        let ss = successors t src in
        if List.length ss < 2 then []
        else
          List.filter_map
            (fun dst ->
              if List.length (predecessors t dst) >= 2 then Some (src, dst)
              else None)
            ss)
      (reverse_postorder t)
  in
  List.iter (fun (src, dst) -> ignore (split_edge f ~src ~dst)) critical;
  List.length critical

(** Ensure the block [header] has a unique predecessor outside
    [body_set] (a preheader); insert one if necessary.  Returns the
    preheader's bid. *)
let ensure_preheader (f : Ir.func) ~header ~in_loop =
  let t = of_func f in
  let outside = List.filter (fun p -> not (in_loop p)) (predecessors t header) in
  match outside with
  | [ p ] when List.length (Ir.term_succs (Ir.block f p).Ir.term) = 1 -> p
  | _ ->
    let pre = Ir.add_block f in
    pre.Ir.term <- Ir.Jump header;
    List.iter
      (fun p ->
        retarget_term (Ir.block f p) ~old_dst:header ~new_dst:pre.Ir.bid)
      outside;
    (* Phi operands from outside predecessors must now flow through the
       preheader.  With several outside predecessors this would need
       phis in the preheader; lowering only ever produces one outside
       predecessor, so we assert that instead. *)
    (match outside with
    | [ p ] -> retarget_phis (Ir.block f header) ~old_pred:p ~new_pred:pre.Ir.bid
    | [] -> ()
    | _ ->
      List.iter
        (fun p -> retarget_phis (Ir.block f header) ~old_pred:p ~new_pred:pre.Ir.bid)
        outside);
    pre.Ir.bid
