(** Clean-up passes over SSA-form functions: constant folding, copy
    propagation, phi simplification, mark-and-sweep dead-code
    elimination and CFG simplification.

    These stand in for the "O3 level" scalar optimization the paper's
    base compiler applies (§8); they also run after SSA destruction and
    after the SPT transformation to shrink the copies the destructor
    inserts, exactly as ORC "immediately cleans and optimizes" the
    transformed code with copy propagation and dead code elimination
    (§6.2). *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Constant folding (SSA) *)

let fold_constants (f : Ir.func) =
  let changed = ref false in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Binop (d, op, a, bo) -> (
            match (Eval.of_operand a, Eval.of_operand bo) with
            | Some va, Some vb -> (
              match Eval.eval_binop op va vb with
              | v ->
                i.Ir.kind <- Ir.Move (d, Eval.to_operand v);
                changed := true
              | exception Eval.Division_by_zero -> ())
            | _ -> ())
          | Ir.Unop (d, op, a) -> (
            match Eval.of_operand a with
            | Some va ->
              i.Ir.kind <- Ir.Move (d, Eval.to_operand (Eval.eval_unop op va));
              changed := true
            | None -> ())
          | Ir.Call (Some d, name, args)
            when List.mem name Ir.pure_builtins -> (
            let const_args =
              List.map
                (function Ir.Aop o -> Eval.of_operand o | Ir.Aarr _ -> None)
                args
            in
            if List.for_all Option.is_some const_args then
              match
                Eval.eval_pure_builtin name (List.map Option.get const_args)
              with
              | Some v ->
                i.Ir.kind <- Ir.Move (d, Eval.to_operand v);
                changed := true
              | None -> ())
          | _ -> ())
        b.Ir.instrs;
      (* fold constant branches; the dead edge's phi operands in the
         dropped successor must go too, or they would dangle *)
      match b.Ir.term with
      | Ir.Br (c, t, e) -> (
        let drop_phi_operands dst =
          List.iter
            (fun (i : Ir.instr) ->
              match i.Ir.kind with
              | Ir.Phi (d, ins) ->
                i.Ir.kind <- Ir.Phi (d, List.filter (fun (p, _) -> p <> bid) ins)
              | _ -> ())
            (Ir.block f dst).Ir.instrs
        in
        match Eval.of_operand c with
        | Some v ->
          let kept = if Eval.is_truthy v then t else e in
          let dropped = if Eval.is_truthy v then e else t in
          b.Ir.term <- Ir.Jump kept;
          if dropped <> kept then drop_phi_operands dropped;
          changed := true
        | None -> if t = e then (b.Ir.term <- Ir.Jump t; changed := true))
      | _ -> ())
    (Ir.block_ids f);
  !changed

(* ------------------------------------------------------------------ *)
(* Copy propagation (SSA): replace uses of x with o for every
   [x := Move o], resolving chains. *)

let propagate_copies (f : Ir.func) =
  let subst : (int, Ir.operand) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun bid ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Move (d, o) -> Hashtbl.replace subst d.Ir.vid o
          | _ -> ())
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f);
  if Hashtbl.length subst = 0 then false
  else begin
    let rec resolve o =
      match o with
      | Ir.Reg v -> (
        match Hashtbl.find_opt subst v.Ir.vid with
        | Some o' when o' <> o -> resolve o'
        | _ -> o)
      | o -> o
    in
    let changed = ref false in
    let apply o =
      let o' = resolve o in
      if o' <> o then changed := true;
      o'
    in
    List.iter
      (fun bid ->
        let b = Ir.block f bid in
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.kind with
            | Ir.Move _ -> ()  (* keep copy defs; DCE removes dead ones *)
            | k -> i.Ir.kind <- Ir.map_kind_operands apply k)
          b.Ir.instrs;
        b.Ir.term <- Ir.map_term_operand apply b.Ir.term)
      (Ir.block_ids f);
    !changed
  end

(* ------------------------------------------------------------------ *)
(* Phi simplification: a phi whose operands are all the same operand
   (ignoring self-references) degenerates to a copy. *)

let simplify_phis (f : Ir.func) =
  let changed = ref false in
  List.iter
    (fun bid ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Phi (d, ins) -> (
            let foreign =
              List.filter_map
                (fun (_, o) ->
                  match o with
                  | Ir.Reg v when Ir.Var.equal v d -> None
                  | o -> Some o)
                ins
            in
            match foreign with
            | [] -> ()
            | o :: rest when List.for_all (fun o' -> o' = o) rest ->
              i.Ir.kind <- Ir.Move (d, o);
              changed := true
            | _ -> ())
          | _ -> ())
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f);
  !changed

(* ------------------------------------------------------------------ *)
(* Dead-code elimination: mark from side-effecting roots through
   register dependences, sweep unmarked pure definitions. *)

let has_side_effect kind =
  match kind with
  | Ir.Store _ | Ir.Spt_fork _ | Ir.Spt_kill _ -> true
  | Ir.Call (_, name, _) -> not (List.mem name Ir.pure_builtins)
  | _ -> false

let eliminate_dead_code (f : Ir.func) =
  let def_instr : (int, Ir.instr) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun bid ->
      List.iter
        (fun (i : Ir.instr) ->
          match Ir.def_of_kind i.Ir.kind with
          | Some d -> Hashtbl.replace def_instr d.Ir.vid i
          | None -> ())
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f);
  let marked : (int, unit) Hashtbl.t = Hashtbl.create 128 in
  let work = ref [] in
  let mark (i : Ir.instr) =
    if not (Hashtbl.mem marked i.Ir.iid) then begin
      Hashtbl.replace marked i.Ir.iid ();
      work := i :: !work
    end
  in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      List.iter (fun i -> if has_side_effect i.Ir.kind then mark i) b.Ir.instrs;
      match Ir.term_operand b.Ir.term with
      | Some (Ir.Reg v) -> (
        match Hashtbl.find_opt def_instr v.Ir.vid with
        | Some di -> mark di
        | None -> ())
      | _ -> ())
    (Ir.block_ids f);
  while !work <> [] do
    let i = List.hd !work in
    work := List.tl !work;
    List.iter
      (fun v ->
        match Hashtbl.find_opt def_instr v.Ir.vid with
        | Some di -> mark di
        | None -> ())
      (Ir.reg_uses_of_kind i.Ir.kind)
  done;
  let removed = ref 0 in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      let keep, drop =
        List.partition
          (fun (i : Ir.instr) ->
            Hashtbl.mem marked i.Ir.iid
            || Ir.def_of_kind i.Ir.kind = None)
          b.Ir.instrs
      in
      removed := !removed + List.length drop;
      b.Ir.instrs <- keep)
    (Ir.block_ids f);
  !removed > 0

(* ------------------------------------------------------------------ *)
(* CFG simplification *)

let has_phi (b : Ir.block) =
  List.exists (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind) b.Ir.instrs

let simplify_cfg (f : Ir.func) =
  let changed = ref false in
  if Cfg.remove_unreachable f > 0 then changed := true;
  (* merge straight-line pairs b -> s (b the sole predecessor of s) in
     one reverse-postorder walk, each chain into its head.  Merging s
     into b changes no other block's eligibility (s's successors trade
     predecessor s for b, keeping their counts) and removes only s,
     which comes after b in the order *)
  let cfg = Cfg.of_func f in
  let sole_pred s = match Cfg.predecessors cfg s with [ _ ] -> true | _ -> false in
  List.iter
    (fun bid ->
      if Hashtbl.mem f.Ir.blocks bid then begin
        let b = Ir.block f bid in
        (* [tail]: the merged blocks' instructions, last chain link first *)
        let rec merge tail =
          match b.Ir.term with
          | Ir.Jump s
            when s <> bid && s <> f.Ir.entry && sole_pred s
                 && not (has_phi (Ir.block f s)) ->
            let sb = Ir.block f s in
            b.Ir.term <- sb.Ir.term;
            (* the merged block keeps a loop-origin tag if either had one *)
            if b.Ir.loop_origin = None then b.Ir.loop_origin <- sb.Ir.loop_origin;
            (* successors' phis referring to s now come from b *)
            List.iter
              (fun succ ->
                Cfg.retarget_phis (Ir.block f succ) ~old_pred:s ~new_pred:bid)
              (Ir.term_succs sb.Ir.term);
            Ir.remove_block f s;
            changed := true;
            merge (sb.Ir.instrs :: tail)
          | _ ->
            if tail <> [] then
              b.Ir.instrs <- List.concat (b.Ir.instrs :: List.rev tail)
        in
        merge []
      end)
    (Cfg.reverse_postorder cfg);
  (* skip empty forwarding blocks (only when the target has no phis) *)
  let cfg = Cfg.of_func f in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      if bid <> f.Ir.entry && b.Ir.instrs = [] then
        match b.Ir.term with
        | Ir.Jump t when t <> bid && not (has_phi (Ir.block f t)) ->
          List.iter
            (fun p ->
              Cfg.retarget_term (Ir.block f p) ~old_dst:bid ~new_dst:t)
            (Cfg.predecessors cfg bid);
          changed := true
        | _ -> ())
    (Cfg.reverse_postorder cfg);
  if Cfg.remove_unreachable f > 0 then changed := true;
  !changed

(* ------------------------------------------------------------------ *)
(* Pipelines *)

(** Run the SSA-level clean-up to a fixpoint (bounded).  The function
    must be in SSA form. *)
let optimize_ssa ?(max_rounds = 8) (f : Ir.func) =
  let rec go n =
    if n = 0 then ()
    else
      let c1 = fold_constants f in
      let c2 = propagate_copies f in
      let c3 = simplify_phis f in
      let c4 = eliminate_dead_code f in
      let c5 = simplify_cfg f in
      if c1 || c2 || c3 || c4 || c5 then go (n - 1)
  in
  go max_rounds

(** Clean-up applicable to non-SSA code (after destruction): constant
    branch folding and CFG simplification only — the SSA-based copy
    propagation and DCE assume single static definitions. *)
let optimize_nonssa (f : Ir.func) =
  ignore (fold_constants f);
  ignore (simplify_cfg f)
