(** Reference model of the compile-path passes that build their
    structures once: the implementations that re-derive them instead.
    Test code only — {!Test_passes} checks that the passes print the
    same IR and price partitions bit-for-bit as this model does.

    - [simplify_cfg] rebuilds the CFG after every block merge and
      merges the first candidate of the fresh reverse postorder;
    - [unroll_run] re-discovers the loops after every loop it unrolls;
    - [misspeculation_cost] rebuilds the cost graph's adjacency tables
      and topological order on every evaluation;
    - [ancestors] rebuilds the motion-edge predecessor table on every
      call. *)

open Spt_ir
module Unroll = Spt_transform.Unroll
module Depgraph = Spt_depgraph.Depgraph
module Cost_model = Spt_cost.Cost_model
module Iset = Set.Make (Int)

let simplify_cfg (f : Ir.func) =
  let changed = ref false in
  if Cfg.remove_unreachable f > 0 then changed := true;
  let continue_merging = ref true in
  while !continue_merging do
    continue_merging := false;
    let cfg = Cfg.of_func f in
    let candidate =
      List.find_opt
        (fun bid ->
          match (Ir.block f bid).Ir.term with
          | Ir.Jump s ->
            s <> bid && s <> f.Ir.entry
            && Cfg.predecessors cfg s = [ bid ]
            && not
                 (List.exists
                    (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind)
                    (Ir.block f s).Ir.instrs)
          | _ -> false)
        (Cfg.reverse_postorder cfg)
    in
    match candidate with
    | Some bid ->
      let b = Ir.block f bid in
      (match b.Ir.term with
      | Ir.Jump s ->
        let sb = Ir.block f s in
        b.Ir.instrs <- b.Ir.instrs @ sb.Ir.instrs;
        b.Ir.term <- sb.Ir.term;
        if b.Ir.loop_origin = None then b.Ir.loop_origin <- sb.Ir.loop_origin;
        List.iter
          (fun succ ->
            Cfg.retarget_phis (Ir.block f succ) ~old_pred:s ~new_pred:bid)
          (Ir.term_succs sb.Ir.term);
        Ir.remove_block f s;
        changed := true;
        continue_merging := true
      | _ -> ())
    | None -> ()
  done;
  let cfg = Cfg.of_func f in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      if bid <> f.Ir.entry && b.Ir.instrs = [] then
        match b.Ir.term with
        | Ir.Jump t
          when t <> bid
               && not
                    (List.exists
                       (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind)
                       (Ir.block f t).Ir.instrs) ->
          List.iter
            (fun p ->
              Cfg.retarget_term (Ir.block f p) ~old_dst:bid ~new_dst:t)
            (Cfg.predecessors cfg bid);
          changed := true
        | _ -> ())
    (Cfg.reverse_postorder cfg);
  if Cfg.remove_unreachable f > 0 then changed := true;
  !changed

let unroll_run (f : Ir.func) policy =
  let unrolled = ref 0 in
  let continue_ = ref true in
  let done_headers = Hashtbl.create 8 in
  while !continue_ do
    continue_ := false;
    let loops = Loops.innermost (Loops.find f) in
    match
      List.find_opt
        (fun l ->
          (not (Hashtbl.mem done_headers l.Loops.header))
          && Unroll.factor_for f l policy > 1)
        loops
    with
    | Some l ->
      Hashtbl.replace done_headers l.Loops.header ();
      Unroll.unroll_loop f l ~factor:(Unroll.factor_for f l policy);
      incr unrolled;
      continue_ := true
    | None -> ()
  done;
  !unrolled

(* the cost model's generic core, rebuilding its tables per call *)

let tables (initial : Cost_model.gedge list) intra =
  let succs_tbl = Hashtbl.create 64 in
  let preds_tbl = Hashtbl.create 64 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Cost_model.gedge) ->
      push succs_tbl e.Cost_model.gsrc e.Cost_model.gdst;
      push preds_tbl e.Cost_model.gdst e)
    (initial @ intra);
  let succs n = Option.value ~default:[] (Hashtbl.find_opt succs_tbl n) in
  let preds n = Option.value ~default:[] (Hashtbl.find_opt preds_tbl n) in
  (succs, preds)

let compute ~combine ~op_nodes ~vc_pseudo ~initial ~intra ~vc_prob =
  let succs, preds = tables initial intra in
  let order = Spt_util.Topo_sort.sort ~nodes:(vc_pseudo @ op_nodes) ~succs in
  let v = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace v n (vc_prob n)) vc_pseudo;
  List.iter
    (fun n ->
      if not (Hashtbl.mem v n) then begin
        let x =
          List.fold_left
            (fun x (e : Cost_model.gedge) ->
              let vp =
                Option.value ~default:0.0 (Hashtbl.find_opt v e.Cost_model.gsrc)
              in
              match combine with
              | `Independent ->
                1.0 -. ((1.0 -. x) *. (1.0 -. (e.Cost_model.gprob *. vp)))
              | `Max_rule -> Float.max x (e.Cost_model.gprob *. vp))
            0.0 (preds n)
        in
        Hashtbl.replace v n x
      end)
    order;
  v

let compute_per_seed ~op_nodes ~vc_pseudo ~initial ~intra ~vc_prob =
  let succs, preds = tables initial intra in
  let order = Spt_util.Topo_sort.sort ~nodes:(vc_pseudo @ op_nodes) ~succs in
  let v = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace v n 1.0) op_nodes;
  List.iter
    (fun seed ->
      let p_seed = vc_prob seed in
      if p_seed > 0.0 then begin
        let reach = Hashtbl.create 64 in
        Hashtbl.replace reach seed 1.0;
        List.iter
          (fun n ->
            if n <> seed && not (List.mem n vc_pseudo) then begin
              let r =
                List.fold_left
                  (fun acc (e : Cost_model.gedge) ->
                    match Hashtbl.find_opt reach e.Cost_model.gsrc with
                    | Some rs -> Float.max acc (rs *. e.Cost_model.gprob)
                    | None -> acc)
                  0.0 (preds n)
              in
              if r > 0.0 then Hashtbl.replace reach n r
            end)
          order;
        Hashtbl.iter
          (fun n r ->
            if n <> seed then
              let cur = Option.value ~default:1.0 (Hashtbl.find_opt v n) in
              Hashtbl.replace v n (cur *. (1.0 -. (p_seed *. r))))
          reach
      end)
    vc_pseudo;
  List.iter
    (fun n ->
      let surv = Option.value ~default:1.0 (Hashtbl.find_opt v n) in
      Hashtbl.replace v n (1.0 -. surv))
    op_nodes;
  List.iter (fun s -> Hashtbl.replace v s (vc_prob s)) vc_pseudo;
  v

let reexec_probs ~combine (t : Cost_model.t) ~prefork =
  let vc_pseudo = List.map Cost_model.pseudo_of_vc t.Cost_model.vcs in
  let vc_prob p =
    let vc = Cost_model.vc_of_pseudo p in
    if Iset.mem vc prefork then 0.0
    else Depgraph.violation_prob t.Cost_model.graph vc
  in
  let op_nodes = t.Cost_model.op_nodes
  and initial = t.Cost_model.initial
  and intra = t.Cost_model.intra in
  let v =
    match combine with
    | `Per_seed -> compute_per_seed ~op_nodes ~vc_pseudo ~initial ~intra ~vc_prob
    | (`Independent | `Max_rule) as combine ->
      compute ~combine ~op_nodes ~vc_pseudo ~initial ~intra ~vc_prob
  in
  Iset.iter (fun iid -> if Hashtbl.mem v iid then Hashtbl.replace v iid 0.0) prefork;
  v

let misspeculation_cost ~combine (t : Cost_model.t) ~prefork =
  let v = reexec_probs ~combine t ~prefork in
  List.fold_left
    (fun acc iid ->
      if Cost_model.is_pseudo iid || Iset.mem iid prefork then acc
      else
        let p = Option.value ~default:0.0 (Hashtbl.find_opt v iid) in
        let i = Depgraph.instr t.Cost_model.graph iid in
        acc
        +. p *. float_of_int (Ir.op_cost i.Ir.kind)
           *. Depgraph.freq t.Cost_model.graph iid)
    0.0 t.Cost_model.op_nodes

let ancestors (g : Depgraph.t) iid =
  let preds_tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Depgraph.edge) ->
      Hashtbl.replace preds_tbl e.Depgraph.dst
        (e.Depgraph.src
        :: Option.value ~default:[] (Hashtbl.find_opt preds_tbl e.Depgraph.dst)))
    (Depgraph.motion_edges g);
  let seen = ref Iset.empty in
  let rec go n =
    if not (Iset.mem n !seen) then begin
      seen := Iset.add n !seen;
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt preds_tbl n))
    end
  in
  go iid;
  !seen
