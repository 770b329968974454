(* Static-analysis replay: the front half of Pipeline.compile_spt,
   re-run from outside one public function at a time so each layer gets
   its own span — parse, lower, unroll, SSA, call effects, profiling,
   then per loop the dependence graph, the cost model and the partition
   search.  The pipeline itself screens loops by profiled size first;
   the replay analyzes every loop, so its layer times bound the
   pipeline's from above. *)

open Spt_ir
open Spt_driver

type counts = { loops : int; nodes : int; explored : int }

let config = Config.best

let replay ~req src =
  let sp name f = Spans.span ~req name f in
  let ast = sp "srclang.parse" (fun () -> Spt_srclang.Typecheck.parse_and_check src) in
  let prog = sp "ir.lower" (fun () -> Lower.lower_program ast) in
  sp "ir.unroll" (fun () ->
      List.iter
        (fun (_, f) -> ignore (Spt_transform.Unroll.run f config.Config.unroll))
        prog.Ir.funcs);
  sp "ir.ssa" (fun () -> Pipeline.to_ssa prog);
  let effects = sp "depgraph.effects" (fun () -> Spt_depgraph.Effects.compute prog) in
  let ep, dp, _ =
    sp "profile.profile" (fun () -> Pipeline.profile_all prog ~max_steps:100_000_000)
  in
  let sym_ty =
    let tbl = Hashtbl.create 32 in
    List.iter (fun (s : Ir.sym) -> Hashtbl.replace tbl s.Ir.sid s.Ir.selt) prog.Ir.globals;
    Hashtbl.find_opt tbl
  in
  let dg_config =
    {
      Spt_depgraph.Depgraph.dep_profile = Some dp;
      edge_profile = Some ep;
      static_mem_prob = config.Config.static_mem_prob;
      include_control = config.Config.include_control;
      violation_overrides = [];
      alias_model = config.Config.alias_model;
      sym_ty;
    }
  in
  List.fold_left
    (fun acc (_, f) ->
      List.fold_left
        (fun acc l ->
          let g =
            sp "depgraph.build" (fun () ->
                Spt_depgraph.Depgraph.build ~config:dg_config effects f l)
          in
          let cm =
            sp "cost.eval" (fun () ->
                let cm = Spt_cost.Cost_model.build g in
                ignore
                  (Spt_cost.Cost_model.misspeculation_cost cm
                     ~prefork:Spt_cost.Cost_model.Iset.empty);
                cm)
          in
          let explored =
            match sp "partition.search" (fun () -> Spt_partition.Partition.search cm g) with
            | Spt_partition.Partition.Found r -> r.Spt_partition.Partition.nodes_explored
            | Spt_partition.Partition.Too_many_vcs _ -> 0
          in
          {
            loops = acc.loops + 1;
            nodes = acc.nodes + List.length g.Spt_depgraph.Depgraph.nodes;
            explored = acc.explored + explored;
          })
        acc (Loops.find f))
    { loops = 0; nodes = 0; explored = 0 }
    prog.Ir.funcs

(* Replay every source under a "replay.static" root and return the
   per-program means of the static-layer metrics. *)
let metrics sources =
  let n = float_of_int (max 1 (List.length sources)) in
  let before = Spans.all () |> List.length in
  let totals =
    List.fold_left
      (fun acc src ->
        let c = Spans.span "replay.static" (fun () -> replay ~req:(-1) src) in
        {
          loops = acc.loops + c.loops;
          nodes = acc.nodes + c.nodes;
          explored = acc.explored + c.explored;
        })
      { loops = 0; nodes = 0; explored = 0 }
      sources
  in
  let spans = List.filteri (fun i _ -> i >= before) (Spans.all ()) in
  let ms name = fst (Spans.total spans name) *. 1000.0 /. n in
  [
    ("srclang.parse_ms", ms "srclang.parse");
    ("ir.lower_ms", ms "ir.lower");
    ("ir.ssa_ms", ms "ir.ssa");
    ("profile.profile_ms", ms "profile.profile");
    ("depgraph.build_ms", ms "depgraph.build" +. ms "depgraph.effects");
    ("depgraph.nodes", float_of_int totals.nodes /. n);
    ("cost.eval_ms", ms "cost.eval");
    ("partition.search_ms", ms "partition.search");
    ("partition.nodes_explored", float_of_int totals.explored /. n);
  ]
