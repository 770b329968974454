(** The compile-path passes that build their structures once, against
    the reference model ({!Ref_passes}, the implementations that
    re-derive them): CFG simplification and unrolling print the same IR,
    and partition costs and pre-fork closures are bit-equal, on the
    suite, the examples, the corpus and 200 generated programs.  Two
    functional cases cover the shapes the single walks are for: a long
    straight-line chain and many sibling loops. *)

open Spt_ir
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Unroll = Spt_transform.Unroll
module Depgraph = Spt_depgraph.Depgraph
module Cost_model = Spt_cost.Cost_model
module Partition = Spt_partition.Partition

let programs () =
  Test_probes.suite_sources () @ Test_probes.examples () @ Test_probes.corpus ()
  @ Test_probes.generated 200

(* the same source lowered twice: one copy for the pass, one for the
   reference *)
let twice src = (Pipeline.front_end src, Pipeline.front_end src)

let pairs (a : Ir.program) (b : Ir.program) =
  List.map2 (fun (name, f) (_, g) -> (name, f, g)) a.Ir.funcs b.Ir.funcs

let same_ir what f g =
  Alcotest.(check string) what (Ir_pretty.func_to_string g)
    (Ir_pretty.func_to_string f)

(* [simplify_cfg] on [f], the reference on [g]: same answer, same IR *)
let simplify what f g =
  let changed = Passes.simplify_cfg f in
  Alcotest.(check bool) (what ^ " changed") (Ref_passes.simplify_cfg g) changed;
  same_ir what f g;
  changed

(* Every place the pipeline simplifies — each round of the SSA clean-up
   and the code after SSA destruction — and the lowered code, whose
   unmerged chains the pipeline never hands it. *)
let test_simplify_cfg () =
  List.iter
    (fun (name, src) ->
      let what fname stage = Printf.sprintf "%s %s %s" name fname stage in
      let a, b = twice src in
      List.iter
        (fun (fname, f, g) -> ignore (simplify (what fname "lowered") f g))
        (pairs a b);
      let a, b = twice src in
      List.iter
        (fun (fname, f, g) ->
          let what = what fname in
          List.iter
            (fun h -> ignore (Unroll.run h Config.best.Config.unroll))
            [ f; g ];
          List.iter Ssa.construct [ f; g ];
          (* [Passes.optimize_ssa]'s rounds, the CFG clean-up checked *)
          let others h =
            let c1 = Passes.fold_constants h in
            let c2 = Passes.propagate_copies h in
            let c3 = Passes.simplify_phis h in
            let c4 = Passes.eliminate_dead_code h in
            c1 || c2 || c3 || c4
          in
          let rec rounds n =
            if n > 0 then begin
              let c = others f in
              ignore (others g);
              if simplify (what (Printf.sprintf "ssa round %d" (9 - n))) f g || c
              then rounds (n - 1)
            end
          in
          rounds 8;
          List.iter
            (fun h ->
              Ssa.destruct h;
              ignore (Passes.fold_constants h))
            [ f; g ];
          ignore (simplify (what "destructed") f g))
        (pairs a b))
    (programs ())

(* every preset's unrolling, after its inlining *)
let test_unroll () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (c : Config.t) ->
          let a, b = twice src in
          if c.Config.inline then List.iter (fun p -> ignore (Inline.run p)) [ a; b ];
          List.iter
            (fun (fname, f, g) ->
              let what = Printf.sprintf "%s %s %s" name fname c.Config.name in
              let n = Unroll.run f c.Config.unroll in
              Alcotest.(check int) (what ^ " loops unrolled")
                (Ref_passes.unroll_run g c.Config.unroll) n;
              same_ir what f g)
            (pairs a b))
        Config.all)
    (programs ())

let bits x = Int64.bits_of_float x

let sorted_bits tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, bits v) :: acc) tbl [])

(* every loop's cost graph under the best configuration, priced for the
   empty, the full and random candidate subsets under each rule *)
let test_costs () =
  let rng = Random.State.make [| 0xC057 |] in
  List.iter
    (fun (name, src) ->
      let prog = Test_probes.prepare src in
      let effects = Spt_depgraph.Effects.compute prog in
      let ep, dp, _ = Pipeline.profile_all prog ~max_steps:100_000_000 in
      let sym_ty =
        let tbl = Hashtbl.create 32 in
        List.iter
          (fun (s : Ir.sym) -> Hashtbl.replace tbl s.Ir.sid s.Ir.selt)
          prog.Ir.globals;
        Hashtbl.find_opt tbl
      in
      let best = Config.best in
      let config =
        {
          Depgraph.dep_profile = Some dp;
          edge_profile = Some ep;
          static_mem_prob = best.Config.static_mem_prob;
          include_control = best.Config.include_control;
          violation_overrides = [];
          alias_model = best.Config.alias_model;
          sym_ty;
        }
      in
      List.iter
        (fun (_, f) ->
          List.iter
            (fun (l : Loops.loop) ->
              let what =
                Printf.sprintf "%s %s bb%d" name f.Ir.fname l.Loops.header
              in
              let g = Depgraph.build ~config effects f l in
              let cm = Cost_model.build g in
              let anc = Partition.ancestors g in
              let vcs = Depgraph.violation_candidates g in
              List.iter
                (fun vc ->
                  Alcotest.(check (list int)) (what ^ " ancestors")
                    (Partition.Iset.elements (Ref_passes.ancestors g vc))
                    (Partition.Iset.elements (anc vc)))
                vcs;
              let subsets =
                [] :: vcs
                :: List.init 8 (fun _ ->
                       List.filter (fun _ -> Random.State.bool rng) vcs)
              in
              List.iter
                (fun subset ->
                  let prefork =
                    Partition.closure g ~anc (Partition.Iset.of_list subset)
                  in
                  List.iter
                    (fun combine ->
                      Alcotest.(check int64) (what ^ " cost")
                        (bits (Ref_passes.misspeculation_cost ~combine cm ~prefork))
                        (bits (Cost_model.misspeculation_cost ~combine cm ~prefork));
                      Alcotest.(check (list (pair int int64)))
                        (what ^ " re-execution probabilities")
                        (sorted_bits (Ref_passes.reexec_probs ~combine cm ~prefork))
                        (sorted_bits (Cost_model.reexec_probs ~combine cm ~prefork)))
                    [ `Per_seed; `Independent; `Max_rule ])
                subsets)
            (Loops.find f))
        prog.Ir.funcs)
    (programs ())

(* A 5,000-block straight line, its blocks numbered out of order,
   simplifies to one block holding every instruction in chain order. *)
let test_long_chain () =
  let n = 5000 in
  let f = Ir.create_func ~name:"chain" ~params:[] ~ret:None in
  let blocks = Array.init n (fun _ -> Ir.add_block f) in
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| 5000 |] in
  for k = n - 1 downto 2 do
    (* keep the entry first; shuffle the rest *)
    let j = 1 + Random.State.int rng k in
    let t = order.(k) in
    order.(k) <- order.(j);
    order.(j) <- t
  done;
  f.Ir.entry <- blocks.(order.(0)).Ir.bid;
  let expected =
    Array.to_list
      (Array.mapi
         (fun k b ->
           let blk = blocks.(b) in
           let v = Ir.fresh_var f ~name:"x" ~ty:Ir.I64 in
           let i = Ir.mk_instr f (Ir.Move (v, Ir.Imm_i (Int64.of_int k))) in
           Ir.append_instr blk i;
           blk.Ir.term <-
             (if k = n - 1 then Ir.Ret None else Ir.Jump blocks.(order.(k + 1)).Ir.bid);
           i.Ir.iid)
         order)
  in
  Alcotest.(check bool) "changed" true (Passes.simplify_cfg f);
  Alcotest.(check (list int)) "one block" [ f.Ir.entry ] (Ir.block_ids f);
  let b = Ir.block f f.Ir.entry in
  Alcotest.(check (list int)) "instructions in chain order" expected
    (List.map (fun (i : Ir.instr) -> i.Ir.iid) b.Ir.instrs);
  Alcotest.(check bool) "returns" true (b.Ir.term = Ir.Ret None)

(* 50 sibling for loops: each is unrolled exactly once, by its factor *)
let test_sibling_loops () =
  let src =
    "int a[64];\nvoid main() {\n  int i;\n"
    ^ String.concat ""
        (List.init 50 (fun k ->
             Printf.sprintf
               "  for (i = 0; i < 64; i = i + 1) { a[i] = a[i] + %d; }\n" k))
    ^ "  print_int(a[3]);\n}\n"
  in
  let a, b = twice src in
  let f = Ir.func_of_program a "main" and g = Ir.func_of_program b "main" in
  let policy = Unroll.default_policy in
  let before =
    List.map
      (fun (l : Loops.loop) ->
        (l.Loops.header, Loops.Iset.cardinal l.Loops.body, Unroll.factor_for f l policy))
      (Loops.find f)
  in
  Alcotest.(check int) "50 loops" 50 (List.length before);
  Alcotest.(check int) "50 unrolled" 50 (Unroll.run f policy);
  let after = Loops.find f in
  Alcotest.(check int) "still 50 loops" 50 (List.length after);
  List.iter
    (fun (header, size, factor) ->
      Alcotest.(check bool) "worth unrolling" true (factor > 1);
      match List.find_opt (fun (l : Loops.loop) -> l.Loops.header = header) after with
      | Some l ->
        Alcotest.(check int)
          (Printf.sprintf "bb%d unrolled once" header)
          (size * factor) (Loops.Iset.cardinal l.Loops.body)
      | None -> Alcotest.failf "loop at bb%d lost" header)
    before;
  Alcotest.(check int) "reference unrolls 50" 50 (Ref_passes.unroll_run g policy);
  same_ir "matches the reference" f g

let suite =
  [
    Alcotest.test_case "diff: simplify_cfg" `Slow test_simplify_cfg;
    Alcotest.test_case "diff: unroll" `Slow test_unroll;
    Alcotest.test_case "diff: costs and closures" `Slow test_costs;
    Alcotest.test_case "5,000-block chain merges" `Quick test_long_chain;
    Alcotest.test_case "50 sibling loops unroll once" `Quick test_sibling_loops;
  ]
