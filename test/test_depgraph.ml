(** Dependence-graph tests: effect summaries, violation candidates,
    edge kinds and probabilities, control dependence and the reduction
    violation-probability refinement. *)

open Spt_ir
open Spt_depgraph
module Iset = Set.Make (Int)

let build ?(config = Depgraph.default_config) ?(optimize = true) src =
  let prog = Lower.lower_program (Spt_srclang.Typecheck.parse_and_check src) in
  let f = Ir.func_of_program prog "main" in
  Ssa.construct f;
  if optimize then Passes.optimize_ssa f;
  let eff = Effects.compute prog in
  let loops = Loops.find f in
  (prog, f, eff, loops, fun l -> Depgraph.build ~config eff f l)

let test_effects_summaries () =
  let src =
    {|
int a[4];
int b[4];
int reader(int i) { return a[i]; }
int through(int x[], int i) { return x[i]; }
void writer(int i) { b[i] = reader(i); }
int chatty() { return rand(); }
void main() { writer(0); print_int(through(a, 1) + chatty()); }
|}
  in
  let prog = Lower.lower_program (Spt_srclang.Typecheck.parse_and_check src) in
  let eff = Effects.compute prog in
  let a_sid = (Ir.find_sym prog "a").Ir.sid in
  let b_sid = (Ir.find_sym prog "b").Ir.sid in
  let s name = Effects.find eff name in
  Alcotest.(check bool) "reader reads a" true
    (Effects.Iset.mem a_sid (s "reader").Effects.sym_reads);
  Alcotest.(check bool) "reader writes nothing" true
    (Effects.Iset.is_empty (s "reader").Effects.sym_writes);
  (* transitive: writer writes b and reads a (via reader) *)
  Alcotest.(check bool) "writer writes b" true
    (Effects.Iset.mem b_sid (s "writer").Effects.sym_writes);
  Alcotest.(check bool) "writer reads a transitively" true
    (Effects.Iset.mem a_sid (s "writer").Effects.sym_reads);
  (* parameter effects *)
  Alcotest.(check bool) "through reads its slot" true
    (Effects.Iset.mem 0 (s "through").Effects.param_reads);
  (* rand pins the rng pseudo region *)
  Alcotest.(check bool) "chatty touches rng" true
    (Effects.Iset.mem Effects.rng_region (s "chatty").Effects.sym_writes)

let test_violation_candidates_scalar () =
  (* carried scalar s: its defining statement is the only VC *)
  let _, _, _, loops, build_g =
    build
      {|
int n = 20;
int a[20];
void main() {
  int i = 0;
  int s = 0;
  while (i < n) {
    s = s + i * 3;
    a[i] = s;
    i = i + 1;
  }
  print_int(s);
}
|}
  in
  let g = build_g (List.hd loops) in
  let vcs = Depgraph.violation_candidates g in
  (* i's and s's updates are both carried: two register VCs; the store
     to a is never read in the loop, so no memory VC *)
  Alcotest.(check int) "two violation candidates" 2 (List.length vcs);
  List.iter
    (fun vc ->
      match (Depgraph.instr g vc).Ir.kind with
      | Ir.Binop (_, Ir.Add, _, _) -> ()
      | k ->
        Alcotest.fail
          (Format.asprintf "expected add VC, got %a" Ir_pretty.pp_kind k))
    vcs

let test_memory_cross_edges () =
  (* recurrence through memory: a[i] = a[i-1] + 1 *)
  let _, _, _, loops, build_g =
    build
      {|
int n = 20;
int a[20];
void main() {
  int i = 1;
  while (i < n) {
    a[i] = a[i - 1] + 1;
    i = i + 1;
  }
  print_int(a[19]);
}
|}
  in
  let g = build_g (List.hd loops) in
  let mem_cross =
    List.filter
      (fun (e : Depgraph.edge) ->
        e.Depgraph.cross && e.Depgraph.kind = Depgraph.Mem_true)
      (Depgraph.cross_edges g)
  in
  Alcotest.(check bool) "store->load cross edge" true (mem_cross <> []);
  List.iter
    (fun (e : Depgraph.edge) ->
      match (Depgraph.instr g e.Depgraph.src).Ir.kind with
      | Ir.Store _ -> ()
      | _ -> Alcotest.fail "cross mem edge source must be a store")
    mem_cross

let test_no_false_cross_edges () =
  (* disjoint arrays, exact aliasing: no memory cross edges at all *)
  let _, _, _, loops, build_g =
    build
      {|
int n = 20;
int a[20];
int b[20];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = b[i] * 2;
    i = i + 1;
  }
  print_int(a[3]);
}
|}
  in
  let g = build_g (List.hd loops) in
  Alcotest.(check int) "no memory cross edges" 0
    (List.length
       (List.filter
          (fun (e : Depgraph.edge) -> e.Depgraph.kind = Depgraph.Mem_true)
          (Depgraph.cross_edges g)))

let test_type_based_aliasing () =
  (* same program, type-based model: a and b (both int[]) may alias *)
  let config =
    {
      Depgraph.default_config with
      Depgraph.alias_model = `Type_based;
      sym_ty = (fun _ -> Some Ir.I64);
    }
  in
  let _, _, _, loops, build_g =
    build ~config
      {|
int n = 20;
int a[20];
int b[20];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = b[i] * 2;
    i = i + 1;
  }
  print_int(a[3]);
}
|}
  in
  let g = build_g (List.hd loops) in
  Alcotest.(check bool) "type-based sees cross edges" true
    (List.exists
       (fun (e : Depgraph.edge) -> e.Depgraph.kind = Depgraph.Mem_true)
       (Depgraph.cross_edges g))

let test_anti_output_edges () =
  let _, _, _, loops, build_g =
    build
      {|
int n = 20;
int a[20];
void main() {
  int i = 0;
  while (i < n) {
    int x = a[i];
    a[i] = x + 1;
    i = i + 1;
  }
  print_int(a[0]);
}
|}
  in
  let g = build_g (List.hd loops) in
  let kinds =
    List.sort_uniq compare
      (List.map (fun (e : Depgraph.edge) -> e.Depgraph.kind) (Depgraph.motion_edges g))
  in
  Alcotest.(check bool) "anti edge present" true (List.mem Depgraph.Mem_anti kinds)

let test_control_dependence () =
  let _, _, _, loops, build_g =
    build ~optimize:false
      {|
int n = 20;
int a[20];
int s;
void main() {
  int i = 0;
  while (i < n) {
    if (a[i] > 5) { s = s + 1; }
    i = i + 1;
  }
  print_int(s);
}
|}
  in
  let g = build_g (List.hd loops) in
  let ctrl =
    List.filter
      (fun (e : Depgraph.edge) -> e.Depgraph.kind = Depgraph.Control)
      g.Depgraph.edges
  in
  Alcotest.(check bool) "control edges exist" true (ctrl <> []);
  (* every control source must be a comparison feeding a branch *)
  List.iter
    (fun (e : Depgraph.edge) ->
      match (Depgraph.instr g e.Depgraph.src).Ir.kind with
      | Ir.Binop (_, op, _, _) when Ir.is_comparison op -> ()
      | Ir.Binop _ | Ir.Load _ | Ir.Phi _ -> ()
      | k ->
        Alcotest.fail
          (Format.asprintf "odd control source %a" Ir_pretty.pp_kind k))
    ctrl

let test_reduction_violation_prob () =
  (* conditional min update: the carried join phi's violation
     probability must equal the update frequency, not 1 *)
  let src =
    {|
int n = 100;
int a[100];
void main() {
  int i;
  int best = 1000000;
  srand(3);
  for (i = 0; i < n; i = i + 1) { a[i] = rand() & 1023; }
  for (i = 0; i < n; i = i + 1) {
    if (a[i] < best) { best = a[i]; }
  }
  print_int(best);
}
|}
  in
  let prog = Lower.lower_program (Spt_srclang.Typecheck.parse_and_check src) in
  let f = Ir.func_of_program prog "main" in
  Ssa.construct f;
  Passes.optimize_ssa f;
  let ep = Spt_profile.Edge_profile.create () in
  let _ =
    Spt_exec.Engine.profile (Spt_profile.Edge_profile.probes ep prog) prog
  in
  let eff = Effects.compute prog in
  let config =
    { Depgraph.default_config with Depgraph.edge_profile = Some ep }
  in
  (* the second loop is the min reduction: pick the loop whose body has
     no rand call *)
  let loops = Loops.find f in
  let has_call l =
    Loops.Iset.exists
      (fun bid ->
        List.exists
          (fun (i : Ir.instr) -> Ir.is_call i.Ir.kind)
          (Ir.block f bid).Ir.instrs)
      l.Loops.body
  in
  let l = List.find (fun l -> not (has_call l)) loops in
  let g = Depgraph.build ~config eff f l in
  let vcs = Depgraph.violation_candidates g in
  let phi_vcs =
    List.filter (fun vc -> Ir.is_phi (Depgraph.instr g vc).Ir.kind) vcs
  in
  Alcotest.(check bool) "join-phi VC found" true (phi_vcs <> []);
  List.iter
    (fun vc ->
      let p = Depgraph.violation_prob g vc in
      Alcotest.(check bool)
        (Printf.sprintf "refined violation prob %.3f < 0.5" p)
        true (p < 0.5))
    phi_vcs

let test_violation_override () =
  let _, _, _, loops, _ =
    build
      {|
int n = 20;
void main() {
  int i = 0;
  int x = 0;
  while (i < n) { x = x * 3 + 1; i = i + 1; }
  print_int(x);
}
|}
  in
  ignore loops;
  (* overrides win over everything *)
  let src =
    "int n = 5; void main() { int i = 0; while (i < n) { i = i + 1; } print_int(i); }"
  in
  let prog = Lower.lower_program (Spt_srclang.Typecheck.parse_and_check src) in
  let f = Ir.func_of_program prog "main" in
  Ssa.construct f;
  let eff = Effects.compute prog in
  let l = List.hd (Loops.find f) in
  let g0 = Depgraph.build eff f l in
  match Depgraph.violation_candidates g0 with
  | vc :: _ ->
    let config =
      { Depgraph.default_config with Depgraph.violation_overrides = [ (vc, 0.125) ] }
    in
    let g = Depgraph.build ~config eff f l in
    Alcotest.(check (float 1e-9)) "override applied" 0.125 (Depgraph.violation_prob g vc)
  | [] -> Alcotest.fail "expected a VC"

let test_to_dot () =
  let _, _, _, loops, build_g =
    build
      "int n = 5; int a[5]; void main() { int i = 0; while (i < n) { a[i] = i; i = i + 1; } }"
  in
  let g = build_g (List.hd loops) in
  let dot = Depgraph.to_dot g in
  Alcotest.(check bool) "renders" true (String.length dot > 20)

let suite =
  [
    Alcotest.test_case "effect summaries" `Quick test_effects_summaries;
    Alcotest.test_case "scalar violation candidates" `Quick test_violation_candidates_scalar;
    Alcotest.test_case "memory cross edges" `Quick test_memory_cross_edges;
    Alcotest.test_case "no false cross edges (exact)" `Quick test_no_false_cross_edges;
    Alcotest.test_case "type-based aliasing" `Quick test_type_based_aliasing;
    Alcotest.test_case "anti/output edges" `Quick test_anti_output_edges;
    Alcotest.test_case "control dependence" `Quick test_control_dependence;
    Alcotest.test_case "reduction violation prob" `Quick test_reduction_violation_prob;
    Alcotest.test_case "violation override" `Quick test_violation_override;
    Alcotest.test_case "dot rendering" `Quick test_to_dot;
  ]
