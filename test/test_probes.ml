(** The profilers on the engine's probe events against the reference
    model ({!Ref_profile}, the tree-interpreter hook handlers): equal
    exports on the suite, the examples, the corpus and generated
    programs, and the tree's event order, rule by rule. *)

open Spt_ir
module Interp = Spt_interp.Interp
module Engine = Spt_exec.Engine
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Edge_profile = Spt_profile.Edge_profile
module Dep_profile = Spt_profile.Dep_profile
module Value_profile = Spt_profile.Value_profile
module Gen = Spt_fuzz.Gen

let examples () = Fixture.sources "examples/src"
let corpus () = Fixture.sources "test/corpus"

let suite_sources () =
  List.map
    (fun (w : Spt_workloads.Suite.workload) -> (w.name, w.source))
    Spt_workloads.Suite.all

let generated n =
  List.init n (fun index ->
      let seed = Gen.case_seed ~seed:1 ~index in
      (Printf.sprintf "gen seed %d" seed, Gen.to_source (Gen.generate ~seed ())))

(* the program [Pipeline.profile_all] sees: the front half of
   [compile_spt] under the best configuration *)
let prepare src =
  let prog = Pipeline.front_end src in
  if Config.best.Config.inline then ignore (Inline.run prog);
  List.iter
    (fun (_, f) -> ignore (Spt_transform.Unroll.run f Config.best.Config.unroll))
    prog.Ir.funcs;
  Pipeline.to_ssa prog;
  prog

(* the pipeline's SVP targets plus every phi, call and load *)
let targets (prog : Ir.program) =
  List.concat_map
    (fun (name, f) ->
      let svp =
        List.concat_map
          (fun l -> List.map snd (Spt_transform.Svp.candidates f l))
          (Loops.find f)
      in
      let watched =
        List.concat_map
          (fun bid ->
            List.filter_map
              (fun (i : Ir.instr) ->
                match i.Ir.kind with
                | Ir.Phi _ | Ir.Call _ | Ir.Load _ -> Some i.Ir.iid
                | _ -> None)
              (Ir.block f bid).Ir.instrs)
          (Ir.block_ids f)
      in
      List.map
        (fun tiid -> { Value_profile.tfunc = name; tiid })
        (List.sort_uniq compare (svp @ watched)))
    prog.Ir.funcs

(* the pipeline's profiling budget *)
let profile_steps = 100_000_000

let error_of run =
  match run () with
  | (_ : Interp.result) -> None
  | exception Interp.Runtime_error m -> Some m

(* run both models over [prog]; check the error, the three exports, the
   observed loops and every target's best stride *)
let check_same ?(max_steps = profile_steps) name (prog : Ir.program) =
  let tgts = targets prog in
  let re = Ref_profile.Edge.create ()
  and rd = Ref_profile.Dep.create prog
  and rv = Ref_profile.Value.create tgts in
  let ref_err =
    error_of (fun () ->
        Interp.run ~max_steps
          ~hooks:
            (Ref_profile.combine_hooks
               [
                 Ref_profile.Edge.hooks re;
                 Ref_profile.Dep.hooks rd;
                 Ref_profile.Value.hooks rv;
               ])
          prog)
  in
  let ep = Edge_profile.create ()
  and dp = Dep_profile.create prog
  and vp = Value_profile.create tgts in
  let err =
    error_of (fun () ->
        Engine.profile ~max_steps
          (Engine.combine
             [
               Edge_profile.probes ep prog;
               Dep_profile.probes dp prog;
               Value_profile.probes vp prog;
             ])
          prog)
  in
  Alcotest.(check (option string)) (name ^ ": error") ref_err err;
  Alcotest.(check bool) (name ^ ": edge export") true
    (Ref_profile.Edge.export re = Edge_profile.export ep);
  Alcotest.(check bool) (name ^ ": dep export") true
    (Ref_profile.Dep.export rd = Dep_profile.export dp);
  Alcotest.(check bool) (name ^ ": value export") true
    (Ref_profile.Value.export rv = Value_profile.export vp);
  List.iter
    (fun key ->
      Alcotest.(check bool) (name ^ ": loop observed") true
        (Dep_profile.observed dp key))
    (Ref_profile.Dep.observed rd);
  List.iter
    (fun { Value_profile.tfunc; tiid } ->
      let best =
        Option.map
          (fun p ->
            ( p.Value_profile.stride,
              p.Value_profile.hit_rate,
              p.Value_profile.observations ))
          (Value_profile.best_prediction vp ~func:tfunc ~iid:tiid)
      in
      let ref_best = Ref_profile.Value.best rv (tfunc, tiid) in
      Alcotest.(check bool) (name ^ ": best stride") true
        (Option.map (fun (s, _, _) -> s) best = Option.map fst ref_best))
    tgts

let check_sources srcs =
  List.iter (fun (name, src) -> check_same name (prepare src)) srcs

let test_suite_workloads () = check_sources (suite_sources ())
let test_examples () = check_sources (examples ())
let test_corpus () = check_sources (corpus ())
let test_generated () = check_sources (generated 200)

(* ------------------------------------------------------------------ *)
(* Event order: one vocabulary for the tree's hooks and the engine's
   probes, so whole streams compare *)

let show = function
  | Eval.Vi n -> Int64.to_string n
  | Eval.Vf f -> Printf.sprintf "%h" f

let tree_stream ?max_steps ~watch (prog : Ir.program) =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let hooks =
    {
      Interp.null_hooks with
      Interp.on_enter = (fun f -> add "enter %s" f.Ir.fname);
      on_exit = (fun f -> add "exit %s" f.Ir.fname);
      on_block = (fun f bid -> add "block %s %d" f.Ir.fname bid);
      on_edge = (fun f ~src ~dst -> add "edge %s %d %d" f.Ir.fname src dst);
      on_instr =
        (fun f _ i eff ->
          let iid = i.Ir.iid in
          (match i.Ir.kind with Ir.Call _ -> add "call %d" iid | _ -> ());
          List.iter (fun (a, _) -> add "load %d %d" iid a) eff.Interp.loads;
          List.iter (fun (a, _) -> add "store %d %d" iid a) eff.Interp.stores;
          match eff.Interp.defs with
          | (_, v) :: _ when watch f.Ir.fname iid ->
            add "value %s %d %s" f.Ir.fname iid (show v)
          | _ -> ());
    }
  in
  let err = error_of (fun () -> Interp.run ?max_steps ~hooks prog) in
  (List.rev !out, err)

let engine_stream ?max_steps ~watch (prog : Ir.program) =
  let funcs = Engine.functions prog in
  let name fid = funcs.(fid).Ir.fname in
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let probes =
    {
      Engine.on_enter = Some (fun fid -> add "enter %s" (name fid));
      on_exit = Some (fun fid -> add "exit %s" (name fid));
      on_block =
        Some
          (fun fid bid prev ->
            add "block %s %d" (name fid) bid;
            if prev >= 0 then add "edge %s %d %d" (name fid) prev bid);
      on_call = Some (fun iid -> add "call %d" iid);
      on_load = Some (fun iid a -> add "load %d %d" iid a);
      on_store = Some (fun iid a -> add "store %d %d" iid a);
      watch = (fun fid iid -> watch (name fid) iid);
      on_value =
        Some (fun fid iid v -> add "value %s %d %s" (name fid) iid (show v));
      on_finish = None;
    }
  in
  let err = error_of (fun () -> Engine.profile ?max_steps probes prog) in
  (List.rev !out, err)

let check_streams ?max_steps ?(watch = fun _ _ -> true) name prog =
  let tree, tree_err = tree_stream ?max_steps ~watch prog in
  let eng, eng_err = engine_stream ?max_steps ~watch prog in
  Alcotest.(check (option string)) (name ^ ": error") tree_err eng_err;
  let rec first_diff i a b =
    match (a, b) with
    | [], [] -> ()
    | x :: a, y :: b when x = y -> first_diff (i + 1) a b
    | x :: _, y :: _ ->
      Alcotest.failf "%s: event %d: tree %S, engine %S" name i x y
    | x :: _, [] -> Alcotest.failf "%s: event %d: tree %S, engine ends" name i x
    | [], y :: _ -> Alcotest.failf "%s: event %d: tree ends, engine %S" name i y
  in
  first_diff 0 tree eng;
  eng

let lower src = Pipeline.front_end src

let ssa src =
  let prog = lower src in
  Pipeline.to_ssa prog;
  prog

let index_of p l =
  let rec go i = function
    | [] -> Alcotest.fail "event not found"
    | x :: tl -> if p x then i else go (i + 1) tl
  in
  go 0 l

let test_streams_match () =
  List.iter
    (fun (name, src) -> ignore (check_streams name (prepare src)))
    (examples () @ corpus () @ generated 20)

let test_block_before_phis () =
  let prog =
    ssa
      {|
int a[8];
void main() {
  int i = 0;
  int s = 0;
  while (i < 8) { s = s + a[i]; i = i + 1; }
  print_int(s);
}
|}
  in
  let events = check_streams "phis" prog in
  (* every phi value follows its block's entry (and edge) directly or
     after the block's other phis *)
  let f = Ir.func_of_program prog "main" in
  let phi_block = Hashtbl.create 8 in
  List.iter
    (fun bid ->
      List.iter
        (fun (i : Ir.instr) ->
          if Ir.is_phi i.Ir.kind then Hashtbl.replace phi_block i.Ir.iid bid)
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f);
  Alcotest.(check bool) "loop has phis" true (Hashtbl.length phi_block > 0);
  let rec walk prev_block = function
    | [] -> ()
    | e :: tl -> (
      match String.split_on_char ' ' e with
      | [ "block"; _; bid ] -> walk (Some (int_of_string bid)) tl
      | [ "edge"; _; _; _ ] -> walk prev_block tl
      | [ "value"; _; iid; _ ] when Hashtbl.mem phi_block (int_of_string iid) ->
        Alcotest.(check (option int)) "phi after its block entry"
          (Some (Hashtbl.find phi_block (int_of_string iid)))
          prev_block;
        walk prev_block tl
      | _ -> walk None tl)
  in
  walk None events

let call_prog =
  {|
int a[4];
int g(int x) { a[x % 4] = x; return x + 1; }
void main() {
  int i = 0;
  int s = 0;
  while (i < 6) { s = s + g(i); s = s + abs(0 - i); i = i + 1; }
  print_int(s);
}
|}

(* the first Call of [callee] in [f] *)
let call_site (f : Ir.func) callee =
  List.find_map
    (fun bid ->
      List.find_map
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Call (_, n, _) when n = callee -> Some i
          | _ -> None)
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f)
  |> Option.get

let test_call_order () =
  let prog = ssa call_prog in
  let events = Array.of_list (check_streams "calls" prog) in
  let main = Ir.func_of_program prog "main" in
  let g_site = (call_site main "g").Ir.iid in
  let abs_site = (call_site main "abs").Ir.iid in
  let saw_g = ref 0 and saw_abs = ref 0 in
  Array.iteri
    (fun k e ->
      if e = Printf.sprintf "call %d" g_site then begin
        incr saw_g;
        Alcotest.(check string) "program call site before the callee's entry"
          "enter g" events.(k + 1)
      end;
      if e = Printf.sprintf "call %d" abs_site then begin
        incr saw_abs;
        (* the builtin ran first: its result follows its site *)
        Alcotest.(check bool) "builtin site then its value" true
          (String.starts_with
             ~prefix:(Printf.sprintf "value main %d " abs_site)
             events.(k + 1))
      end)
    events;
  Alcotest.(check int) "six program calls" 6 !saw_g;
  Alcotest.(check int) "six builtin calls" 6 !saw_abs;
  (* the callee's exit comes after all of its own events *)
  let k = index_of (fun e -> e = "exit g") (Array.to_list events) in
  Alcotest.(check bool) "exit after the callee's return" true
    (List.exists
       (fun prefix -> String.starts_with ~prefix events.(k - 1))
       [ "block g"; "store"; "value g" ]);
  (* a builtin that fails reports no call site *)
  let bad = lower "void main() { print_int(abs(0 - 3)); }" in
  let main = Ir.func_of_program bad "main" in
  let site = call_site main "abs" in
  (match site.Ir.kind with
  | Ir.Call (d, n, args) -> site.Ir.kind <- Ir.Call (d, n, args @ args)
  | _ -> assert false);
  let events = check_streams "failing builtin" bad in
  Alcotest.(check bool) "no site for the failed builtin" false
    (List.mem (Printf.sprintf "call %d" site.Ir.iid) events)

let test_entry_exit () =
  (* entry follows parameter binding: an arity mismatch enters nothing *)
  let prog =
    lower "int g(int x) { return x; } void main() { print_int(g(1)); }"
  in
  let main = Ir.func_of_program prog "main" in
  let site = call_site main "g" in
  (match site.Ir.kind with
  | Ir.Call (d, n, _) -> site.Ir.kind <- Ir.Call (d, n, [])
  | _ -> assert false);
  let events = check_streams "arity" prog in
  Alcotest.(check bool) "site fired" true
    (List.mem (Printf.sprintf "call %d" site.Ir.iid) events);
  Alcotest.(check bool) "no entry before binding" false
    (List.mem "enter g" events);
  (* an error unwinding a frame fires no exit for it *)
  let prog =
    lower
      {|
int a[4];
int g(int x) { return a[x]; }
void main() { print_int(g(1)); print_int(g(9)); }
|}
  in
  let events = check_streams "unwind" prog in
  let count e = List.length (List.filter (( = ) e) events) in
  Alcotest.(check int) "two entries" 2 (count "enter g");
  Alcotest.(check int) "one exit" 1 (count "exit g");
  Alcotest.(check int) "main never exits" 0 (count "exit main")

let test_value_kinds () =
  let prog =
    ssa
      {|
int a[8];
float fb[2];
int g(int x) { return x * 2; }
void main() {
  int i = 0;
  int s = 0;
  float f = 1.5;
  while (i < 8) {
    a[i] = i;
    s = s + a[i];
    s = s + g(i);
    s = s + min(s, 3);
    s = -s;
    f = f * 2.0;
    i = i + 1;
  }
  fb[0] = f;
  print_int(s);
}
|}
  in
  let events = check_streams "values" prog in
  let valued = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match String.split_on_char ' ' e with
      | [ "value"; fn; iid; _ ] ->
        Hashtbl.replace valued (fn, int_of_string iid) ()
      | _ -> ())
    events;
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun bid ->
          List.iter
            (fun (i : Ir.instr) ->
              let k =
                match i.Ir.kind with
                | Ir.Move _ -> "move"
                | Ir.Unop _ -> "unop"
                | Ir.Binop _ -> "binop"
                | Ir.Load _ -> "load"
                | Ir.Phi _ -> "phi"
                | Ir.Call (Some _, n, _) when List.mem_assoc n prog.Ir.funcs ->
                  "program call"
                | Ir.Call (Some _, _, _) -> "builtin"
                | _ -> "other"
              in
              if Hashtbl.mem valued (name, i.Ir.iid) then
                Hashtbl.replace kinds k ())
            (Ir.block f bid).Ir.instrs)
        (Ir.block_ids f))
    prog.Ir.funcs;
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " reports its value") true (Hashtbl.mem kinds k))
    [ "unop"; "binop"; "load"; "phi"; "builtin" ];
  Alcotest.(check bool) "program calls never report" false
    (Hashtbl.mem kinds "program call");
  Alcotest.(check bool) "stores and markers never report" false
    (Hashtbl.mem kinds "other");
  (* moves survive only outside SSA clean-up *)
  let events =
    check_streams "moves"
      (lower "void main() { int x = 3; int y = x; print_int(y); }")
  in
  Alcotest.(check bool) "a move reports" true
    (List.exists (String.starts_with ~prefix:"value main") events)

let recursive_src =
  {|
int a[64];
int walk(int d) {
  int i = 0;
  int s = 0;
  while (i < 4) {
    a[(d * 4 + i) % 64] = s;
    if (d > 0) { s = s + walk(d - 1); }
    s = s + a[(d * 4 + i + 63) % 64];
    i = i + 1;
  }
  return s;
}
void main() { print_int(walk(3)); }
|}

let snd3 (_, b, _) = b

let test_recursive_loop () =
  (* [walk]'s loop is live in every frame of the recursion at once *)
  let prog = prepare recursive_src in
  check_same "recursion" prog;
  ignore (check_streams "recursion" (ssa recursive_src));
  let dp = snd3 (Pipeline.profile_all prog ~max_steps:profile_steps) in
  let walk = Ir.func_of_program prog "walk" in
  let l = List.hd (Loops.find walk) in
  let key = ("walk", l.Loops.header) in
  Alcotest.(check bool) "observed" true (Dep_profile.observed dp key);
  let site = (call_site walk "walk").Ir.iid in
  (* the recursive call's store surfaces at the call site, one frame up *)
  Alcotest.(check bool) "dependence through the recursive call" true
    (List.exists
       (fun (w, _, _) -> w = site)
       (Dep_profile.pairs dp key Dep_profile.Cross1
       @ Dep_profile.pairs dp key Dep_profile.Intra))

let test_step_budget () =
  let prog = prepare recursive_src in
  List.iter
    (fun max_steps ->
      check_same ~max_steps (Printf.sprintf "budget %d" max_steps) prog;
      ignore
        (check_streams ~max_steps (Printf.sprintf "budget %d" max_steps) prog))
    [ 1; 57; 400; 1000 ];
  Alcotest.check_raises "profile_all raises at the budget"
    (Interp.Runtime_error "step limit exceeded (400)") (fun () ->
      ignore (Pipeline.profile_all prog ~max_steps:400))

let test_no_event_lost () =
  (* the run never hands a frame to the tree: every executed
     instruction sits in a block the probes saw entered.  A second
     binding of a function name stays shadowed, as in the tree. *)
  let prog = prepare call_prog in
  let shadow = Ir.create_func ~name:"g" ~params:[] ~ret:None in
  let b = Ir.add_block shadow in
  b.Ir.term <- Ir.Ret None;
  shadow.Ir.entry <- b.Ir.bid;
  let prog = { prog with Ir.funcs = prog.Ir.funcs @ [ ("g", shadow) ] } in
  check_same "shadowed g" prog;
  let ep = Edge_profile.create () in
  let r = Engine.profile (Edge_profile.probes ep prog) prog in
  let seen =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc bid ->
            acc
            + Edge_profile.block_count ep f bid
              * List.length (Ir.block f bid).Ir.instrs)
          acc (Ir.block_ids f))
      0
      (Array.to_list (Engine.functions prog))
  in
  Alcotest.(check int) "every instruction under a probed block"
    r.Interp.dynamic_instrs seen

let suite =
  [
    Alcotest.test_case "diff: suite workloads" `Slow test_suite_workloads;
    Alcotest.test_case "diff: examples" `Quick test_examples;
    Alcotest.test_case "diff: corpus" `Quick test_corpus;
    Alcotest.test_case "diff: 200 generated" `Slow test_generated;
    Alcotest.test_case "order: streams match the tree" `Quick test_streams_match;
    Alcotest.test_case "order: block entry before phis" `Quick
      test_block_before_phis;
    Alcotest.test_case "order: call sites" `Quick test_call_order;
    Alcotest.test_case "order: entry and exit" `Quick test_entry_exit;
    Alcotest.test_case "order: defined values" `Quick test_value_kinds;
    Alcotest.test_case "recursive loop in two frames" `Quick test_recursive_loop;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "no event lost" `Quick test_no_event_lost;
  ]
