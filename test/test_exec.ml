(** Bytecode engine parity tests: the flat-bytecode engine must agree
    with the tree-walking interpreter observable-for-observable —
    output, return value, dynamic instruction count, and the exact
    error message on every runtime failure — also when a marker handler
    drives the SPT loops through the segment protocol. *)

open Spt_interp
module Ir = Spt_ir.Ir
module Engine = Spt_exec.Engine
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Runtime = Spt_runtime.Runtime

(* value options compare structurally: ints and floats are immediate *)
let check_same name (tree : Interp.result) (bc : Interp.result) =
  Alcotest.(check string) (name ^ ": output") tree.Interp.output
    bc.Interp.output;
  Alcotest.(check bool)
    (name ^ ": return value") true
    (tree.Interp.return_value = bc.Interp.return_value);
  Alcotest.(check int)
    (name ^ ": dynamic instrs") tree.Interp.dynamic_instrs
    bc.Interp.dynamic_instrs

let parity name ?max_steps src =
  let prog = Pipeline.front_end src in
  check_same name (Interp.run ?max_steps prog) (Engine.run ?max_steps prog)

let error_of ?max_steps run prog =
  match run ?max_steps prog with
  | (_ : Interp.result) -> None
  | exception Interp.Runtime_error m -> Some m

let err_parity name ?max_steps src =
  let prog = Pipeline.front_end src in
  let te = error_of ?max_steps (fun ?max_steps p -> Interp.run ?max_steps p) prog in
  let be = error_of ?max_steps Engine.run prog in
  Alcotest.(check bool) (name ^ ": tree raises") true (te <> None);
  Alcotest.(check (option string)) (name ^ ": same message") te be

(* ------------------------------------------------------------------ *)

let test_arith_and_bits () =
  parity "arith"
    {|
void main() {
  print_int(7 + 3 * 2);
  print_int(-7 / 2);
  print_int(-7 % 3);
  print_int(1 << 12);
  print_int(255 & 15);
  print_int(5 ^ 3);
  print_int(5 | 3);
  print_int(~0);
  print_int(100 > 99);
  print_int(100 <= 99);
}
|}

let test_floats_and_builtins () =
  parity "floats"
    {|
void main() {
  float x = 1.5;
  float y = x * 4.0 - 2.0;
  print_float(y);
  print_float(sqrt(81.0));
  print_float(fabs(0.0 - 3.25));
  print_int(int_of_float(y));
  print_float(float_of_int(41));
}
|}

let test_phis () =
  (* loop-carried values updated under branches: phi-heavy control *)
  parity "phis"
    {|
void main() {
  int i;
  int even = 0;
  int odd = 0;
  int m = 1;
  for (i = 0; i < 50; i = i + 1) {
    if ((i & 1) == 0) { even = even + i; } else { odd = odd + i; m = m * 2; }
    if (m > 1000) { m = m - 999; }
  }
  print_int(even);
  print_int(odd);
  print_int(m);
}
|}

let test_arrays_nested_loops () =
  parity "arrays"
    {|
int a[40];
int b[40];
void main() {
  int i;
  int j;
  for (i = 0; i < 40; i = i + 1) { a[i] = i * i - 3 * i; }
  for (i = 0; i < 40; i = i + 1) {
    int s = 0;
    for (j = 0; j <= i; j = j + 1) { s = s + a[j]; }
    b[i] = s;
  }
  print_int(b[0] + b[17] + b[39]);
}
|}

let test_calls_and_recursion () =
  parity "calls"
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int sum3(int x, int y, int z) { return x + y + z; }
void main() {
  print_int(fib(15));
  print_int(sum3(fib(5), fib(6), fib(7)));
}
|}

let test_array_args () =
  parity "array args"
    {|
int buf[16];
int fill(int v[], int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { v[i] = 2 * i + 1; }
  return v[n - 1];
}
void main() {
  print_int(fill(buf, 16));
  print_int(buf[3]);
}
|}

let test_rand_determinism () =
  (* the fixed-seed LCG must advance identically on both engines *)
  parity "rand"
    {|
void main() {
  int i;
  int s = 0;
  srand(42);
  for (i = 0; i < 100; i = i + 1) { s = s + (rand() % 7); }
  print_int(s);
  srand(42);
  print_int(rand());
}
|}

let test_while_loops () =
  parity "while"
    {|
void main() {
  int n = 100000;
  int steps = 0;
  while (n != 1) {
    if ((n & 1) == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps = steps + 1;
  }
  print_int(steps);
}
|}

(* ------------------------------------------------------------------ *)
(* Error-message parity *)

let test_err_out_of_bounds () =
  err_parity "oob store"
    {|
int a[3];
void main() {
  int i;
  for (i = 0; i < 10; i = i + 1) { a[i] = i; }
}
|};
  err_parity "oob load"
    {|
int a[3];
void main() { print_int(a[7]); }
|}

let test_err_division_by_zero () =
  err_parity "div by zero"
    {|
void main() {
  int z = 0;
  print_int(10 / z);
}
|};
  err_parity "mod by zero"
    {|
void main() {
  int z = 0;
  print_int(10 % z);
}
|}

let test_err_step_limit () =
  err_parity "step limit" ~max_steps:500
    {|
void main() {
  int i;
  int s = 0;
  for (i = 0; i < 100000; i = i + 1) { s = s + i; }
  print_int(s);
}
|}

let test_compile_code_size () =
  let prog =
    Pipeline.front_end
      {|
int f(int x) { return x * x; }
void main() { print_int(f(9)); }
|}
  in
  let eng = Engine.compile prog in
  Alcotest.(check bool) "code compiled" true (Engine.code_size eng > 0)

(* ------------------------------------------------------------------ *)
(* The segment protocol *)

let sources () =
  Fixture.sources "examples/src" @ Fixture.sources "test/corpus"

(* the SPT program and the loops the runtime registers for it *)
let spt_compile src =
  let spt = Pipeline.compile_spt Config.best src in
  (spt.Pipeline.program, Pipeline.loop_specs spt)

(* the registered loop a marker engages in [frame], as the runtime's
   handler finds it *)
let engaged loops (frame : Engine.frame) = function
  | `Fork id ->
    List.find_opt
      (fun (ls : Runtime.loop_spec) ->
        ls.ls_id = id && String.equal ls.ls_fname frame.func.Ir.fname)
      loops
  | `Kill _ -> None

(* run [main] on an engine machine with [handler m] installed, on
   [store] or a fresh one *)
let run_machine ?max_steps ?store prog handler =
  let eng = Engine.compile prog in
  let store =
    match store with
    | Some s -> s
    | None -> Interp.new_store (Engine.layout eng) prog
  in
  let m = Engine.make ?max_steps ~memio:(Interp.store_memio store) eng in
  Engine.set_marker_handler m (Some (handler m));
  let ret = Engine.call m (Ir.func_of_program prog "main") [] [] in
  {
    Interp.return_value = ret;
    output = Buffer.contents store.Interp.sout;
    dynamic_instrs = Engine.steps m;
  }

let proceed _m _frame _marker _after = Engine.Proceed

type drive_log = {
  mutable driven : int;  (** loop entries the handler drove *)
  mutable inside : bool;  (** a driven segment is executing *)
  mutable first : (int * int) option;
      (** steps at the start and the end of the first driven entry *)
}

(* Drive each registered loop from its fork through a frame whose
   registers are the engaged frame's, behind a [regio]: resume from
   every cursor a segment stops at, and leave past the loop's kill or
   with the frame's return. *)
let drive loops log m (frame : Engine.frame) marker after =
  match engaged loops frame marker with
  | None -> Engine.Proceed
  | Some ls ->
    let regio =
      {
        Interp.rio_get = (fun v -> frame.regs.(v.Ir.vid));
        rio_set = (fun v x -> frame.regs.(v.Ir.vid) <- Some x);
      }
    in
    let view = Engine.mk_frame frame.func ~arr_args:frame.arr_args ~regio in
    let start = Engine.steps m in
    log.driven <- log.driven + 1;
    log.inside <- true;
    let rec go cur =
      match Engine.exec_segment m view ~watch_markers:true cur with
      | Engine.Seg_marker (`Kill id, after) when id = ls.ls_id ->
        Engine.Jump_to after
      | Engine.Seg_marker (_, after) -> go after
      | Engine.Seg_return v -> Engine.Return_now v
      | Engine.Seg_stop_block _ -> assert false (* no stop_block given *)
    in
    let action = go after in
    log.inside <- false;
    if log.first = None then log.first <- Some (start, Engine.steps m);
    action

(* Stop once at the header of the first registered loop entered, in the
   engaged frame itself, and resume from the cursor the stop returns. *)
let stop_once loops stopped m frame marker after =
  match engaged loops frame marker with
  | Some ls when not !stopped -> (
    match
      Engine.exec_segment m frame ~stop_block:ls.ls_header
        ~watch_markers:false after
    with
    | Engine.Seg_stop_block c ->
      stopped := true;
      Engine.Jump_to c
    | Engine.Seg_return v -> Engine.Return_now v
    | Engine.Seg_marker _ -> assert false (* markers not watched *))
  | _ -> Engine.Proceed

let test_segment_protocol () =
  List.iter
    (fun (name, src) ->
      let prog, loops = spt_compile src in
      Alcotest.(check bool) (name ^ ": has an SPT loop") true (loops <> []);
      let tree = Interp.run prog in
      check_same (name ^ " proceed") tree (run_machine prog proceed);
      let log = { driven = 0; inside = false; first = None } in
      check_same (name ^ " driven") tree (run_machine prog (drive loops log));
      Alcotest.(check bool)
        (name ^ ": a loop was driven")
        true (log.driven > 0);
      let stopped = ref false in
      check_same (name ^ " stop_block") tree
        (run_machine prog (stop_once loops stopped));
      Alcotest.(check bool) (name ^ ": stopped at a header") true !stopped)
    (sources ())

(* the steps and block entries the tree has counted when the first
   registered fork executes *)
let first_fork prog loops =
  let steps = ref 0 and entries = ref 0 and at = ref None in
  let hooks =
    {
      Interp.null_hooks with
      on_block = (fun _ _ -> incr entries);
      on_instr =
        (fun f _ i _ ->
          incr steps;
          match i.Ir.kind with
          | Ir.Spt_fork id
            when !at = None
                 && List.exists
                      (fun (ls : Runtime.loop_spec) ->
                        ls.ls_id = id && String.equal ls.ls_fname f.Ir.fname)
                      loops ->
            at := Some (!steps, !entries)
          | _ -> ());
    }
  in
  ignore (Interp.run ~hooks prog);
  Option.get !at

(* A budget that trips halfway through the first driven loop entry (the
   budget counts steps plus block entries) raises the tree's error from
   inside the driven segment, with the tree's memory, RNG state and
   output at that point. *)
let test_budget_in_driven_segment () =
  List.iter
    (fun (name, src) ->
      let prog, loops = spt_compile src in
      let log = { driven = 0; inside = false; first = None } in
      ignore (run_machine prog (drive loops log));
      let start, stop = Option.get log.first in
      let fork_steps, fork_entries = first_fork prog loops in
      Alcotest.(check int) (name ^ ": steps at the fork") fork_steps start;
      let max_steps = fork_steps + fork_entries + ((stop - start) / 2) in
      let error_of run =
        match run () with
        | (_ : Interp.result) -> None
        | exception Interp.Runtime_error m -> Some m
      in
      let fresh () = Interp.new_store (Layout.build prog.Ir.globals) prog in
      let tree_store = fresh () and bc_store = fresh () in
      let tree =
        error_of (fun () -> Interp.run ~max_steps ~store:tree_store prog)
      in
      let log = { driven = 0; inside = false; first = None } in
      let bc =
        error_of (fun () ->
            run_machine ~max_steps ~store:bc_store prog (drive loops log))
      in
      Alcotest.(check bool) (name ^ ": tree raises") true (tree <> None);
      Alcotest.(check (option string)) (name ^ ": same message") tree bc;
      Alcotest.(check bool)
        (name ^ ": inside a driven segment")
        true log.inside;
      let image (st : Interp.store) =
        (st.smem, st.srng, Buffer.contents st.sout)
      in
      Alcotest.(check bool)
        (name ^ ": same state at the trip")
        true
        (compare (image tree_store) (image bc_store) = 0))
    (sources ())

(* Only the first binding of a name is compiled: a shadowed second one
   is refused by name, not run some other way.  A cursor past the code
   is refused too. *)
let test_uncompiled_function () =
  let prog =
    Pipeline.front_end {|
int g() { return 7; }
void main() { print_int(g()); }
|}
  in
  let shadow = Ir.create_func ~name:"g" ~params:[] ~ret:None in
  let b = Ir.add_block shadow in
  b.Ir.term <- Ir.Ret None;
  shadow.Ir.entry <- b.Ir.bid;
  let prog = { prog with Ir.funcs = prog.Ir.funcs @ [ ("g", shadow) ] } in
  check_same "shadowed g" (Interp.run prog) (Engine.run prog);
  let eng = Engine.compile prog in
  let store = Interp.new_store (Engine.layout eng) prog in
  let m = Engine.make ~memio:(Interp.store_memio store) eng in
  let g = Ir.func_of_program prog "g" in
  Alcotest.(check bool)
    "first binding runs" true
    (Engine.call m g [] [] = Some (Spt_ir.Eval.Vi 7L));
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: shadowed g ran" what
    | exception Invalid_argument msg ->
      let needle = "function g " in
      let n = String.length needle in
      let rec at i =
        i + n <= String.length msg
        && (String.sub msg i n = needle || at (i + 1))
      in
      if not (at 0) then
        Alcotest.failf "%s: message %S does not name g" what msg
  in
  refused "call" (fun () -> ignore (Engine.call m shadow [] []));
  let regio = { Interp.rio_get = (fun _ -> None); rio_set = (fun _ _ -> ()) } in
  refused "exec_segment" (fun () ->
      ignore
        (Engine.exec_segment m
           (Engine.mk_frame shadow ~arr_args:[||] ~regio)
           ~watch_markers:true
           { Engine.cbid = shadow.Ir.entry; cprev = -1; cpos = 0 }));
  match
    Engine.exec_segment m
      { Engine.func = g; regs = [||]; arr_args = [||]; frio = None }
      ~watch_markers:true
      { Engine.cbid = g.Ir.entry; cprev = -1; cpos = 1_000_000 }
  with
  | _ -> Alcotest.fail "a cursor past the code ran"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "arith + bit ops" `Quick test_arith_and_bits;
    Alcotest.test_case "floats + builtins" `Quick test_floats_and_builtins;
    Alcotest.test_case "phi-heavy control" `Quick test_phis;
    Alcotest.test_case "arrays + nested loops" `Quick
      test_arrays_nested_loops;
    Alcotest.test_case "calls + recursion" `Quick test_calls_and_recursion;
    Alcotest.test_case "array arguments" `Quick test_array_args;
    Alcotest.test_case "rand determinism" `Quick test_rand_determinism;
    Alcotest.test_case "while loops" `Quick test_while_loops;
    Alcotest.test_case "error: out of bounds" `Quick test_err_out_of_bounds;
    Alcotest.test_case "error: division by zero" `Quick
      test_err_division_by_zero;
    Alcotest.test_case "error: step limit" `Quick test_err_step_limit;
    Alcotest.test_case "compile + code size" `Quick test_compile_code_size;
    Alcotest.test_case "segments: proceed, driven, stop_block" `Quick
      test_segment_protocol;
    Alcotest.test_case "segments: budget inside a driven loop" `Quick
      test_budget_in_driven_segment;
    Alcotest.test_case "refused: uncompiled function, bad cursor" `Quick
      test_uncompiled_function;
  ]
