(** Profiler tests: edge counts and trip counts, dependence
    probabilities (intra / cross-iteration, through calls), and value
    stride detection. *)

open Spt_ir
open Spt_profile
module Engine = Spt_exec.Engine

let compile src = Lower.lower_program (Spt_srclang.Typecheck.parse_and_check src)

let profile src =
  let prog = compile src in
  let ep = Edge_profile.create () in
  let dp = Dep_profile.create prog in
  let probes =
    Engine.combine [ Edge_profile.probes ep prog; Dep_profile.probes dp prog ]
  in
  let _ = Engine.profile probes prog in
  (prog, ep, dp)

let test_edge_counts () =
  let prog, ep, _ =
    profile
      {|
int n = 10;
void main() {
  int i = 0;
  int s = 0;
  while (i < n) {
    if (i % 2 == 0) { s = s + 1; }
    i = i + 1;
  }
  print_int(s);
}
|}
  in
  let f = Ir.func_of_program prog "main" in
  let l = List.hd (Loops.find f) in
  (* the header runs n+1 times: 10 iterations plus the failing test *)
  Alcotest.(check int) "header count" 11
    (Edge_profile.block_count ep f l.Loops.header);
  Alcotest.(check (float 0.01)) "trip count" 11.0
    (Edge_profile.avg_trip_count ep f l);
  Alcotest.(check int) "main called once" 1 (Edge_profile.call_count ep f);
  (* the conditional arm executes half the iterations *)
  let arm_prob =
    Loops.Iset.fold
      (fun bid acc ->
        Float.min acc (Edge_profile.exec_prob_in_loop ep f l bid))
      l.Loops.body 1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "some block at ~1/2 probability (%.2f)" arm_prob)
    true
    (arm_prob > 0.3 && arm_prob < 0.7)

let test_trip_count_nested () =
  let prog, ep, _ =
    profile
      {|
void main() {
  int i;
  int j;
  int s = 0;
  for (i = 0; i < 5; i = i + 1) {
    for (j = 0; j < 7; j = j + 1) { s = s + 1; }
  }
  print_int(s);
}
|}
  in
  let f = Ir.func_of_program prog "main" in
  let loops = Loops.find f in
  let inner = List.find (fun l -> l.Loops.depth = 2) loops in
  (* entered 5 times, 8 header executions each *)
  Alcotest.(check (float 0.01)) "inner trip" 8.0
    (Edge_profile.avg_trip_count ep f inner)

let loop_key prog fname =
  let f = Ir.func_of_program prog fname in
  let l = List.hd (Loops.find f) in
  ((fname, l.Loops.header), f, l)

let test_dep_profile_cross () =
  (* every iteration reads what the previous one wrote: cross1 prob 1 *)
  let prog, _, dp =
    profile
      {|
int n = 50;
int a[50];
void main() {
  int i = 1;
  while (i < n) {
    a[i] = a[i - 1] + 1;
    i = i + 1;
  }
  print_int(a[49]);
}
|}
  in
  let key, f, l = loop_key prog "main" in
  ignore f;
  ignore l;
  Alcotest.(check bool) "loop observed" true (Dep_profile.observed dp key);
  let cross = Dep_profile.pairs dp key Dep_profile.Cross1 in
  Alcotest.(check bool) "cross pair found" true (cross <> []);
  List.iter
    (fun (_, _, p) ->
      Alcotest.(check (float 0.05)) "certain recurrence" 1.0 p)
    cross

let test_dep_profile_rare () =
  (* conflicts only when (i*17)%64 lands on the next read: rare *)
  let prog, _, dp =
    profile
      {|
int n = 200;
int a[64];
void main() {
  int i = 0;
  while (i < n) {
    int x = a[(i * 17) & 63];
    a[(i * 29 + 5) & 63] = x + i;
    i = i + 1;
  }
  print_int(a[0]);
}
|}
  in
  let key, _, _ = loop_key prog "main" in
  let cross = Dep_profile.pairs dp key Dep_profile.Cross1 in
  List.iter
    (fun (_, _, p) ->
      Alcotest.(check bool) (Printf.sprintf "rare conflict %.3f" p) true (p < 0.3))
    cross

let test_dep_profile_intra () =
  (* write then read the same cell within one iteration *)
  let prog, _, dp =
    profile
      {|
int n = 30;
int a[30];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = i * 2;
    int y = a[i] + 1;
    a[i] = y;
    i = i + 1;
  }
  print_int(a[29]);
}
|}
  in
  let key, _, _ = loop_key prog "main" in
  let intra = Dep_profile.pairs dp key Dep_profile.Intra in
  Alcotest.(check bool) "intra dependence observed" true (intra <> []);
  Alcotest.(check int) "no cross dependences" 0
    (List.length (Dep_profile.pairs dp key Dep_profile.Cross1))

let test_dep_profile_through_calls () =
  (* the callee's store surfaces at the call site *)
  let prog, _, dp =
    profile
      {|
int n = 40;
int a[40];
void put(int i, int v) { a[i] = v; }
int get(int i) { return a[i]; }
void main() {
  int i = 1;
  while (i < n) {
    put(i, get(i - 1) + 1);
    i = i + 1;
  }
  print_int(a[39]);
}
|}
  in
  let key, f, l = loop_key prog "main" in
  (* writer and reader owners must be call instructions of main's body *)
  let cross = Dep_profile.pairs dp key Dep_profile.Cross1 in
  Alcotest.(check bool) "cross through calls" true (cross <> []);
  let body_instrs =
    Loops.Iset.fold
      (fun bid acc ->
        List.map (fun (i : Ir.instr) -> i.Ir.iid) (Ir.block f bid).Ir.instrs @ acc)
      l.Loops.body []
  in
  List.iter
    (fun (w, r, _) ->
      Alcotest.(check bool) "owner writer in body" true (List.mem w body_instrs);
      Alcotest.(check bool) "owner reader in body" true (List.mem r body_instrs))
    cross

let test_value_profile_stride () =
  let src =
    {|
int n = 60;
int a[60];
void main() {
  int i = 0;
  int x = 5;
  while (i < n) {
    a[i] = x;
    x = x + 7;
    i = i + 1;
  }
  print_int(x);
}
|}
  in
  let prog = compile src in
  List.iter (fun (_, f) -> Ssa.construct f) prog.Ir.funcs;
  let f = Ir.func_of_program prog "main" in
  let l = List.hd (Loops.find f) in
  let candidates = Spt_transform.Svp.candidates f l in
  Alcotest.(check bool) "carried candidates" true (candidates <> []);
  let targets =
    List.map
      (fun (_, def) -> { Value_profile.tfunc = "main"; tiid = def })
      candidates
  in
  let vp = Value_profile.create targets in
  let _ = Engine.profile (Value_profile.probes vp prog) prog in
  (* one of the carried values strides by 7, another (i) by 1 *)
  let strides =
    List.filter_map
      (fun (_, def) ->
        Option.map
          (fun p -> p.Value_profile.stride)
          (Value_profile.predictable vp ~func:"main" ~iid:def))
      candidates
  in
  Alcotest.(check bool) "stride 7 found" true (List.mem 7L strides);
  Alcotest.(check bool) "stride 1 found" true (List.mem 1L strides)

let test_value_profile_unpredictable () =
  let src =
    {|
int n = 100;
void main() {
  int i = 0;
  int x = 1;
  while (i < n) {
    x = (x * 1103515245 + 12345) & 1048575;
    i = i + 1;
  }
  print_int(x);
}
|}
  in
  let prog = compile src in
  List.iter (fun (_, f) -> Ssa.construct f) prog.Ir.funcs;
  let f = Ir.func_of_program prog "main" in
  let l = List.hd (Loops.find f) in
  let candidates = Spt_transform.Svp.candidates f l in
  let targets =
    List.map (fun (_, d) -> { Value_profile.tfunc = "main"; tiid = d }) candidates
  in
  let vp = Value_profile.create targets in
  let _ = Engine.profile (Value_profile.probes vp prog) prog in
  (* the LCG-like chain must not be predictable (i's stride-1 is) *)
  List.iter
    (fun (_, def) ->
      match Value_profile.best_prediction vp ~func:"main" ~iid:def with
      | Some p when p.Value_profile.stride <> 1L ->
        Alcotest.(check bool)
          (Printf.sprintf "hit rate %.2f below bar" p.Value_profile.hit_rate)
          true
          (p.Value_profile.hit_rate < 0.5)
      | _ -> ())
    candidates

let suite =
  [
    Alcotest.test_case "edge counts" `Quick test_edge_counts;
    Alcotest.test_case "nested trip counts" `Quick test_trip_count_nested;
    Alcotest.test_case "dep: certain recurrence" `Quick test_dep_profile_cross;
    Alcotest.test_case "dep: rare conflicts" `Quick test_dep_profile_rare;
    Alcotest.test_case "dep: intra only" `Quick test_dep_profile_intra;
    Alcotest.test_case "dep: through calls" `Quick test_dep_profile_through_calls;
    Alcotest.test_case "value: stride" `Quick test_value_profile_stride;
    Alcotest.test_case "value: unpredictable" `Quick test_value_profile_unpredictable;
  ]
