(** End-to-end driver tests: the two-pass pipeline on small programs
    under all three configurations, workload smoke tests, and the
    report generators. *)

open Spt_driver

let mixed_program =
  {|
int n = 3000;
int a[3000];
int b[3000];
int hist[64];
int checksum;

int mixer(int x) { return (x * 73 + 11) & 1023; }

void main() {
  int i;
  srand(17);
  for (i = 0; i < n; i = i + 1) { b[i] = rand() & 1023; }
  /* parallel: per-element transform through a call */
  for (i = 0; i < n; i = i + 1) { a[i] = mixer(b[i]) + (b[i] >> 3); }
  /* conflict-prone: histogram */
  for (i = 0; i < 64; i = i + 1) { hist[i] = 0; }
  for (i = 0; i < n; i = i + 1) {
    int h = a[i] & 63;
    hist[h] = hist[h] + 1;
  }
  /* serial: running recurrence */
  int x = 1;
  for (i = 0; i < n; i = i + 1) { x = (x * 31 + a[i]) & 65535; }
  checksum = x + hist[0] + hist[63] + a[n - 1];
  print_int(checksum);
}
|}

let test_all_configs_correct () =
  List.iter
    (fun config ->
      let e = Pipeline.evaluate ~config mixed_program in
      Alcotest.(check bool)
        (config.Config.name ^ " outputs match")
        true e.Pipeline.outputs_match;
      Alcotest.(check bool)
        (config.Config.name ^ " does no major harm")
        true
        (e.Pipeline.speedup > 0.95))
    Config.all

let test_config_ordering () =
  (* more information never hurts much: best >= basic - noise *)
  let speedup config = (Pipeline.evaluate ~config mixed_program).Pipeline.speedup in
  let basic = speedup Config.basic in
  let best = speedup Config.best in
  Alcotest.(check bool)
    (Printf.sprintf "best (%.3f) >= basic (%.3f) - 3%%" best basic)
    true
    (best >= basic -. 0.03)

let test_loop_records_complete () =
  let e = Pipeline.evaluate ~config:Config.best mixed_program in
  (* every loop of the program appears exactly once in the records *)
  let keys =
    List.map
      (fun lr -> (lr.Pipeline.lr_func, lr.Pipeline.lr_header))
      e.Pipeline.loops
  in
  Alcotest.(check int) "no duplicate records" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "several loops analyzed" true (List.length keys >= 4);
  (* selected records carry cost, pre-fork size and a loop id *)
  List.iter
    (fun lr ->
      if lr.Pipeline.lr_decision = Pipeline.Selected then begin
        Alcotest.(check bool) "cost present" true (lr.Pipeline.lr_cost <> None);
        Alcotest.(check bool) "prefork present" true
          (lr.Pipeline.lr_prefork_size <> None);
        Alcotest.(check bool) "loop id present" true (lr.Pipeline.lr_loop_id <> None)
      end)
    e.Pipeline.loops

let test_sim_accounting () =
  let e = Pipeline.evaluate ~config:Config.best mixed_program in
  let spt = e.Pipeline.spt in
  Alcotest.(check bool) "instrs positive" true (spt.Spt_tlsim.Tls_machine.instrs > 0);
  Alcotest.(check bool) "spt coverage within total" true
    (spt.Spt_tlsim.Tls_machine.spt_cycles_total
    <= spt.Spt_tlsim.Tls_machine.cycles +. 1.0);
  List.iter
    (fun (_, lm) ->
      let open Spt_tlsim.Tls_machine in
      Alcotest.(check bool) "pairs <= iterations" true
        (lm.lm_pairs * 2 <= lm.lm_iterations + 2);
      Alcotest.(check bool) "violated <= pairs" true
        (lm.lm_violated_pairs <= lm.lm_pairs);
      Alcotest.(check bool) "reexec <= speculated" true
        (lm.lm_reexec_units <= lm.lm_spec_units +. 1.0))
    spt.Spt_tlsim.Tls_machine.loop_metrics

let test_reports_render () =
  let e = Pipeline.evaluate ~config:Config.best mixed_program in
  let results = [ ("mixed", e) ] in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " nonempty") true (String.length s > 10))
    [
      ("table1", Report.table1 results);
      ("fig14", Report.fig14 [ ("best", results) ]);
      ("fig15", Report.fig15 results);
      ("fig16", Report.fig16 results);
      ("fig17", Report.fig17 results);
      ("fig18", Report.fig18 results);
      ("fig19", Report.fig19 results);
    ]

let test_breakdown_sums () =
  let e = Pipeline.evaluate ~config:Config.best mixed_program in
  let b = Report.breakdown_of e.Pipeline.loops in
  let open Report in
  Alcotest.(check int) "buckets partition the loops" b.total
    (b.valid + b.many_vcs + b.small_body + b.large_body + b.small_trip
   + b.high_cost + b.untransformable + b.nested)

(* quick workload smoke: one small-ish workload end to end per config
   family; the full matrix runs in the benchmark harness *)
let test_workload_smoke () =
  let w = Spt_workloads.Suite.find "gap" in
  let e = Pipeline.evaluate ~config:Config.best w.Spt_workloads.Suite.source in
  Alcotest.(check bool) "gap outputs match" true e.Pipeline.outputs_match;
  Alcotest.(check bool) "gap base runs" true
    (e.Pipeline.base.Spt_tlsim.Tls_machine.cycles > 100_000.0)

let test_workloads_all_parse () =
  List.iter
    (fun w ->
      match Spt_srclang.Typecheck.parse_and_check w.Spt_workloads.Suite.source with
      | _ -> ()
      | exception e ->
        Alcotest.fail
          (Printf.sprintf "%s does not compile: %s" w.Spt_workloads.Suite.name
             (Printexc.to_string e)))
    Spt_workloads.Suite.all

(* the observability tentpole, end to end: a real parallel run records
   per-domain timeline events, and the attribution report accounts for
   (almost) all of the run's wall time *)
let test_parallel_attrib () =
  let timeline = Spt_obs.Timeline.create () in
  let runtime_config =
    {
      (Spt_runtime.Runtime.default_config ~jobs:2 ()) with
      timeline = Some timeline;
    }
  in
  let pr = Pipeline.run_parallel ~runtime_config mixed_program in
  Alcotest.(check bool) "timeline recorded events" true
    (Spt_obs.Timeline.events timeline > 0);
  Alcotest.(check bool) "worker lanes registered" true
    (List.length (Spt_obs.Timeline.summary timeline) >= 2);
  let j =
    Report.attrib_json ~predicted:1.5 ~workload:"mixed" ~timeline pr
  in
  (* reparses, carries the schema, and the buckets account for the run *)
  let module Json = Spt_obs.Json in
  match Json.of_string (Json.to_string j) with
  | Error msg -> Alcotest.fail ("attrib JSON does not reparse: " ^ msg)
  | Ok j ->
    Alcotest.(check bool) "schema" true
      (Json.member "schema" j = Some (Json.Str "spt-attrib-v1"));
    (match Json.member "coverage" j with
    | Some (Json.Float c) ->
      Alcotest.(check bool)
        (Printf.sprintf "coverage %.3f ≥ 0.95" c)
        true (c >= 0.95);
      Alcotest.(check bool)
        (Printf.sprintf "coverage %.3f sane" c)
        true (c <= 1.05)
    | _ -> Alcotest.fail "coverage missing");
    (match Json.member "totals" j with
    | Some totals ->
      List.iter
        (fun b ->
          match Json.member b totals with
          | Some (Json.Float v) ->
            Alcotest.(check bool) (b ^ " non-negative") true (v >= 0.0)
          | _ -> Alcotest.fail (b ^ " missing from totals"))
        [ "dispatch"; "fork"; "validate"; "commit"; "rollback"; "idle" ]
    | None -> Alcotest.fail "totals missing");
    (match Json.member "iter_latency_s" j with
    | Some h ->
      Alcotest.(check bool) "iteration latencies observed" true
        (match Json.member "count" h with
        | Some (Json.Int n) -> n > 0
        | _ -> false)
    | None -> Alcotest.fail "iter_latency_s missing");
    match Json.member "overhead_fraction" j with
    | Some (Json.Float f) ->
      Alcotest.(check bool)
        (Printf.sprintf "overhead %.4f ≤ 5%%" f)
        true (f <= 0.05)
    | _ -> Alcotest.fail "overhead_fraction missing"

let suite =
  [
    Alcotest.test_case "all configs correct" `Slow test_all_configs_correct;
    Alcotest.test_case "parallel attrib report" `Slow test_parallel_attrib;
    Alcotest.test_case "config ordering" `Slow test_config_ordering;
    Alcotest.test_case "loop records complete" `Slow test_loop_records_complete;
    Alcotest.test_case "sim accounting" `Slow test_sim_accounting;
    Alcotest.test_case "reports render" `Slow test_reports_render;
    Alcotest.test_case "breakdown sums" `Slow test_breakdown_sums;
    Alcotest.test_case "workload smoke" `Slow test_workload_smoke;
    Alcotest.test_case "workloads parse" `Quick test_workloads_all_parse;
  ]

(* regression lock on the paper's own Fig. 2 loop: the outer while loop
   must be transformed with a tiny pre-fork region (the induction
   update, the paper's temp_i) *)
let test_paper_fig2 () =
  let src =
    {|
int N = 120;
float error[14400];
float p[120];
float cost_total;

void main() {
  int i = 0;
  int k;
  srand(1);
  for (k = 0; k < 14400; k = k + 1) {
    error[k] = float_of_int(rand() & 255) * 0.01;
  }
  for (k = 0; k < 120; k = k + 1) {
    p[k] = float_of_int(rand() & 255) * 0.01;
  }
  float cost = 0.0;
  while (i < N) {
    float cost0 = 0.0;
    int j;
    for (j = 0; j < i; j = j + 1) {
      cost0 = cost0 + fabs(error[i * 120 + j] - p[j]);
    }
    cost = cost + cost0;
    i = i + 1;
  }
  cost_total = cost;
  print_float(cost);
}
|}
  in
  let e = Pipeline.evaluate ~config:Config.best src in
  Alcotest.(check bool) "outputs match" true e.Pipeline.outputs_match;
  let selected =
    List.filter
      (fun lr -> lr.Pipeline.lr_decision = Pipeline.Selected)
      e.Pipeline.loops
  in
  Alcotest.(check bool) "the while loop is transformed" true (selected <> []);
  (* the chosen loop is while-shaped with a small pre-fork region *)
  Alcotest.(check bool) "pre-fork is tiny (the induction update)" true
    (List.exists
       (fun lr ->
         lr.Pipeline.lr_origin = Some `While
         && Option.value ~default:99 lr.Pipeline.lr_prefork_size <= 4)
       selected);
  Alcotest.(check bool)
    (Printf.sprintf "it wins (%.2f)" e.Pipeline.speedup)
    true
    (e.Pipeline.speedup > 1.10)

let suite = suite @ [ Alcotest.test_case "paper Fig. 2 loop" `Slow test_paper_fig2 ]
