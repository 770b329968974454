(** Speculative runtime tests: the domain pool, the speculative store
    buffer (validation, rollback, view chains), the de-speculation
    valve, and the headline acceptance criteria — sequential
    equivalence of every workload under jobs ∈ {1, 2, 4} (including a
    misspeculation stress program) and outcome determinism of repeated
    parallel runs. *)

open Spt_runtime
module Interp = Spt_interp.Interp
module Eval = Spt_ir.Eval
module Ir = Spt_ir.Ir
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Suite = Spt_workloads.Suite

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_runs_jobs () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let hits = Atomic.make 0 in
  for _ = 1 to 200 do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran" 200 (Atomic.get hits)

let test_pool_survives_exceptions () =
  let pool = Pool.create ~jobs:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.submit pool (fun () -> failwith "boom");
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "workers survive raising jobs" 10 (Atomic.get hits);
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Pool.submit pool (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Specmem *)

let vi n = Eval.Vi (Int64.of_int n)

let fresh_master () =
  let mem = Array.make 8 (vi 0) in
  let regs = Array.make 4 None in
  let rng = ref 7L in
  let out = Buffer.create 16 in
  ( {
      Specmem.m_mem = mem;
      m_regs = regs;
      m_rng_get = (fun () -> !rng);
      m_rng_set = (fun v -> rng := v);
      m_out = out;
    },
    mem,
    regs,
    out )

let var vid = { Ir.vid; vname = Printf.sprintf "v%d" vid; vty = Ir.I64 }

let test_specmem_buffering () =
  let master, mem, regs, out = fresh_master () in
  mem.(3) <- vi 30;
  regs.(1) <- Some (vi 10);
  let v = Specmem.create master in
  let mio = Specmem.memio v and rio = Specmem.regio v in
  (* reads come from master and are logged *)
  Alcotest.(check bool) "read master mem" true
    (Specmem.value_eq (mio.Interp.mio_load 3) (vi 30));
  Alcotest.(check bool) "read master reg" true
    (rio.Interp.rio_get (var 1) = Some (vi 10));
  (* writes are buffered: master unchanged until commit *)
  mio.Interp.mio_store 3 (vi 99);
  rio.Interp.rio_set (var 2) (vi 42);
  mio.Interp.mio_print "spec!";
  Alcotest.(check bool) "store buffered" true
    (Specmem.value_eq mem.(3) (vi 30));
  Alcotest.(check bool) "reg buffered" true (regs.(2) = None);
  Alcotest.(check string) "output buffered" "" (Buffer.contents out);
  (* the view reads its own writes *)
  Alcotest.(check bool) "read own store" true
    (Specmem.value_eq (mio.Interp.mio_load 3) (vi 99));
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "mem committed" true
    (Specmem.value_eq mem.(3) (vi 99));
  Alcotest.(check bool) "reg committed" true (regs.(2) = Some (vi 42));
  Alcotest.(check string) "output committed" "spec!" (Buffer.contents out);
  Alcotest.(check bool) "committed flag" true (Specmem.is_committed v)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_specmem_violation_rollback () =
  let master, mem, _, out = fresh_master () in
  mem.(0) <- vi 5;
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  ignore (mio.Interp.mio_load 0);
  mio.Interp.mio_store 1 (vi 123);
  mio.Interp.mio_print "dead";
  (* the "main thread" stores to the address the view read *)
  mem.(0) <- vi 6;
  (match Specmem.validate v with
  | Ok () -> Alcotest.fail "stale read not detected"
  | Error stale ->
    Alcotest.(check bool)
      "names the address" true
      (contains (Specmem.string_of_stale stale) "mem[0]"));
  (* rollback = simply not committing: no speculative effect escaped *)
  Alcotest.(check bool) "mem untouched" true
    (Specmem.value_eq mem.(1) (vi 0));
  Alcotest.(check string) "output untouched" "" (Buffer.contents out)

let test_specmem_chain () =
  let master, mem, _, _ = fresh_master () in
  mem.(2) <- vi 1;
  let p1 = Specmem.create master in
  (Specmem.memio p1).Interp.mio_store 2 (vi 11);
  (* the child sees the uncommitted parent's write *)
  let s1 = Specmem.create ~parent:p1 master in
  Alcotest.(check bool) "reads through chain" true
    (Specmem.value_eq ((Specmem.memio s1).Interp.mio_load 2) (vi 11));
  (* once the parent commits, a fresh child reads master (same value) *)
  Specmem.commit p1;
  let s2 = Specmem.create ~parent:p1 master in
  Alcotest.(check bool) "committed parent falls through to master" true
    (Specmem.value_eq ((Specmem.memio s2).Interp.mio_load 2) (vi 11));
  Alcotest.(check bool) "master holds the committed value" true
    (Specmem.value_eq mem.(2) (vi 11));
  (* read footprints are tracked *)
  let reads, writes = Specmem.footprint p1 in
  Alcotest.(check int) "parent logged no reads" 0 reads;
  Alcotest.(check int) "parent logged one write" 1 writes

let test_specmem_rng_and_floats () =
  let master, _, _, _ = fresh_master () in
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  Alcotest.(check int64) "rng read through" 7L (mio.Interp.mio_rng ());
  mio.Interp.mio_set_rng 13L;
  Alcotest.(check int64) "rng buffered locally" 13L (mio.Interp.mio_rng ());
  (* bit-level float equality: NaN = NaN, -0. <> 0. *)
  Alcotest.(check bool) "nan eq" true
    (Specmem.value_eq (Eval.Vf Float.nan) (Eval.Vf Float.nan));
  Alcotest.(check bool) "signed zero" false
    (Specmem.value_eq (Eval.Vf 0.0) (Eval.Vf (-0.0)))

(* rollback edge cases: the kill path races abandoned workers, so its
   exact semantics (drop late writes, stay idempotent) are what keeps
   the scheduler's "finish into dead views" pattern sound *)

let test_specmem_write_after_kill () =
  let master, mem, _, out = fresh_master () in
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  mio.Interp.mio_store 2 (vi 21);
  Specmem.rollback v;
  (* an abandoned worker still finishing into the dead view *)
  mio.Interp.mio_store 3 (vi 33);
  mio.Interp.mio_print "late";
  Alcotest.(check bool) "rolled back" true (Specmem.is_rolled_back v);
  Alcotest.(check bool) "pre-kill write never reaches master" true
    (Specmem.value_eq mem.(2) (vi 0));
  Alcotest.(check bool) "late write dropped" true
    (Specmem.value_eq mem.(3) (vi 0));
  Alcotest.(check string) "late output dropped" "" (Buffer.contents out);
  (* a descendant chained through the dead view must read master,
     not the dead buffer *)
  let s = Specmem.create ~parent:v master in
  Alcotest.(check bool) "descendant skips dead buffer" true
    (Specmem.value_eq ((Specmem.memio s).Interp.mio_load 2) (vi 0));
  (* committing a killed view is a programming error *)
  Alcotest.check_raises "commit after rollback rejected"
    (Invalid_argument "Specmem.commit: view was rolled back") (fun () ->
      Specmem.commit v)

let test_specmem_double_rollback () =
  let master, mem, _, _ = fresh_master () in
  let v = Specmem.create master in
  (Specmem.memio v).Interp.mio_store 1 (vi 11);
  Specmem.rollback v;
  (* idempotent: the second rollback is the first rollback *)
  Specmem.rollback v;
  Alcotest.(check bool) "still rolled back" true (Specmem.is_rolled_back v);
  Alcotest.(check bool) "still not committed" false (Specmem.is_committed v);
  Alcotest.(check bool) "write still dropped" true
    (Specmem.value_eq mem.(1) (vi 0))

let test_specmem_empty_commit () =
  let master, mem, _, out = fresh_master () in
  mem.(0) <- vi 5;
  let v = Specmem.create master in
  (* no reads, no writes: a task that immediately hit the header *)
  Alcotest.(check bool) "empty view validates" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "committed" true (Specmem.is_committed v);
  Alcotest.(check bool) "master untouched" true
    (Specmem.value_eq mem.(0) (vi 5));
  Alcotest.(check string) "no output" "" (Buffer.contents out);
  let r, w = Specmem.footprint v in
  Alcotest.(check (pair int int)) "empty footprint" (0, 0) (r, w)

let test_specmem_validate_empty_read_log () =
  let master, mem, regs, _ = fresh_master () in
  let v = Specmem.create master in
  (* write-only task: master may change arbitrarily underneath it and
     validation must still pass — nothing was observed *)
  (Specmem.memio v).Interp.mio_store 4 (vi 44);
  mem.(4) <- vi 99;
  mem.(0) <- vi 1;
  regs.(0) <- Some (vi 2);
  Alcotest.(check bool) "no reads, nothing stale" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "buffered write lands over the interim value" true
    (Specmem.value_eq mem.(4) (vi 44))

(* ------------------------------------------------------------------ *)
(* Whole-program speculation *)

(* the scatter-update loop of examples/src/histogram.c: selected for
   SPT under the best config, with a genuine (profiled-rare,
   dynamically-real) cross-iteration dependence through [table] — the
   misspeculation stress case *)
let stress_src =
  {|
int n = 30000;
int table[8192];
int keys[30000];
int checksum;

void main() {
  int i;
  srand(99);
  for (i = 0; i < n; i = i + 1) { keys[i] = rand() & 8191; }
  for (i = 0; i < 8192; i = i + 1) { table[i] = i; }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int k = keys[i];
    int v = table[k];
    table[k] = v * 2 + (k & 7) + 1;
    acc = acc + (v & 15);
  }
  checksum = acc + table[0] + table[8191];
  print_int(checksum);
}
|}

let rt_config ?(despec_after = 3) ?chunk ?depth ?timeline jobs =
  {
    Runtime.jobs;
    window = 2 * jobs;
    despec_after;
    spec_fuel = 2_000_000;
    max_steps = 200_000_000;
    oracle = true;
    chunk;
    depth;
    timeline;
  }

let run_spt ?despec_after ?chunk ?depth ~jobs
    (spt : Pipeline.spt_compilation) =
  Runtime.run
    ~config:(rt_config ?despec_after ?chunk ?depth jobs)
    ~loops:(Pipeline.loop_specs spt) spt.Pipeline.program

let check_oracle name (r : Runtime.result) =
  match r.Runtime.oracle with
  | `Match -> ()
  | `Mismatch m -> Alcotest.fail (Printf.sprintf "%s: oracle: %s" name m)
  | `Skipped -> Alcotest.fail (name ^ ": oracle unexpectedly skipped")

let total f stats = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats

let test_stress_misspeculates_and_matches () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  Alcotest.(check bool) "stress loop selected" true
    (List.length spt.Pipeline.spt_loops >= 1);
  (* a huge valve threshold so misspeculations keep accumulating *)
  let r = run_spt ~despec_after:1_000_000 ~jobs:2 spt in
  check_oracle "stress" r;
  let misspecs =
    total (fun s -> s.Runtime.violations + s.Runtime.faults) r.Runtime.stats
  in
  Alcotest.(check bool) "misspeculation actually happened" true (misspecs > 0);
  Alcotest.(check bool) "and was recovered serially" true
    (total (fun s -> s.Runtime.serial_reexecs) r.Runtime.stats = misspecs)

let test_despeculation_valve () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r = run_spt ~despec_after:2 ~jobs:2 spt in
  check_oracle "valve" r;
  Alcotest.(check bool) "valve tripped" true
    (total (fun s -> s.Runtime.despecs) r.Runtime.stats >= 1);
  (* after the valve, the loop runs sequentially: speculation stops, so
     far fewer forks than the 30000 iterations *)
  Alcotest.(check bool) "speculation stopped" true
    (total (fun s -> s.Runtime.forks) r.Runtime.stats < 1000)

let test_commits_happen () =
  (* a clean parallel loop: every fork should commit *)
  let src =
    {|
int n = 5000;
int a[5000];
int b[5000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; }
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    int y = x * x + 7;
    b[i] = y - (x & 31);
    s = s + (y & 3);
  }
  print_int(s + b[0] + b[4999]);
}
|}
  in
  let spt = Pipeline.compile_spt Config.best src in
  let r = run_spt ~jobs:2 spt in
  check_oracle "clean loop" r;
  (* commits count chunks (one validation per chunk of ~20 iterations),
     and iters count *unrolled* iterations: the 5000-trip source loops
     are unrolled 8x, so a fully speculated loop retires 625.  The init
     loop is genuinely independent and must speculate its whole trip
     without a single violation; the compute loop carries an accumulator
     through the post-fork region, which backbone prediction cannot
     supply — the runtime value predictor learns its chunk stride after
     the first violations and keeps it speculative (test_depth.ml pins
     despecs = 0 for exactly this shape). *)
  let commits = total (fun s -> s.Runtime.commits) r.Runtime.stats in
  Alcotest.(check bool) "speculation commits" true (commits > 10);
  let clean_full =
    List.exists
      (fun (_, s) -> s.Runtime.violations = 0 && s.Runtime.iters >= 600)
      r.Runtime.stats
  in
  Alcotest.(check bool) "independent loop fully speculated" true clean_full

let test_forced_chunk () =
  (* forced chunk sizes must agree with the default run
     observable-for-observable, and record the forced size *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let base = run_spt ~jobs:2 spt in
  check_oracle "chunk base" base;
  List.iter
    (fun chunk ->
      let r = run_spt ~chunk ~jobs:2 spt in
      check_oracle (Printf.sprintf "chunk%d" chunk) r;
      Alcotest.(check string) "same output" base.Runtime.output r.Runtime.output;
      Alcotest.(check string) "same heap" base.Runtime.heap_digest
        r.Runtime.heap_digest;
      List.iter
        (fun (_, (s : Runtime.loop_stats)) ->
          Alcotest.(check int) "forced chunk recorded" chunk s.Runtime.chunk)
        r.Runtime.stats)
    [ 1; 64 ]

let test_workload_equivalence () =
  (* the headline criterion: every workload, jobs ∈ {1, 2, 4},
     byte-identical output (the oracle also compares the final heap) *)
  List.iter
    (fun (w : Suite.workload) ->
      let spt = Pipeline.compile_spt Config.best w.Suite.source in
      List.iter
        (fun jobs ->
          let r = run_spt ~jobs spt in
          check_oracle (Printf.sprintf "%s/j%d" w.Suite.name jobs) r)
        [ 1; 2; 4 ])
    Suite.all

let test_outcome_determinism () =
  (* identical output and final heap across repeated parallel runs,
     even for the misspeculating stress program *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r1 = run_spt ~jobs:4 spt in
  let r2 = run_spt ~jobs:4 spt in
  Alcotest.(check string) "same output" r1.Runtime.output r2.Runtime.output;
  Alcotest.(check string) "same final heap" r1.Runtime.heap_digest
    r2.Runtime.heap_digest;
  check_oracle "determinism run 1" r1;
  check_oracle "determinism run 2" r2

let test_run_parallel_measures () =
  let pr = Pipeline.run_parallel ~config:Config.best ~jobs:2 stress_src in
  Alcotest.(check int) "jobs recorded" 2 pr.Pipeline.pr_jobs;
  Alcotest.(check bool) "speedup positive" true
    (pr.Pipeline.pr_measured_speedup > 0.0);
  Alcotest.(check bool) "runtime stats present" true
    (pr.Pipeline.pr_n_loops >= 1);
  (* and the metrics report carries the runtime counters *)
  let json =
    Spt_driver.Report.metrics_json
      ~parallel:[ ("stress", pr.Pipeline.pr_runtime) ]
      []
  in
  let s = Spt_obs.Json.to_string json in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in report") true (contains s key))
    [ "forks"; "commits"; "kills"; "violations"; "despeculations"; "runtime" ]

let suite =
  [
    Alcotest.test_case "pool runs jobs" `Quick test_pool_runs_jobs;
    Alcotest.test_case "pool survives exceptions" `Quick
      test_pool_survives_exceptions;
    Alcotest.test_case "specmem buffering" `Quick test_specmem_buffering;
    Alcotest.test_case "specmem violation + rollback" `Quick
      test_specmem_violation_rollback;
    Alcotest.test_case "specmem view chain" `Quick test_specmem_chain;
    Alcotest.test_case "specmem rng + floats" `Quick
      test_specmem_rng_and_floats;
    Alcotest.test_case "specmem write after kill" `Quick
      test_specmem_write_after_kill;
    Alcotest.test_case "specmem double rollback" `Quick
      test_specmem_double_rollback;
    Alcotest.test_case "specmem empty commit" `Quick test_specmem_empty_commit;
    Alcotest.test_case "specmem validate empty read log" `Quick
      test_specmem_validate_empty_read_log;
    Alcotest.test_case "stress misspeculates, still matches" `Slow
      test_stress_misspeculates_and_matches;
    Alcotest.test_case "despeculation valve" `Slow test_despeculation_valve;
    Alcotest.test_case "clean loop commits" `Slow test_commits_happen;
    Alcotest.test_case "forced chunk equivalence" `Slow test_forced_chunk;
    Alcotest.test_case "workload equivalence x jobs {1,2,4}" `Slow
      test_workload_equivalence;
    Alcotest.test_case "outcome determinism" `Slow test_outcome_determinism;
    Alcotest.test_case "run_parallel measures" `Slow test_run_parallel_measures;
  ]
