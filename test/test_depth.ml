(** K-deep pipelining tests: ordered-commit invariants of the in-flight
    epoch queue (epochs retire strictly in iteration order, a kill at
    epoch i rolls back exactly epochs >= i, committed state equals
    sequential), the runtime software-value-prediction state machine
    (predict / check / recover, including the loop-carried accumulator
    that used to force despeculation), and the compile-time depth
    chooser. *)

open Spt_runtime
module Interp = Spt_interp.Interp
module Eval = Spt_ir.Eval
module Ir = Spt_ir.Ir
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Cost_model = Spt_cost.Cost_model

let vi n = Eval.Vi (Int64.of_int n)
let var vid = { Ir.vid; vname = Printf.sprintf "v%d" vid; vty = Ir.I64 }

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
    regs )

(* ------------------------------------------------------------------ *)
(* Specmem value prediction: predict / check / recover *)

let test_reg_predict_read_through () =
  let master, regs = fresh_master () in
  regs.(1) <- Some (vi 10);
  let bv = Specmem.create master in
  Specmem.reg_predict bv 1 (vi 20);
  let child = Specmem.create ~parent:bv master in
  (* the chunk reading through the backbone observes the prediction,
     not master's stale value *)
  Alcotest.(check bool) "prediction read through chain" true
    ((Specmem.regio child).Interp.rio_get (var 1) = Some (vi 20));
  (* the check is free: the reader's log recorded the predicted value,
     so validation fails exactly when master disagrees at its turn... *)
  (match Specmem.validate child with
  | Ok () -> Alcotest.fail "mispredict not detected"
  | Error (Specmem.Stale_reg vid) ->
    Alcotest.(check int) "violation names the variable" 1 vid
  | Error s ->
    Alcotest.fail ("unexpected stale class: " ^ Specmem.string_of_stale s));
  (* ...and succeeds when the prediction was right *)
  regs.(1) <- Some (vi 20);
  Alcotest.(check bool) "correct prediction validates" true
    (Result.is_ok (Specmem.validate child))

let test_reg_predict_dropped_on_rollback () =
  let master, regs = fresh_master () in
  regs.(1) <- Some (vi 10);
  let bv = Specmem.create master in
  Specmem.reg_predict bv 1 (vi 20);
  Specmem.rollback bv;
  (* a killed backbone drops its predictions like every other write:
     recovery means later readers see master truth again *)
  Specmem.reg_predict bv 1 (vi 30);
  let child = Specmem.create ~parent:bv master in
  Alcotest.(check bool) "rolled-back predictions invisible" true
    ((Specmem.regio child).Interp.rio_get (var 1) = Some (vi 10))

(* ------------------------------------------------------------------ *)
(* Runtime: ordered commit and the kill cascade *)

(* the same scatter-write stress program test_runtime uses: real
   violations at every depth *)
let stress_src =
  {|
int n = 30000;
int table[8192];
int checksum = 0;
void main() {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int k = (i * 2654435761) % 8192;
    if (k < 0) { k = k + 8192; }
    int v = table[k];
    table[k] = v * 2 + (k & 7) + 1;
    acc = acc + (v & 15);
  }
  checksum = acc + table[0] + table[8191];
  print_int(checksum);
}
|}

(* a clean independent loop plus a loop carrying [s] through the
   post-fork region — the accumulator pattern runtime SVP must keep
   speculative (it used to trip the despeculation valve) *)
let accumulator_src =
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

let run_spt ?(despec_after = 3) ?depth ?(window = 8) ~jobs
    (spt : Pipeline.spt_compilation) =
  Runtime.run
    ~config:
      {
        Runtime.jobs;
        window;
        despec_after;
        spec_fuel = 2_000_000;
        max_steps = 200_000_000;
        oracle = true;
        chunk = None;
        depth;
        timeline = None;
      }
    ~loops:(Pipeline.loop_specs spt) spt.Pipeline.program

let check_oracle name (r : Runtime.result) =
  match r.Runtime.oracle with
  | `Match -> ()
  | `Mismatch m -> Alcotest.fail (Printf.sprintf "%s: oracle: %s" name m)
  | `Skipped -> Alcotest.fail (name ^ ": oracle unexpectedly skipped")

let total f stats = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats

let test_depth_equivalence () =
  (* ordered commit at every depth: output (the strongest observable of
     commit order — prints retire exactly once, in iteration order) and
     the final heap must equal the sequential reference and each other *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let base = run_spt ~depth:1 ~jobs:2 spt in
  check_oracle "depth 1" base;
  List.iter
    (fun depth ->
      let r = run_spt ~depth ~jobs:2 spt in
      check_oracle (Printf.sprintf "depth %d" depth) r;
      Alcotest.(check string) "same output" base.Runtime.output
        r.Runtime.output;
      Alcotest.(check string) "same heap" (Lazy.force base.Runtime.heap_digest)
        (Lazy.force r.Runtime.heap_digest);
      List.iter
        (fun (_, (s : Runtime.loop_stats)) ->
          Alcotest.(check int) "forced depth recorded" depth s.Runtime.depth)
        r.Runtime.stats)
    [ 2; 4 ]

let test_depth_clamped_to_window () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r = run_spt ~depth:100 ~window:4 ~jobs:2 spt in
  check_oracle "clamped" r;
  List.iter
    (fun (_, (s : Runtime.loop_stats)) ->
      Alcotest.(check int) "depth capped at the window" 4 s.Runtime.depth)
    r.Runtime.stats

let test_kill_cascade_exact_rollback () =
  (* with a violation-heavy loop and 4 epochs in flight, kill cascades
     must actually fire, and every misspeculation is recovered by
     exactly one serial replay: a kill rolls back the offender and its
     successors, never a committed epoch (the oracle would catch a
     double commit or a lost iteration) *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r = run_spt ~despec_after:1_000_000 ~depth:4 ~jobs:2 spt in
  check_oracle "cascade" r;
  let misspecs =
    total (fun s -> s.Runtime.violations + s.Runtime.faults) r.Runtime.stats
  in
  Alcotest.(check bool) "misspeculation happened" true (misspecs > 0);
  Alcotest.(check bool) "cascade kills happened" true
    (total (fun s -> s.Runtime.kills) r.Runtime.stats > 0);
  Alcotest.(check int) "one serial replay per misspeculation"
    misspecs
    (total (fun s -> s.Runtime.serial_reexecs) r.Runtime.stats)

let test_depth_determinism () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r1 = run_spt ~depth:4 ~jobs:4 spt in
  let r2 = run_spt ~depth:4 ~jobs:4 spt in
  check_oracle "determinism run 1" r1;
  check_oracle "determinism run 2" r2;
  Alcotest.(check string) "same output" r1.Runtime.output r2.Runtime.output;
  Alcotest.(check string) "same heap" (Lazy.force r1.Runtime.heap_digest)
    (Lazy.force r2.Runtime.heap_digest)

(* ------------------------------------------------------------------ *)
(* Runtime SVP: the accumulator no longer despeculates *)

let test_accumulator_stays_speculative () =
  let spt = Pipeline.compile_spt Config.best accumulator_src in
  let r = run_spt ~jobs:2 spt in
  check_oracle "accumulator" r;
  Alcotest.(check int) "no despeculation with runtime SVP" 0
    (total (fun s -> s.Runtime.despecs) r.Runtime.stats);
  let predicts, hits, _ =
    List.fold_left
      (fun (p, h, m) (_, s) ->
        let p', h', m' = Runtime.svp_totals s in
        (p + p', h + h', m + m'))
      (0, 0, 0) r.Runtime.stats
  in
  Alcotest.(check bool) "predictions were injected" true (predicts > 0);
  Alcotest.(check bool) "and mostly committed" true (hits > 0)

let test_svp_learns_then_recovers () =
  (* per-variable telemetry: the accumulator register shows the full
     predict / mispredict / re-learn cycle — at least one mispredict
     (the activating violation pattern) and strictly more hits *)
  let spt = Pipeline.compile_spt Config.best accumulator_src in
  let r = run_spt ~depth:4 ~jobs:2 spt in
  check_oracle "svp recover" r;
  let vars =
    List.concat_map (fun (_, s) -> Runtime.sorted_svp s) r.Runtime.stats
  in
  Alcotest.(check bool) "a predicted variable is recorded" true (vars <> []);
  List.iter
    (fun (_, (v : Runtime.svp_stats)) ->
      (* a prediction resolves at most once — as a hit or a mispredict;
         the remainder rode in epochs a cascade killed before their
         validation turn *)
      Alcotest.(check bool) "predictions resolve at most once" true
        (v.Runtime.sv_hits + v.Runtime.sv_mispredicts <= v.Runtime.sv_predicts))
    vars;
  (* and the counters surface in the stats JSON for the feedback loop *)
  let s = Spt_obs.Json.to_string (Runtime.stats_json r) in
  let contains affix =
    let n = String.length s and m = String.length affix in
    let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
    m = 0 || go 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in stats json") true (contains key))
    [ "\"svp\""; "\"depth\""; "\"predicts\""; "\"mispredicts\"" ]

(* ------------------------------------------------------------------ *)
(* Compile-time depth chooser *)

let test_pick_depth_extremes () =
  (* a clean loop pipelines as deep as the candidates go; a
     violation-heavy loop stays at the paper's main+1 model *)
  Alcotest.(check int) "clean loop goes deepest" 8
    (Cost_model.pick_depth ~cost:0.0 ~body_size:100.0
       ~chunk:(Runtime.auto_chunk 100.0));
  Alcotest.(check int) "hopeless loop stays at depth 1" 1
    (Cost_model.pick_depth ~cost:100.0 ~body_size:1.0
       ~chunk:(Runtime.auto_chunk 1.0))

let test_depth_cost_shape () =
  (* the pipelining gain is monotone at zero risk... *)
  Alcotest.(check bool) "deeper is cheaper when clean" true
    (Cost_model.depth_cost ~chunk_prob:0.0 ~depth:8
    < Cost_model.depth_cost ~chunk_prob:0.0 ~depth:1);
  (* ...and the cascade penalty is monotone in depth *)
  Alcotest.(check bool) "cascade cost grows with depth" true
    (Cost_model.cascade_factor ~depth:8 > Cost_model.cascade_factor ~depth:1);
  Alcotest.(check (float 1e-9)) "depth 1 has no cascade penalty" 1.0
    (Cost_model.cascade_factor ~depth:1)

let test_depth_in_cache_key () =
  let base = Config.best in
  let forced = { base with Config.depth = Some 2 } in
  Alcotest.(check bool) "forced depth changes the cache key" false
    (String.equal (Config.cache_key base) (Config.cache_key forced))

let suite =
  [
    Alcotest.test_case "reg_predict read through" `Quick
      test_reg_predict_read_through;
    Alcotest.test_case "reg_predict dropped on rollback" `Quick
      test_reg_predict_dropped_on_rollback;
    Alcotest.test_case "ordered commit at depths 1/2/4" `Slow
      test_depth_equivalence;
    Alcotest.test_case "depth clamped to window" `Slow
      test_depth_clamped_to_window;
    Alcotest.test_case "kill cascade rolls back exactly" `Slow
      test_kill_cascade_exact_rollback;
    Alcotest.test_case "deep runs are deterministic" `Slow
      test_depth_determinism;
    Alcotest.test_case "accumulator stays speculative" `Slow
      test_accumulator_stays_speculative;
    Alcotest.test_case "svp learns then recovers" `Slow
      test_svp_learns_then_recovers;
    Alcotest.test_case "pick_depth extremes" `Quick test_pick_depth_extremes;
    Alcotest.test_case "depth cost shape" `Quick test_depth_cost_shape;
    Alcotest.test_case "depth in cache key" `Quick test_depth_in_cache_key;
  ]
