(** Profile-guided feedback tests: the persistent store's canonical
    serialization (save/load byte-stability, commutative merge,
    corruption degrading to empty, count-sensitive digests), the
    runtime-telemetry bridge, and the adaptive re-partitioning loop on
    a workload whose seeded dependence pattern makes the static
    partition mispredict. *)

module Json = Spt_obs.Json
module Store = Spt_profile.Profile_store
module Telemetry = Spt_feedback.Telemetry
module Adapt = Spt_feedback.Adapt
module Pipeline = Spt_driver.Pipeline

let with_tmpdir = Fixture.with_tmpdir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* replace the first occurrence of [needle] in [hay] with [sub] *)
let replace hay needle sub =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then hay
    else if String.sub hay i nn = needle then
      String.sub hay 0 i ^ sub ^ String.sub hay (i + nn) (nh - i - nn)
    else go (i + 1)
  in
  go 0

let loop_src =
  {|
int n = 40;
int a[40];
int b[40];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = b[i] * 2 + 1;
    i = i + 1;
  }
  print_int(a[7]);
}
|}

let other_src =
  {|
int m = 25;
int xs[25];
void main() {
  int i = 0;
  int acc = 3;
  while (i < m) {
    xs[i] = acc + i;
    acc = acc + (i & 3);
    i = i + 1;
  }
  print_int(acc);
}
|}

(* the committed demo workload: static selection, observed
   misspeculation well above the predicted rate *)
let feedback_src () = Fixture.read "examples/src/feedback_loop.c"

(* a store holding real profile counts for [src] *)
let profiled_store src =
  let s = Store.empty () in
  let ep, dp, vp = Pipeline.profile_source src in
  Store.absorb_profiles s ep dp vp;
  s

let an_obs =
  {
    Store.o_iters = 100;
    o_forks = 200;
    o_commits = 80;
    o_violations = 20;
    o_faults = 1;
    o_kills = 3;
    o_despecs = 0;
    o_serial_reexecs = 21;
    o_stale_other = 2;
    o_stale_regions = [ (4, 15); (7, 3) ];
    o_svp = [ (3, (10, 8, 2)) ];
  }

(* ------------------------------------------------------------------ *)
(* Canonical serialization *)

let test_save_load_byte_stable () =
  with_tmpdir (fun dir ->
      let s = profiled_store loop_src in
      Store.add_observation s ~func:"main" ~header:2 an_obs;
      let p1 = Filename.concat dir "a.json" in
      let p2 = Filename.concat dir "b.json" in
      Store.save s p1;
      let s' = Store.load p1 in
      Store.save s' p2;
      Alcotest.(check string)
        "save/load/save round-trips byte-identically" (read_file p1)
        (read_file p2);
      Alcotest.(check string)
        "digest survives the round-trip" (Store.digest s) (Store.digest s'))

let test_merge_commutative () =
  let a () = profiled_store loop_src in
  let b () =
    let s = profiled_store other_src in
    Store.add_observation s ~func:"main" ~header:2 an_obs;
    s
  in
  Alcotest.(check string)
    "digest (merge a b) = digest (merge b a)"
    (Store.digest (Store.merge (a ()) (b ())))
    (Store.digest (Store.merge (b ()) (a ())));
  Alcotest.(check string)
    "empty is a merge identity"
    (Store.digest (a ()))
    (Store.digest (Store.merge (a ()) (Store.empty ())))

let test_merge_adds_counts () =
  (* merging a store with itself doubles every count, behaving as one
     run twice as long — observable through the telemetry *)
  let s = Store.empty () in
  Store.add_observation s ~func:"main" ~header:2 an_obs;
  let d = Store.merge s s in
  match Store.observations d with
  | [ ((("main", 2) as _k), o) ] ->
    Alcotest.(check int) "iters doubled" 200 o.Store.o_iters;
    Alcotest.(check int) "violations doubled" 40 o.Store.o_violations;
    Alcotest.(check (list (pair int int)))
      "per-region stales doubled"
      [ (4, 30); (7, 6) ]
      o.Store.o_stale_regions
  | l -> Alcotest.failf "expected one observation, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Corruption degrades to empty *)

let test_load_missing_is_empty () =
  Alcotest.(check bool)
    "missing file loads as empty" true
    (Store.is_empty (Store.load "/nonexistent/spt/profile.json"))

let test_load_corrupt_is_empty () =
  with_tmpdir (fun dir ->
      let p = Filename.concat dir "p.json" in
      write_file p "{ \"schema\": \"spt-profile-v1\", garbage";
      Alcotest.(check bool)
        "unparseable JSON loads as empty" true
        (Store.is_empty (Store.load p)))

let test_load_truncated_is_empty () =
  with_tmpdir (fun dir ->
      let s = profiled_store loop_src in
      let p = Filename.concat dir "p.json" in
      Store.save s p;
      let whole = read_file p in
      write_file p (String.sub whole 0 (String.length whole / 2));
      Alcotest.(check bool)
        "truncated file loads as empty" true
        (Store.is_empty (Store.load p)))

let test_load_version_bump_is_empty () =
  with_tmpdir (fun dir ->
      let s = profiled_store loop_src in
      let p = Filename.concat dir "p.json" in
      Store.save s p;
      let whole = read_file p in
      (* a future schema tag must not be misread as today's *)
      write_file p (replace whole "spt-profile-v1" "spt-profile-v99");
      Alcotest.(check bool)
        "version-bumped file loads as empty" true
        (Store.is_empty (Store.load p)))

(* ------------------------------------------------------------------ *)
(* Digest sensitivity *)

let test_digest_stable_for_equal_counts () =
  Alcotest.(check string)
    "same counts, same digest"
    (Store.digest (profiled_store loop_src))
    (Store.digest (profiled_store loop_src))

let test_digest_changes_with_counts () =
  let a = profiled_store loop_src in
  let b = profiled_store loop_src in
  Alcotest.(check string)
    "identical before divergence" (Store.digest a) (Store.digest b);
  Store.add_observation b ~func:"main" ~header:2 an_obs;
  Alcotest.(check bool)
    "telemetry changes the digest" false
    (Store.digest a = Store.digest b);
  Store.add_observation a ~func:"main" ~header:2 an_obs;
  Alcotest.(check string)
    "equal again once counts agree" (Store.digest a) (Store.digest b);
  Store.add_observation a ~func:"main" ~header:2 an_obs;
  Alcotest.(check bool)
    "repeating an observation adds, not replaces" false
    (Store.digest a = Store.digest b)

let test_empty_digest_distinct () =
  let e = Store.empty () in
  Alcotest.(check bool)
    "empty and profiled stores differ" false
    (Store.digest e = Store.digest (profiled_store loop_src))

(* ------------------------------------------------------------------ *)
(* Telemetry bridge *)

let test_observation_roundtrip () =
  let s = Store.empty () in
  Store.add_observation s ~func:"f" ~header:9 an_obs;
  Store.add_observation s ~func:"a" ~header:1 an_obs;
  match Store.observations s with
  | [ (("a", 1), _); (("f", 9), o) ] ->
    Alcotest.(check int) "violations survive" 20 o.Store.o_violations;
    Alcotest.(check (list (pair int int)))
      "regions sorted and intact"
      [ (4, 15); (7, 3) ]
      o.Store.o_stale_regions
  | l -> Alcotest.failf "expected 2 sorted observations, got %d" (List.length l)

let test_runtime_export () =
  (* run the demo workload on the real runtime and check the exported
     telemetry is the runtime's own accounting *)
  let pr =
    Pipeline.run_parallel
      ~runtime_config:(Spt_runtime.Runtime.default_config ~jobs:2 ())
      (feedback_src ())
  in
  let s = Store.empty () in
  Telemetry.record s pr.Pipeline.pr_spt pr.Pipeline.pr_runtime;
  match Store.observations s with
  | [] -> Alcotest.fail "expected telemetry for the transformed loop"
  | obs ->
    let total_viol =
      List.fold_left (fun acc (_, o) -> acc + o.Store.o_violations) 0 obs
    in
    let rt_viol =
      List.fold_left
        (fun acc (_, (st : Spt_runtime.Runtime.loop_stats)) ->
          acc + st.Spt_runtime.Runtime.violations)
        0 pr.Pipeline.pr_runtime.Spt_runtime.Runtime.stats
    in
    Alcotest.(check int) "violations match the runtime" rt_viol total_viol;
    Alcotest.(check bool)
      "the seeded pattern misspeculates" true (total_viol > 0)

(* ------------------------------------------------------------------ *)
(* The adaptive loop end-to-end *)

let test_adapt_rejects_mispredicted_loop () =
  let o = Adapt.run ~jobs:2 ~iters:4 (feedback_src ()) in
  let first = List.hd o.Adapt.iterations in
  let last = List.nth o.Adapt.iterations (List.length o.Adapt.iterations - 1) in
  Alcotest.(check bool)
    "the static compile selects the loop" true
    (first.Adapt.it_partitions <> []);
  Alcotest.(check bool)
    "the static partition misspeculates" true
    (first.Adapt.it_violations > 0);
  Alcotest.(check bool)
    "feedback changes the partition" true
    (List.exists (fun it -> it.Adapt.it_changed) o.Adapt.iterations);
  Alcotest.(check bool)
    "re-partitioning lowers measured misspeculation" true
    (last.Adapt.it_violations < first.Adapt.it_violations);
  Alcotest.(check bool) "the loop converges" true o.Adapt.converged;
  (* accumulated state: profiles plus at least one loop's telemetry *)
  Alcotest.(check bool)
    "store carries profiles" true
    (Store.has_profiles o.Adapt.store);
  Alcotest.(check bool)
    "store carries telemetry" true
    (Store.observations o.Adapt.store <> [])

let test_adapt_report_renders () =
  let o = Adapt.run ~jobs:2 ~iters:2 loop_src in
  let txt = Adapt.report o in
  Alcotest.(check bool) "mentions convergence" true (contains txt "converged");
  match Adapt.to_json o with
  | Json.Obj kvs ->
    Alcotest.(check bool) "json carries the schema tag" true
      (List.assoc_opt "schema" kvs = Some (Json.Str "spt-adapt-v1"))
  | _ -> Alcotest.fail "adapt JSON must be an object"

let suite =
  [
    Alcotest.test_case "save/load is byte-stable" `Quick
      test_save_load_byte_stable;
    Alcotest.test_case "merge is commutative" `Quick test_merge_commutative;
    Alcotest.test_case "merge adds counts" `Quick test_merge_adds_counts;
    Alcotest.test_case "missing file loads empty" `Quick
      test_load_missing_is_empty;
    Alcotest.test_case "corrupt file loads empty" `Quick
      test_load_corrupt_is_empty;
    Alcotest.test_case "truncated file loads empty" `Quick
      test_load_truncated_is_empty;
    Alcotest.test_case "version bump loads empty" `Quick
      test_load_version_bump_is_empty;
    Alcotest.test_case "digest stable for equal counts" `Quick
      test_digest_stable_for_equal_counts;
    Alcotest.test_case "digest tracks counts" `Quick
      test_digest_changes_with_counts;
    Alcotest.test_case "empty digest distinct" `Quick
      test_empty_digest_distinct;
    Alcotest.test_case "observations round-trip" `Quick
      test_observation_roundtrip;
    Alcotest.test_case "runtime telemetry exports" `Quick test_runtime_export;
    Alcotest.test_case "adapt rejects a mispredicted loop" `Quick
      test_adapt_rejects_mispredicted_loop;
    Alcotest.test_case "adapt report renders" `Quick test_adapt_report_renders;
  ]
