(** The differential fuzzer testing itself: deterministic generation,
    clean sweeps over the oracle matrix, an injected transform fault
    that must be caught and shrunk, and the corpus regression replay
    that turns every previously-found divergence into a permanent
    test. *)

module Gen = Spt_fuzz.Gen
module Oracle = Spt_fuzz.Oracle
module Shrink = Spt_fuzz.Shrink
module Harness = Spt_fuzz.Harness
module Json = Spt_obs.Json

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_gen_deterministic () =
  let src seed = Gen.to_source (Gen.generate ~seed ()) in
  Alcotest.(check string) "same seed, same program" (src 7) (src 7);
  Alcotest.(check bool) "different seeds differ" true (src 7 <> src 8);
  (* case seeds are themselves deterministic and spread out *)
  let s0 = Gen.case_seed ~seed:42 ~index:0
  and s1 = Gen.case_seed ~seed:42 ~index:1 in
  Alcotest.(check bool) "case seeds distinct" true (s0 <> s1);
  Alcotest.(check bool) "case seed stable" true
    (s0 = Gen.case_seed ~seed:42 ~index:0)

let test_gen_valid_and_terminating () =
  (* every generated program parses, type-checks, lowers and runs to
     completion sequentially — the generator never needs the oracle to
     skip *)
  for i = 0 to 39 do
    let seed = Gen.case_seed ~seed:1 ~index:i in
    let src = Gen.to_source (Gen.generate ~seed ()) in
    let r =
      try Spt_interp.Interp.run_source ~max_steps:Oracle.default_max_steps src
      with e ->
        Alcotest.failf "seed %d (case %d) failed: %s\n%s" seed i
          (Printexc.to_string e) src
    in
    Alcotest.(check bool)
      (Printf.sprintf "case %d executed something" i)
      true
      (r.Spt_interp.Interp.dynamic_instrs > 0)
  done

let test_gen_dependence_knob () =
  (* the cross-iteration dependence probability is a real knob: at 0 the
     generator never emits the carried-scalar / carried-memory shapes *)
  let tuning = { Gen.default_tuning with Gen.t_dep_prob = 0.0 } in
  let any_dep = ref false in
  for i = 0 to 9 do
    let seed = Gen.case_seed ~seed:3 ~index:i in
    let independent = Gen.to_source (Gen.generate ~tuning ~seed ()) in
    let default = Gen.to_source (Gen.generate ~seed ()) in
    if independent <> default then any_dep := true
  done;
  Alcotest.(check bool) "dep knob changes generated programs" true !any_dep

(* ------------------------------------------------------------------ *)
(* Oracle + campaign *)

let test_clean_campaign () =
  let c = Harness.run_campaign ~seed:42 ~count:6 () in
  Alcotest.(check int) "no divergences" 0 c.Harness.c_divergent;
  Alcotest.(check int) "no skips" 0 c.Harness.c_skipped;
  Alcotest.(check int) "all cases ran" 6 (List.length c.Harness.c_cases);
  (* the campaign must actually exercise speculation, not just compile:
     across the seed-42 prefix some loops are selected and some
     misspeculation is observed *)
  let loops =
    List.fold_left
      (fun a (x : Harness.case_result) -> a + x.Harness.cr_spt_loops)
      0 c.Harness.c_cases
  in
  Alcotest.(check bool) "speculated at least one loop" true (loops > 0)

let test_matrix_parsing () =
  (match Oracle.matrix_of_string "seq,par,cache,feedback" with
  | Ok m ->
    Alcotest.(check int) "full spec has 5 points" 5 (List.length m)
  | Error e -> Alcotest.fail e);
  (match Oracle.matrix_of_string "seq" with
  | Ok m -> Alcotest.(check int) "seq alone is implicit" 0 (List.length m)
  | Error e -> Alcotest.fail e);
  match Oracle.matrix_of_string "par,warp" with
  | Ok _ -> Alcotest.fail "unknown point accepted"
  | Error _ -> ()

let test_injected_fault_caught_and_shrunk () =
  (* arm the transform fault on a case where it is known to fire (the
     seed-42 campaign prefix): the oracle must catch the divergence and
     the shrinker must reduce the reproducer to a trivial program *)
  let c =
    Harness.run_campaign ~seed:42 ~count:1 ~index:0
      ~inject:"drop-prefork-stmt" ()
  in
  Alcotest.(check int) "case diverged" 1 c.Harness.c_divergent;
  match c.Harness.c_cases with
  | [ x ] ->
    Alcotest.(check bool) "fault actually fired" true x.Harness.cr_fault_fired;
    (match x.Harness.cr_shrunk with
    | None -> Alcotest.fail "divergent case was not shrunk"
    | Some (src, loc) ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d lines (<= 15)" loc)
        true (loc <= 15);
      Alcotest.(check bool) "shrunk below the original" true
        (loc < x.Harness.cr_loc);
      (* the minimized program must still trip the armed oracle *)
      let v =
        Oracle.check ~matrix:[ Oracle.P_inject "drop-prefork-stmt" ] src
      in
      Alcotest.(check bool) "shrunk program still diverges" true
        (v.Oracle.v_status = `Divergent));
    (match x.Harness.cr_reproduce with
    | None -> Alcotest.fail "no reproduce line"
    | Some line ->
      Alcotest.(check bool) "reproduce names the failing case" true
        (String.starts_with ~prefix:"sptc fuzz --seed 42 --index 0" line))
  | _ -> Alcotest.fail "expected exactly one case"

let test_shrinker_minimizes () =
  (* shrink against a simple syntactic predicate: smallest program that
     still contains a division.  Greedy, but must keep the property. *)
  let src =
    "int g = 3;\n\
     void main() {\n\
     \  int a = 1;\n\
     \  int b = 2;\n\
     \  int c = (8 / 2);\n\
     \  print_int(a);\n\
     \  print_int(b);\n\
     \  print_int(c);\n\
     \  print_int(g);\n\
     }\n"
  in
  let has_div s = String.contains s '/' in
  let out = Shrink.minimize has_div src in
  Alcotest.(check bool) "property preserved" true (has_div out);
  Alcotest.(check bool) "got smaller" true (Gen.loc out < Gen.loc src)

let test_report_json () =
  let c = Harness.run_campaign ~seed:9 ~count:2 () in
  let j = Harness.report_json c in
  (* the report round-trips through the JSON printer/parser *)
  let j =
    match Json.of_string (Json.to_string j) with
    | Ok j -> j
    | Error e -> Alcotest.failf "report does not re-parse: %s" e
  in
  Alcotest.(check string) "schema" "spt-fuzz-v1"
    (match Json.member "schema" j with Some (Json.Str s) -> s | _ -> "");
  (match Json.member "totals" j with
  | Some t ->
    Alcotest.(check bool) "totals.cases" true
      (Json.member "cases" t = Some (Json.Int 2))
  | None -> Alcotest.fail "no totals");
  match Json.member "cases" j with
  | Some (Json.List l) -> Alcotest.(check int) "per-case entries" 2 (List.length l)
  | _ -> Alcotest.fail "no cases list"

let test_corpus_replay () =
  (* every corpus file — interesting speculation-heavy cases plus the
     shrunk reproducers of previously-fixed compiler bugs — must stay
     clean across the full matrix *)
  let c = Harness.replay_corpus ~dir:(Fixture.path "test/corpus") () in
  Alcotest.(check bool) "corpus is non-empty" true
    (List.length c.Harness.c_cases > 0);
  Alcotest.(check int) "corpus replays clean" 0 c.Harness.c_divergent;
  Alcotest.(check int) "corpus never skips" 0 c.Harness.c_skipped;
  List.iter
    (fun (x : Harness.case_result) ->
      match x.Harness.cr_name with
      | Some _ -> ()
      | None -> Alcotest.fail "replayed case lacks its file name")
    c.Harness.c_cases

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generated programs valid + terminating" `Quick
      test_gen_valid_and_terminating;
    Alcotest.test_case "dependence knob" `Quick test_gen_dependence_knob;
    Alcotest.test_case "matrix spec parsing" `Quick test_matrix_parsing;
    Alcotest.test_case "clean campaign, full matrix" `Slow test_clean_campaign;
    Alcotest.test_case "injected fault caught + shrunk" `Slow
      test_injected_fault_caught_and_shrunk;
    Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
    Alcotest.test_case "spt-fuzz-v1 report" `Slow test_report_json;
    Alcotest.test_case "corpus replay" `Slow test_corpus_replay;
  ]
