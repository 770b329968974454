(** Driver exit-code contract: 0 = success, 2 = usage error,
    1 = compile or run error.  Exercises the installed [sptc] binary
    (a declared test dependency, see [test/dune]). *)

let sptc = Fixture.sptc ()

let exec args =
  Sys.command (Filename.quote_command sptc args ^ " >/dev/null 2>&1")

(* like [exec], but keeps stderr so tests can check usage is printed *)
let exec_stderr args =
  let err = Filename.temp_file "sptc_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command sptc args ^ " >/dev/null 2>" ^ Filename.quote err)
      in
      let ic = open_in_bin err in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let has hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_tmpdir = Fixture.with_tmpdir

let with_source contents f =
  let path = Filename.temp_file "sptc_cli" ".c" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let ok_src = {|
void main() {
  print_int(42);
}
|}

let test_version () =
  Alcotest.(check int) "--version exits 0" 0 (exec [ "--version" ]);
  Alcotest.(check int) "run --version exits 0" 0 (exec [ "run"; "--version" ])

let test_success () =
  with_source ok_src (fun path ->
      Alcotest.(check int) "run exits 0" 0 (exec [ "run"; path ]))

let test_usage_errors () =
  Alcotest.(check int) "unknown subcommand" 2 (exec [ "frobnicate" ]);
  Alcotest.(check int) "loadtest is no subcommand" 2 (exec [ "loadtest" ]);
  Alcotest.(check int) "missing FILE" 2 (exec [ "run" ]);
  Alcotest.(check int) "batch without FILES" 2 (exec [ "batch" ]);
  Alcotest.(check int) "serve rejects positional args" 2
    (exec [ "serve"; "spurious" ]);
  with_source ok_src (fun path ->
      Alcotest.(check int) "unknown flag" 2
        (exec [ "run"; path; "--no-such-flag" ]);
      Alcotest.(check int) "batch unknown flag" 2
        (exec [ "batch"; path; "--frobnicate" ]);
      (* no command selects an execution engine *)
      List.iter
        (fun args ->
          Alcotest.(check int) (String.concat " " args) 2
            (exec (args @ [ "--engine"; "tree" ])))
        [
          [ "run"; path ];
          [ "compile"; path; "--no-cache" ];
          [ "workload"; "gzip"; "--no-cache" ];
          [ "batch"; path; "--no-cache" ];
          [ "serve"; "--no-cache" ];
        ]);
  (* usage goes to stderr, not silently swallowed *)
  let code, err = exec_stderr [ "frobnicate" ] in
  Alcotest.(check int) "unknown subcommand exit" 2 code;
  Alcotest.(check bool) "usage on stderr" true
    (let lower = String.lowercase_ascii err in
     has lower "usage" || has lower "sptc")

let test_batch_cache_roundtrip () =
  with_source ok_src (fun path ->
      with_tmpdir (fun dir ->
          let cache = Filename.concat dir "cache" in
          let summary = Filename.concat dir "summary.json" in
          Alcotest.(check int) "cold batch exits 0" 0
            (exec [ "batch"; path; "--cache-dir"; cache; "-j"; "1" ]);
          Alcotest.(check int) "warm batch exits 0" 0
            (exec
               [
                 "batch"; path; "--cache-dir"; cache; "-j"; "1"; "--summary";
                 summary;
               ]);
          let text =
            let ic = open_in_bin summary in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let j =
            match Spt_obs.Json.of_string text with
            | Ok j -> j
            | Error msg -> Alcotest.failf "summary unparsable: %s" msg
          in
          let int_field k =
            match Spt_obs.Json.member k j with
            | Some (Spt_obs.Json.Int n) -> n
            | _ -> Alcotest.failf "summary lacks int field %S" k
          in
          Alcotest.(check string)
            "summary schema" "spt-batch-v1"
            (match Spt_obs.Json.member "schema" j with
            | Some (Spt_obs.Json.Str s) -> s
            | _ -> "");
          Alcotest.(check int) "warm run all hits" 1 (int_field "cache_hits");
          Alcotest.(check int) "warm run no misses" 0 (int_field "cache_misses");
          Alcotest.(check int) "no failures" 0 (int_field "failed")))

let test_batch_bad_file_exits_1 () =
  with_source "int main( { return }" (fun bad ->
      with_tmpdir (fun dir ->
          Alcotest.(check int) "syntax error in batch exits 1" 1
            (exec [ "batch"; bad; "--cache-dir"; Filename.concat dir "c" ])))

let test_serve_shutdown () =
  with_tmpdir (fun dir ->
      let code =
        Sys.command
          (Printf.sprintf "printf '%s\\n' | %s serve --cache-dir %s >/dev/null 2>&1"
             "{\"op\":\"shutdown\"}" (Filename.quote sptc)
             (Filename.quote (Filename.concat dir "cache")))
      in
      Alcotest.(check int) "serve exits 0 on shutdown" 0 code;
      (* EOF without shutdown also ends the loop cleanly *)
      let code =
        Sys.command
          (Printf.sprintf ": | %s serve --cache-dir %s >/dev/null 2>&1"
             (Filename.quote sptc)
             (Filename.quote (Filename.concat dir "cache")))
      in
      Alcotest.(check int) "serve exits 0 on EOF" 0 code)

let test_compile_errors () =
  with_source "int main( { return }" (fun path ->
      Alcotest.(check int) "syntax error exits 1" 1 (exec [ "run"; path ]));
  with_source {|
void main() {
  print_int(1.5);
}
|} (fun path ->
      Alcotest.(check int) "type error exits 1" 1 (exec [ "run"; path ]))

let test_runtime_errors () =
  with_source {|
int a[4];
void main() {
  int i = 9;
  print_int(a[i]);
}
|}
    (fun path ->
      Alcotest.(check int) "out-of-bounds exits 1" 1 (exec [ "run"; path ]))

let test_parallel_run () =
  with_source ok_src (fun path ->
      Alcotest.(check int) "run --parallel exits 0" 0
        (exec [ "run"; path; "--parallel"; "--jobs"; "2" ]))

(* the exit-code contract, subcommand by subcommand: success → 0,
   malformed input file → 1, and the equivalence-verdict class
   (oracle mismatch, fuzz divergence) → 2 *)

let bad_src = "int main( { return }"

(* a program with a real SPT loop, so --parallel runs produce timeline
   events for the attribution report *)
let loopy_src =
  {|
int n = 400;
int a[400];
int b[400];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = b[i] * 3 + 1;
    i = i + 1;
  }
  print_int(a[13]);
}
|}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_json path =
  match Spt_obs.Json.of_string (read_file path) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s unparsable: %s" path msg

(* --trace / --metrics parity: run and batch accept both and write
   well-formed files *)
let test_run_obs_flags () =
  with_source ok_src (fun path ->
      with_tmpdir (fun dir ->
          let trace = Filename.concat dir "trace.json" in
          let metrics = Filename.concat dir "metrics.json" in
          Alcotest.(check int) "run --trace --metrics exits 0" 0
            (exec [ "run"; path; "--trace"; trace; "--metrics"; metrics ]);
          (match Spt_obs.Json.member "traceEvents" (parse_json trace) with
          | Some (Spt_obs.Json.List _) -> ()
          | _ -> Alcotest.fail "trace file lacks traceEvents");
          Alcotest.(check bool) "metrics file tagged" true
            (Spt_obs.Json.member "schema" (parse_json metrics)
            = Some (Spt_obs.Json.Str "spt-metrics-v1"))))

let test_batch_obs_flags () =
  with_source ok_src (fun path ->
      with_tmpdir (fun dir ->
          let trace = Filename.concat dir "trace.json" in
          let metrics = Filename.concat dir "metrics.json" in
          Alcotest.(check int) "batch --trace --metrics exits 0" 0
            (exec
               [
                 "batch"; path; "--no-cache"; "-j"; "1"; "--trace"; trace;
                 "--metrics"; metrics;
               ]);
          Alcotest.(check bool) "trace file written" true (Sys.file_exists trace);
          Alcotest.(check bool) "metrics file written" true
            (Sys.file_exists metrics)))

(* per-job counter isolation: two identical compiles in one -j1 batch
   must report (approximately) identical per-job counters — cumulative
   leakage would double the second one's *)
let test_batch_per_job_counters () =
  with_source loopy_src (fun a ->
      with_source loopy_src (fun b ->
          with_tmpdir (fun dir ->
              let summary = Filename.concat dir "summary.json" in
              let metrics = Filename.concat dir "metrics.json" in
              Alcotest.(check int) "batch exits 0" 0
                (exec
                   [
                     "batch"; a; b; "--no-cache"; "-j"; "1"; "--summary";
                     summary; "--metrics"; metrics;
                   ]);
              let j = parse_json summary in
              match Spt_obs.Json.member "results" j with
              | Some (Spt_obs.Json.List [ r1; r2 ]) ->
                let steps r =
                  match Spt_obs.Json.member "counters" r with
                  | Some c -> (
                    match Spt_obs.Json.member "interp.steps" c with
                    | Some (Spt_obs.Json.Int n) -> n
                    | _ -> Alcotest.fail "interp.steps missing from job counters")
                  | None -> Alcotest.fail "per-job counters missing"
                in
                let s1 = steps r1 and s2 = steps r2 in
                Alcotest.(check bool) "jobs did work" true (s1 > 0);
                Alcotest.(check int) "identical jobs, identical deltas" s1 s2
              | _ -> Alcotest.fail "results array missing")))

let test_attrib_exit_codes () =
  with_source loopy_src (fun path ->
      with_tmpdir (fun dir ->
          let out = Filename.concat dir "attrib.json" in
          Alcotest.(check int) "--attrib without --parallel exits 2" 2
            (exec [ "run"; path; "--attrib"; out ]);
          Alcotest.(check int) "--parallel --attrib exits 0" 0
            (exec
               [ "run"; path; "--parallel"; "-j"; "2"; "--attrib"; out ]);
          let j = parse_json out in
          Alcotest.(check bool) "attrib schema" true
            (Spt_obs.Json.member "schema" j
            = Some (Spt_obs.Json.Str "spt-attrib-v1"));
          (match Spt_obs.Json.member "coverage" j with
          | Some (Spt_obs.Json.Float c) ->
            Alcotest.(check bool) "buckets cover ≥95% of wall" true (c >= 0.95)
          | _ -> Alcotest.fail "coverage missing");
          (match Spt_obs.Json.member "gap" j with
          | Some gap ->
            Alcotest.(check bool) "gap carries both speedups" true
              (Spt_obs.Json.member "predicted_speedup" gap <> None
              && Spt_obs.Json.member "measured_speedup" gap <> None)
          | None -> Alcotest.fail "gap missing");
          (* the analyzer renders it *)
          Alcotest.(check int) "top renders attrib" 0 (exec [ "top"; out ])))

(* --chunk hardening: a nonpositive chunk is a usage error (2); the
   attribution report records a forced chunk and [top] renders it *)
let test_chunk_flags () =
  with_source loopy_src (fun path ->
      let code, err = exec_stderr [ "run"; path; "--parallel"; "--chunk"; "0" ] in
      Alcotest.(check int) "--chunk 0 exits 2" 2 code;
      Alcotest.(check bool) "error mentions --chunk" true (has err "--chunk");
      Alcotest.(check int) "--chunk=-4 exits 2" 2
        (exec [ "run"; path; "--parallel"; "--chunk=-4" ]);
      Alcotest.(check int) "--chunk without --parallel exits 2" 2
        (exec [ "run"; path; "--chunk"; "4" ]);
      with_tmpdir (fun dir ->
          let out = Filename.concat dir "attrib.json" in
          Alcotest.(check int) "parallel run + forced chunk" 0
            (exec
               [
                 "run"; path; "--parallel"; "-j"; "2"; "--chunk"; "4";
                 "--attrib"; out;
               ]);
          let j = parse_json out in
          Alcotest.(check bool) "attrib records the forced chunk" true
            (Spt_obs.Json.member "chunk" j = Some (Spt_obs.Json.Int 4));
          (* the analyzer renders the chunk line *)
          let top = Filename.concat dir "top.out" in
          Alcotest.(check int) "top renders chunk attrib" 0
            (Sys.command
               (Filename.quote_command sptc [ "top"; out ]
               ^ " > " ^ Filename.quote top ^ " 2>/dev/null"));
          Alcotest.(check bool) "top output names the chunk" true
            (has (read_file top) "chunk 4")))

let test_profile_in_flags () =
  with_source loopy_src (fun path ->
      let code, err =
        exec_stderr [ "run"; path; "--profile-in"; "/nonexistent/profile.json" ]
      in
      Alcotest.(check int) "--profile-in without --parallel exits 2" 2 code;
      Alcotest.(check bool) "rejection names --profile-in" true
        (has err "--profile-in requires --parallel");
      with_tmpdir (fun dir ->
          let store = Filename.concat dir "p.json" in
          let cache = Filename.concat dir "cache" in
          let out = Filename.concat dir "run.out" in
          Alcotest.(check int) "profile writes a store" 0
            (exec [ "profile"; path; "--profile-out"; store ]);
          let run profile_in =
            Sys.command
              (Filename.quote_command sptc
                 [
                   "run"; path; "--parallel"; "--profile-in"; profile_in;
                   "--cache-dir"; cache;
                 ]
              ^ " > " ^ Filename.quote out ^ " 2>/dev/null")
          in
          Alcotest.(check int) "guided parallel run exits 0" 0 (run store);
          Alcotest.(check bool) "a non-empty --profile-in guided the compile"
            true
            (has (read_file out)
               "; profdb: generation 1 (compile guided by --profile-in)");
          (* an explicit empty store still overrides the database's
             entry, and guides nothing *)
          let empty = Filename.concat dir "empty.json" in
          Spt_profile.Profile_store.save (Spt_profile.Profile_store.empty ()) empty;
          Alcotest.(check int) "empty --profile-in run exits 0" 0 (run empty);
          Alcotest.(check bool) "an empty --profile-in compiles unguided" true
            (has (read_file out) "; profdb: generation 2 (unguided compile)");
          (* a path with no file behind it is a usage error on every
             command that takes the flag, never an empty store *)
          let missing = Filename.concat dir "missing.json" in
          List.iter
            (fun args ->
              let what = List.hd args in
              let code, err = exec_stderr (args @ [ "--profile-in"; missing ]) in
              Alcotest.(check int) (what ^ ": missing --profile-in exits 2") 2
                code;
              Alcotest.(check bool) (what ^ ": the error names the path") true
                (has err missing))
            [
              [ "run"; path; "--parallel"; "--cache-dir"; cache ];
              [ "compile"; path; "--cache-dir"; cache ];
              [ "workload"; "mcf"; "--cache-dir"; cache ];
              [ "batch"; path; "--cache-dir"; cache ];
            ];
          Alcotest.(check int) "a directory is no store either" 2
            (exec [ "compile"; path; "--no-cache"; "--profile-in"; dir ])))

let test_depth_flags () =
  with_source loopy_src (fun path ->
      let code, err = exec_stderr [ "run"; path; "--parallel"; "--depth"; "0" ] in
      Alcotest.(check int) "--depth 0 exits 2" 2 code;
      Alcotest.(check bool) "error mentions --depth" true (has err "--depth");
      let code, err = exec_stderr [ "run"; path; "--parallel"; "--depth=-1" ] in
      Alcotest.(check int) "--depth=-1 exits 2" 2 code;
      Alcotest.(check bool) "negative depth names the value" true
        (has err "-1");
      let code, err = exec_stderr [ "run"; path; "--parallel"; "--depth"; "four" ] in
      Alcotest.(check int) "non-integer --depth exits 2" 2 code;
      Alcotest.(check bool) "non-integer error names the flag" true
        (has err "depth");
      let code, err = exec_stderr [ "run"; path; "--depth"; "2" ] in
      Alcotest.(check int) "--depth on a sequential run exits 2" 2 code;
      Alcotest.(check bool) "sequential rejection explains itself" true
        (has err "--parallel");
      Alcotest.(check int) "forced depth runs" 0
        (exec [ "run"; path; "--parallel"; "-j"; "2"; "--depth"; "4" ]);
      Alcotest.(check int) "compile --depth exits 0" 0
        (exec [ "compile"; path; "--no-cache"; "--depth"; "2" ]);
      Alcotest.(check int) "compile --depth 0 exits 2" 2
        (exec [ "compile"; path; "--no-cache"; "--depth"; "0" ]))

let test_top_exit_codes () =
  with_tmpdir (fun dir ->
      let bad = Filename.concat dir "bad.json" in
      let oc = open_out bad in
      output_string oc "this is not json";
      close_out oc;
      Alcotest.(check int) "top on garbage exits 1" 1 (exec [ "top"; bad ]);
      let noschema = Filename.concat dir "noschema.json" in
      let oc = open_out noschema in
      output_string oc "{\"x\": 1}";
      close_out oc;
      Alcotest.(check int) "top without schema exits 1" 1
        (exec [ "top"; noschema ]);
      let loadtest = Filename.concat dir "loadtest.json" in
      let oc = open_out loadtest in
      output_string oc "{\"schema\":\"spt-loadtest-v1\"}";
      close_out oc;
      let code, err = exec_stderr [ "top"; loadtest ] in
      Alcotest.(check int) "top on a retired schema exits 1" 1 code;
      Alcotest.(check bool) "the error names the unsupported schema" true
        (has err "unsupported schema \"spt-loadtest-v1\"");
      Alcotest.(check int) "top on missing file exits 2" 2
        (exec [ "top"; Filename.concat dir "absent.json" ]))

let test_compile_exit_codes () =
  with_tmpdir (fun dir ->
      let cache = Filename.concat dir "cache" in
      with_source ok_src (fun path ->
          Alcotest.(check int) "compile ok exits 0" 0
            (exec [ "compile"; path; "--cache-dir"; cache ]));
      with_source bad_src (fun path ->
          Alcotest.(check int) "compile malformed exits 1" 1
            (exec [ "compile"; path; "--cache-dir"; cache ])))

let test_workload_exit_codes () =
  with_tmpdir (fun dir ->
      let cache = Filename.concat dir "cache" in
      Alcotest.(check int) "workload ok exits 0" 0
        (exec [ "workload"; "vortex"; "--cache-dir"; cache ]);
      Alcotest.(check int) "unknown workload exits 2" 2
        (exec [ "workload"; "quake3"; "--cache-dir"; cache ]))

let test_profile_exit_codes () =
  with_tmpdir (fun dir ->
      let store = Filename.concat dir "p.json" in
      with_source ok_src (fun path ->
          Alcotest.(check int) "profile ok exits 0" 0
            (exec [ "profile"; path; "--profile-out"; store ]));
      with_source bad_src (fun path ->
          Alcotest.(check int) "profile malformed exits 1" 1
            (exec [ "profile"; path; "--profile-out"; store ]));
      Alcotest.(check int) "profile without --profile-out exits 2" 2
        (with_source ok_src (fun path -> exec [ "profile"; path ])))

let test_adapt_exit_codes () =
  with_source ok_src (fun path ->
      Alcotest.(check int) "adapt ok exits 0" 0
        (exec [ "adapt"; path; "--iters"; "1"; "--jobs"; "1" ]));
  with_source bad_src (fun path ->
      Alcotest.(check int) "adapt malformed exits 1" 1
        (exec [ "adapt"; path; "--iters"; "1" ]))

let test_fuzz_exit_codes () =
  Alcotest.(check int) "clean fuzz run exits 0" 0
    (exec [ "fuzz"; "--seed"; "42"; "--count"; "2" ]);
  (* a divergence — here provoked by arming the transform fault — is
     the fuzz analogue of an oracle mismatch: 2, not 1 *)
  Alcotest.(check int) "injected divergence exits 2" 2
    (exec
       [
         "fuzz"; "--seed"; "42"; "--index"; "0"; "--count"; "1"; "--matrix";
         "seq"; "--inject"; "drop-prefork-stmt"; "--shrink-budget"; "0";
       ]);
  Alcotest.(check int) "bad matrix spec exits 1" 1
    (exec [ "fuzz"; "--count"; "1"; "--matrix"; "seq,warp" ]);
  Alcotest.(check int) "unknown fault exits 1" 1
    (exec [ "fuzz"; "--count"; "1"; "--inject"; "no-such-fault" ]);
  Alcotest.(check int) "clean corpus replay exits 0" 0
    (exec [ "fuzz"; "--replay"; Fixture.path "test/corpus" ]);
  Alcotest.(check int) "replay of missing dir exits 1" 1
    (exec [ "fuzz"; "--replay"; "/nonexistent-corpus-dir" ])

let suite =
  [
    Alcotest.test_case "--version" `Quick test_version;
    Alcotest.test_case "success exit 0" `Quick test_success;
    Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors;
    Alcotest.test_case "compile errors exit 1" `Quick test_compile_errors;
    Alcotest.test_case "runtime errors exit 1" `Quick test_runtime_errors;
    Alcotest.test_case "parallel run exit 0" `Quick test_parallel_run;
    Alcotest.test_case "run --trace/--metrics" `Quick test_run_obs_flags;
    Alcotest.test_case "batch --trace/--metrics" `Quick test_batch_obs_flags;
    Alcotest.test_case "batch per-job counters" `Quick test_batch_per_job_counters;
    Alcotest.test_case "run --attrib + top" `Slow test_attrib_exit_codes;
    Alcotest.test_case "--chunk hardening" `Slow test_chunk_flags;
    Alcotest.test_case "--depth hardening" `Slow test_depth_flags;
    Alcotest.test_case "--profile-in hardening" `Slow test_profile_in_flags;
    Alcotest.test_case "top exit codes" `Quick test_top_exit_codes;
    Alcotest.test_case "batch cache roundtrip" `Quick test_batch_cache_roundtrip;
    Alcotest.test_case "batch bad file exit 1" `Quick test_batch_bad_file_exits_1;
    Alcotest.test_case "serve shutdown/EOF exit 0" `Quick test_serve_shutdown;
    Alcotest.test_case "compile exit codes" `Quick test_compile_exit_codes;
    Alcotest.test_case "workload exit codes" `Slow test_workload_exit_codes;
    Alcotest.test_case "profile exit codes" `Quick test_profile_exit_codes;
    Alcotest.test_case "adapt exit codes" `Quick test_adapt_exit_codes;
    Alcotest.test_case "fuzz exit codes" `Slow test_fuzz_exit_codes;
  ]
