(** Profile-database tests: lock-file exclusion, additive convergence
    of concurrent multi-domain ingest, monotone decay, corruption
    degrading to a lookup miss, LRU bounds, and the zero-flag
    auto-lookup path through the cached compiler and the server. *)

module Json = Spt_obs.Json
module Store = Spt_profile.Profile_store
module Profdb = Spt_profdb.Profdb
module Lockfile = Spt_profdb.Lockfile
module Cache = Spt_service.Artifact_cache
module Cached = Spt_service.Cached
module Server = Spt_service.Server
module Pipeline = Spt_driver.Pipeline

let with_tmpdir = Fixture.with_tmpdir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let obs ~iters ~violations =
  {
    Store.o_iters = iters;
    o_forks = iters;
    o_commits = iters - violations;
    o_violations = violations;
    o_faults = 0;
    o_kills = 0;
    o_despecs = 0;
    o_serial_reexecs = 0;
    o_stale_other = 0;
    o_stale_regions = [];
    o_svp = [];
  }

(* a telemetry-only store: one loop observation under main@bb2 *)
let store_with ~iters ~violations () =
  let s = Store.empty () in
  Store.add_observation s ~func:"main" ~header:2 (obs ~iters ~violations);
  s

let db ?decay ?max_entries dir =
  Profdb.create ?decay ?max_entries ~tool:"test-tool"
    ~dir:(Filename.concat dir "db") ()

let violations_of store =
  match Store.observations store with
  | [ (("main", 2), o) ] -> o.Store.o_violations
  | other ->
    Alcotest.failf "expected one main@bb2 observation, got %d"
      (List.length other)

(* ------------------------------------------------------------------ *)
(* Lockfile *)

let test_lockfile_mutual_exclusion () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "lock" in
      (* a deliberately racy read-modify-write: only mutual exclusion
         across the 4 domains keeps the final count exact *)
      let counter = ref 0 in
      let ok = Atomic.make 0 in
      let worker () =
        for _ = 1 to 50 do
          match
            Lockfile.with_lock path (fun () ->
                let v = !counter in
                Domain.cpu_relax ();
                counter := v + 1)
          with
          | Some () -> Atomic.incr ok
          | None -> ()
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains;
      Alcotest.(check int) "every acquisition succeeded" 200 (Atomic.get ok);
      Alcotest.(check int) "no increment lost" 200 !counter)

let test_lockfile_timeout_leaves_f_unrun () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "lock" in
      let held = Option.get (Lockfile.acquire path) in
      let ran = ref false in
      let r = Lockfile.with_lock ~timeout_s:0.05 path (fun () -> ran := true) in
      Alcotest.(check bool) "timed out" true (r = None);
      Alcotest.(check bool) "f not run on timeout" false !ran;
      Lockfile.release held;
      Alcotest.(check bool)
        "acquirable after release" true
        (Lockfile.with_lock ~timeout_s:1.0 path (fun () -> ()) = Some ()))

(* ------------------------------------------------------------------ *)
(* Ingest semantics *)

let test_concurrent_ingest_is_additive () =
  with_tmpdir (fun dir ->
      (* decay 1.0: ingest is a pure additive merge, so 4 domains x 5
         ingests of one violation each must converge to exactly 20 *)
      let d = db ~decay:1.0 dir in
      let fingerprint = "abc123" in
      let worker () =
        for _ = 1 to 5 do
          match
            Profdb.ingest d ~fingerprint (store_with ~iters:10 ~violations:1 ())
          with
          | Some _ -> ()
          | None -> Alcotest.fail "ingest dropped (lock timeout)"
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains;
      match Profdb.lookup d ~fingerprint with
      | None -> Alcotest.fail "no entry after 20 ingests"
      | Some (store, generation) ->
        Alcotest.(check int) "one generation per ingest" 20 generation;
        Alcotest.(check int) "violations sum additively" 20
          (violations_of store))

let test_decay_is_monotone_to_zero () =
  with_tmpdir (fun dir ->
      let d = db ~decay:0.5 dir in
      let fingerprint = "decayme" in
      ignore (Profdb.ingest d ~fingerprint (store_with ~iters:80 ~violations:8 ()));
      (* each empty ingest halves (floor) the accumulated counts *)
      let counts =
        List.map
          (fun _ ->
            ignore (Profdb.ingest d ~fingerprint (Store.empty ()));
            match Profdb.lookup d ~fingerprint with
            | Some (store, _) -> violations_of store
            | None -> Alcotest.fail "entry vanished mid-decay")
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int))
        "floor-halving: 8 -> 4 -> 2 -> 1 -> 0" [ 4; 2; 1; 0 ] counts;
      (* enough further decay ages the observation out entirely *)
      for _ = 1 to 8 do
        ignore (Profdb.ingest d ~fingerprint (Store.empty ()))
      done;
      match Profdb.lookup d ~fingerprint with
      | Some (store, generation) ->
        Alcotest.(check bool) "store decayed to empty" true
          (Store.is_empty store);
        Alcotest.(check int) "generations kept counting" 13 generation
      | None -> Alcotest.fail "entry vanished after decay")

(* ------------------------------------------------------------------ *)
(* Guide: which store guides a compile *)

let check_guide what (store, generation) (expected_store, expected_gen) =
  Alcotest.(check bool)
    (what ^ ": store")
    true
    (match (store, expected_store) with
    | Some s, Some e -> s == e
    | None, None -> true
    | _ -> false);
  Alcotest.(check (option int)) (what ^ ": generation") expected_gen generation

let test_guide_explicit_wins () =
  with_tmpdir (fun dir ->
      let d = db dir in
      let fingerprint = "explicit" in
      ignore
        (Profdb.ingest d ~fingerprint (store_with ~iters:100 ~violations:10 ()));
      let explicit = store_with ~iters:50 ~violations:40 () in
      check_guide "explicit over a warm entry"
        (Profdb.guide d ~fingerprint (Some explicit))
        (Some explicit, None);
      (* an explicit store wins even when it is empty: the compile then
         runs unguided instead of falling back to the entry *)
      let empty = Store.empty () in
      check_guide "empty explicit over a warm entry"
        (Profdb.guide d ~fingerprint (Some empty))
        (Some empty, None))

let test_guide_empty_entry () =
  with_tmpdir (fun dir ->
      let d = db dir in
      let fingerprint = "empty" in
      ignore (Profdb.ingest d ~fingerprint (Store.empty ()));
      (match Profdb.lookup d ~fingerprint with
      | Some (store, 1) ->
        Alcotest.(check bool) "the entry holds an empty store" true
          (Store.is_empty store)
      | _ -> Alcotest.fail "expected a generation-1 entry");
      check_guide "empty entry" (Profdb.guide d ~fingerprint None) (None, None))

let test_guide_warm_entry () =
  with_tmpdir (fun dir ->
      let d = db dir in
      let fingerprint = "warm" in
      check_guide "cold database" (Profdb.guide d ~fingerprint None) (None, None);
      ignore
        (Profdb.ingest d ~fingerprint (store_with ~iters:100 ~violations:10 ()));
      ignore
        (Profdb.ingest d ~fingerprint (store_with ~iters:100 ~violations:10 ()));
      match Profdb.guide d ~fingerprint None with
      | Some store, generation ->
        Alcotest.(check (option int)) "the entry's generation" (Some 2)
          generation;
        (* 10 decayed by half, plus 10 *)
        Alcotest.(check int) "the entry's store" 15 (violations_of store)
      | None, _ -> Alcotest.fail "a warm entry must guide")

let test_guide_disabled_db () =
  let d = Profdb.no_db () in
  ignore
    (Profdb.ingest d ~fingerprint:"off" (store_with ~iters:100 ~violations:10 ()));
  check_guide "disabled database"
    (Profdb.guide d ~fingerprint:"off" None)
    (None, None);
  let explicit = store_with ~iters:50 ~violations:40 () in
  check_guide "explicit through a disabled database"
    (Profdb.guide d ~fingerprint:"off" (Some explicit))
    (Some explicit, None)

(* ------------------------------------------------------------------ *)
(* Corruption and versioning: everything degrades to a miss *)

let test_malfunction_degrades_to_miss () =
  with_tmpdir (fun dir ->
      let d = db ~decay:1.0 dir in
      let fingerprint = "deadbeef" in
      ignore (Profdb.ingest d ~fingerprint (store_with ~iters:10 ~violations:3 ()));
      let path = Filename.concat (Filename.concat dir "db") (fingerprint ^ ".json") in
      Alcotest.(check bool) "entry file exists" true (Sys.file_exists path);
      (* wrong tool version: a reader from another tool ignores it *)
      let other =
        Profdb.create ~tool:"other-tool" ~dir:(Filename.concat dir "db") ()
      in
      Alcotest.(check bool)
        "incompatible tool version misses" true
        (Profdb.lookup other ~fingerprint = None);
      (* stamped-digest mismatch: flip the payload without re-stamping *)
      let valid = read_file path in
      let tampered =
        (* bump the first digit after the violations key *)
        let needle = "\"violations\":" in
        match
          let rec find i =
            if i + String.length needle > String.length valid then None
            else if String.sub valid i (String.length needle) = needle then
              Some (i + String.length needle)
            else find (i + 1)
          in
          find 0
        with
        | None -> Alcotest.fail "entry JSON lacks a violations field"
        | Some at ->
          let b = Bytes.of_string valid in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) + 1));
          Bytes.to_string b
      in
      let oc = open_out_bin path in
      output_string oc tampered;
      close_out oc;
      Alcotest.(check bool)
        "digest mismatch misses" true
        (Profdb.lookup d ~fingerprint = None);
      (* garbage bytes *)
      let oc = open_out_bin path in
      output_string oc "this is not json";
      close_out oc;
      Alcotest.(check bool) "garbage misses" true
        (Profdb.lookup d ~fingerprint = None);
      let listed, invalid = Profdb.entries d in
      Alcotest.(check int) "no valid entries listed" 0 (List.length listed);
      Alcotest.(check int) "census counts the invalid file" 1 invalid;
      (* gc removes it *)
      let dropped, evicted = Profdb.gc d in
      Alcotest.(check (pair int int)) "gc drops it" (1, 0) (dropped, evicted);
      (* and a fresh ingest recovers the key *)
      ignore (Profdb.ingest d ~fingerprint (store_with ~iters:10 ~violations:1 ()));
      match Profdb.lookup d ~fingerprint with
      | Some (_, generation) ->
        Alcotest.(check int) "recovered at generation 1" 1 generation
      | None -> Alcotest.fail "ingest after corruption did not recover")

let test_max_entries_evicts_lru () =
  with_tmpdir (fun dir ->
      let d = db ~decay:1.0 ~max_entries:2 dir in
      let ingest fp = ignore (Profdb.ingest d ~fingerprint:fp (store_with ~iters:5 ~violations:1 ())) in
      let entry fp = Filename.concat (Filename.concat dir "db") (fp ^ ".json") in
      let now = Unix.gettimeofday () in
      ingest "aa";
      Unix.utimes (entry "aa") (now -. 100.0) (now -. 100.0);
      ingest "bb";
      Unix.utimes (entry "bb") (now -. 50.0) (now -. 50.0);
      ingest "cc";
      let listed, _ = Profdb.entries d in
      Alcotest.(check (list string))
        "least-recently-updated entry evicted" [ "bb"; "cc" ]
        (List.map (fun e -> e.Profdb.e_fingerprint) listed))

let test_publish_replaces_without_merge () =
  with_tmpdir (fun dir ->
      let d = db ~decay:1.0 dir in
      let fingerprint = "pub" in
      ignore (Profdb.ingest d ~fingerprint (store_with ~iters:10 ~violations:6 ()));
      (* publish a store that already contains the entry (the adapt
         shape): counts must NOT double *)
      ignore (Profdb.publish d ~fingerprint (store_with ~iters:10 ~violations:6 ()));
      match Profdb.lookup d ~fingerprint with
      | Some (store, generation) ->
        Alcotest.(check int) "publish bumps the generation" 2 generation;
        Alcotest.(check int) "publish replaced, not merged" 6
          (violations_of store)
      | None -> Alcotest.fail "published entry missing")

(* ------------------------------------------------------------------ *)
(* Auto-lookup: warm fingerprints change the compile with zero flags *)

let n_spt_loops_of (o : Cached.outcome) =
  match Json.member "n_spt_loops" o.Cached.eval with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "outcome eval lacks n_spt_loops"

let test_cached_auto_lookup_changes_partition () =
  let feedback_src = Fixture.read "examples/src/feedback_loop.c" in
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let config = Spt_driver.Config.best in
      let cold = Cached.compile ~cache ~config ~name:"demo" feedback_src in
      Alcotest.(check (option int))
        "cold compile is unguided" None cold.Cached.profile_gen;
      Alcotest.(check bool) "static selection picked the loop" true
        (n_spt_loops_of cold >= 1);
      (* one real run's telemetry, ingested under the program's
         fingerprint — exactly what `run --parallel --cache-dir` does *)
      let runtime_config =
        { (Spt_runtime.Runtime.default_config ~jobs:2 ()) with oracle = false }
      in
      let pr = Pipeline.run_parallel ~config ~runtime_config feedback_src in
      let fresh = Store.empty () in
      Spt_feedback.Telemetry.record fresh pr.Pipeline.pr_spt
        pr.Pipeline.pr_runtime;
      let pdb = Profdb.for_cache ~tool:Cached.tool_version (Cache.dir cache) in
      let fingerprint =
        Spt_service.Fingerprint.program (Pipeline.front_end feedback_src)
      in
      Alcotest.(check (option int))
        "telemetry ingested" (Some 1)
        (Profdb.ingest pdb ~fingerprint fresh);
      let warm = Cached.compile ~cache ~config ~name:"demo" feedback_src in
      Alcotest.(check (option int))
        "warm compile is database-guided" (Some 1) warm.Cached.profile_gen;
      Alcotest.(check bool)
        "guiding store changes the cache key" true
        (warm.Cached.key <> cold.Cached.key);
      Alcotest.(check bool)
        "observed misspeculation rejects the loop" true
        (n_spt_loops_of warm < n_spt_loops_of cold);
      (* an explicit profile always wins over the database *)
      let explicit =
        Cached.compile ~cache ~config ~profile:(Store.empty ()) ~name:"demo"
          feedback_src
      in
      Alcotest.(check (option int))
        "explicit profile bypasses the database" None
        explicit.Cached.profile_gen)

(* ------------------------------------------------------------------ *)
(* Server: the workload run op ingests, stats exposes the census *)

let reply_of = function
  | `Reply r -> r
  | `Shutdown r -> r

let test_server_run_op_feeds_database () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let req =
        Json.Obj
          [
            ("op", Json.Str "workload");
            ("name", Json.Str "mcf");
            ("run", Json.Bool true);
            ("jobs", Json.Int 2);
          ]
      in
      let r1 = reply_of (Server.handle t req) in
      Alcotest.(check (option Alcotest.bool))
        "run reply ok" (Some true)
        (match Json.member "ok" r1 with
        | Some (Json.Bool b) -> Some b
        | _ -> None);
      Alcotest.(check bool) "first run is unguided" true
        (Json.member "guided" r1 = Some (Json.Bool false));
      Alcotest.(check bool) "first run ingested generation 1" true
        (Json.member "profdb_gen" r1 = Some (Json.Int 1));
      let r2 = reply_of (Server.handle t req) in
      Alcotest.(check bool) "second run is guided by generation 1" true
        (Json.member "profdb_gen_in" r2 = Some (Json.Int 1));
      Alcotest.(check bool) "second run ingested generation 2" true
        (Json.member "profdb_gen" r2 = Some (Json.Int 2));
      let stats =
        reply_of (Server.handle t (Json.Obj [ ("op", Json.Str "stats") ]))
      in
      match Json.member "profdb" stats with
      | Some census ->
        Alcotest.(check bool) "stats census is schema-tagged" true
          (Json.member "schema" census = Some (Json.Str Profdb.schema));
        Alcotest.(check bool) "stats census lists the entry" true
          (Json.member "entries" census = Some (Json.Int 1))
      | None -> Alcotest.fail "stats reply lacks the profdb census")

(* ------------------------------------------------------------------ *)
(* Artifact-cache index: two processes' images merge under the lock *)

let test_cache_index_merge_keeps_foreign_keys () =
  with_tmpdir (fun dir ->
      let c1 = Cache.create ~dir () in
      let c2 = Cache.create ~dir () in
      Cache.store c1 "key-one" (Json.Obj [ ("v", Json.Int 1) ]);
      Cache.store c2 "key-two" (Json.Obj [ ("v", Json.Int 2) ]);
      (* each instance only ever saw its own store, but the on-disk
         index must hold both: persist_index merges under index.lock
         instead of clobbering the other writer's image *)
      let c3 = Cache.create ~dir () in
      Alcotest.(check bool) "first writer's key survives" true
        (Cache.find c3 "key-one" <> None);
      Alcotest.(check bool) "second writer's key survives" true
        (Cache.find c3 "key-two" <> None))

let suite =
  [
    Alcotest.test_case "lockfile: 4-domain mutual exclusion" `Quick
      test_lockfile_mutual_exclusion;
    Alcotest.test_case "lockfile: timeout leaves f unrun" `Quick
      test_lockfile_timeout_leaves_f_unrun;
    Alcotest.test_case "ingest: concurrent ingest is additive" `Quick
      test_concurrent_ingest_is_additive;
    Alcotest.test_case "ingest: decay is monotone to zero" `Quick
      test_decay_is_monotone_to_zero;
    Alcotest.test_case "lookup: malfunction degrades to miss" `Quick
      test_malfunction_degrades_to_miss;
    Alcotest.test_case "guide: an explicit store wins" `Quick
      test_guide_explicit_wins;
    Alcotest.test_case "guide: an empty entry does not guide" `Quick
      test_guide_empty_entry;
    Alcotest.test_case "guide: a warm entry guides" `Quick
      test_guide_warm_entry;
    Alcotest.test_case "guide: a disabled database never guides" `Quick
      test_guide_disabled_db;
    Alcotest.test_case "bounds: max_entries evicts LRU" `Quick
      test_max_entries_evicts_lru;
    Alcotest.test_case "publish: replaces without merging" `Quick
      test_publish_replaces_without_merge;
    Alcotest.test_case "cached: auto-lookup changes the partition" `Quick
      test_cached_auto_lookup_changes_partition;
    Alcotest.test_case "server: run op feeds the database" `Quick
      test_server_run_op_feeds_database;
    Alcotest.test_case "cache: index merge keeps foreign keys" `Quick
      test_cache_index_merge_keeps_foreign_keys;
  ]
