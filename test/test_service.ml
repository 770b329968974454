(** Compilation-service tests: canonical fingerprints (against the
    printer-based reference rendering) and the source-digest memo, the
    content-addressed artifact cache (corruption always degrades to a
    miss), the batch scheduler's outcome taxonomy, warm/cold compile
    determinism and the serve request loop with its eval memo. *)

module Json = Spt_obs.Json
module Cache = Spt_service.Artifact_cache
module Batch = Spt_service.Batch
module Cached = Spt_service.Cached
module Server = Spt_service.Server
module Fingerprint = Spt_service.Fingerprint
module Config = Spt_driver.Config
module Pipeline = Spt_driver.Pipeline

let with_tmpdir = Fixture.with_tmpdir

let loop_src =
  {|
int n = 30;
int a[30];
int b[30];
void main() {
  int i = 0;
  while (i < n) {
    a[i] = b[i] * 2 + 1;
    i = i + 1;
  }
  print_int(a[7]);
}
|}

(* same program, different concrete syntax: comments, indentation,
   blank lines *)
let loop_src_reformatted =
  {|
int n = 30;
int a[30];   /* output */
int b[30];

// the kernel
void main() {
      int i = 0;
      while (i < n) { a[i] = b[i] * 2 + 1; i = i + 1; }


      print_int(a[7]);
}
|}

let tiny_src = "void main() { print_int(42); }"

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let test_fingerprint_layout_independent () =
  let key = Cached.key_of ~config:Config.best in
  Alcotest.(check string)
    "whitespace/comment edits share a key" (key loop_src)
    (key loop_src_reformatted);
  Alcotest.(check bool)
    "different programs differ" false
    (key loop_src = key tiny_src)

let test_fingerprint_config_sensitive () =
  Alcotest.(check bool)
    "config is part of the key" false
    (Cached.key_of ~config:Config.best loop_src
    = Cached.key_of ~config:Config.basic loop_src)

let test_fingerprint_profile_sensitive () =
  let module Store = Spt_profile.Profile_store in
  let bare = Cached.key_of ~config:Config.best loop_src in
  Alcotest.(check string)
    "an empty profile store keys as no store" bare
    (Cached.key_of ~config:Config.best ~profile:(Store.empty ()) loop_src);
  let s = Store.empty () in
  let ep, dp, vp = Spt_driver.Pipeline.profile_source loop_src in
  Store.absorb_profiles s ep dp vp;
  Alcotest.(check bool)
    "a non-empty store changes the key" false
    (bare = Cached.key_of ~config:Config.best ~profile:s loop_src);
  (* and warm hits under a profile replay byte-identically *)
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let compile () =
        Cached.compile ~cache ~config:Config.best ~profile:s ~name:"loop.c"
          loop_src
      in
      let cold = compile () in
      let warm = compile () in
      Alcotest.(check bool) "cold misses" false cold.Cached.hit;
      Alcotest.(check bool) "warm hits" true warm.Cached.hit;
      Alcotest.(check string) "byte-identical report"
        cold.Cached.report_text warm.Cached.report_text;
      Alcotest.(check string) "byte-identical eval JSON"
        (Json.to_string cold.Cached.eval)
        (Json.to_string warm.Cached.eval))

let test_fingerprint_is_hex () =
  let k = Cached.key_of ~config:Config.best tiny_src in
  Alcotest.(check int) "32 hex chars" 32 (String.length k);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        (match c with 'a' .. 'f' | '0' .. '9' -> true | _ -> false))
    k

(* array parameters, array arguments and float immediates, which no
   suite, example or corpus program has *)
let array_param_src =
  {|
int a[16];
float w[16];
void scale(float v[], int n, float k) {
  int i;
  for (i = 0; i < n; i = i + 1) { v[i] = v[i] * k; }
}
int sum3(int v[], int k) { return v[k] + v[k + 1] + v[k + 2]; }
void main() {
  int i;
  for (i = 0; i < 16; i = i + 1) { a[i] = i * i; w[i] = 0.5; }
  scale(w, 16, 1.5);
  print_int(sum3(a, 4));
}
|}

(* The rendering written straight into the buffer gives the digests of
   the printer-based reference, for every function and whole program:
   lowered, in SSA form (phis) and after the best configuration's SPT
   compile (spt_fork/spt_kill, unrolled and inlined code). *)
let test_fingerprint_matches_reference () =
  let check what (p : Spt_ir.Ir.program) =
    Alcotest.(check string) (what ^ " program") (Ref_fingerprint.program p)
      (Fingerprint.program p);
    List.iter
      (fun (fname, f) ->
        Alcotest.(check string)
          (Printf.sprintf "%s %s" what fname)
          (Ref_fingerprint.func f) (Fingerprint.func f))
      p.Spt_ir.Ir.funcs
  in
  List.iter
    (fun (name, src) ->
      check (name ^ " lowered") (Pipeline.front_end src);
      check (name ^ " ssa") (Test_probes.prepare src);
      check (name ^ " spt")
        (Pipeline.compile_spt Config.best src).Pipeline.program)
    ((("array params", array_param_src) :: Test_probes.suite_sources ())
    @ Test_probes.examples () @ Test_probes.corpus ()
    @ Test_probes.generated 200)

let reference_digest src = Fingerprint.program (Pipeline.front_end src)

let memo_delta f =
  let before = Fingerprint.memo_stats () in
  let r = f () in
  let after = Fingerprint.memo_stats () in
  ( r,
    after.Fingerprint.hits - before.Fingerprint.hits,
    after.Fingerprint.misses - before.Fingerprint.misses )

(* [Fingerprint.source] is [program (front_end src)], and a text asked
   for twice in a row is answered from the memo the second time.  With
   twice as many programs as the memo has slots, texts share slots and
   overwrite each other's entries. *)
let test_source_matches_program () =
  List.iter
    (fun (name, src) ->
      let expected = reference_digest src in
      Alcotest.(check string) (name ^ " first ask") expected
        (Fingerprint.source src);
      let again, hits, misses = memo_delta (fun () -> Fingerprint.source src) in
      Alcotest.(check string) (name ^ " second ask") expected again;
      Alcotest.(check (pair int int)) (name ^ " second ask hits the memo")
        (1, 0) (hits, misses))
    (Test_probes.suite_sources () @ Test_probes.examples ()
   @ Test_probes.corpus () @ Test_probes.generated 2048)

(* a text the front end rejects raises the same way every time and is
   never kept *)
let test_source_rejects () =
  List.iter
    (fun src ->
      let raised () =
        match Fingerprint.source src with
        | d -> Alcotest.failf "%S digested to %s" src d
        | exception e -> Printexc.to_string e
      in
      let first, _, m1 = memo_delta raised in
      let second, hits, m2 = memo_delta raised in
      Alcotest.(check string) (src ^ " raises the same") first second;
      Alcotest.(check (list int)) (src ^ " runs the front end each time")
        [ 1; 1; 0 ] [ m1; m2; hits ])
    [ "int ("; "void main() { x = 1; }"; "void main() { print_int(1); } @" ]

(* the memo keeps text up to 16 KiB: one byte more is digested correctly
   but recomputed on every ask *)
let test_source_size_cap () =
  let expected = reference_digest loop_src in
  let padded len =
    let filler = len - String.length loop_src - 5 in
    "/*" ^ String.make filler 'x' ^ "*/
" ^ loop_src
  in
  List.iter
    (fun (len, kept) ->
      let src = padded len in
      Alcotest.(check int) "padded length" len (String.length src);
      let asks =
        List.init 2 (fun _ -> memo_delta (fun () -> Fingerprint.source src))
      in
      List.iter
        (fun (d, _, _) ->
          Alcotest.(check string) (Printf.sprintf "%d bytes digest" len)
            expected d)
        asks;
      let _, hits, misses = List.nth asks 1 in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d bytes second ask" len)
        (if kept then (1, 0) else (0, 1))
        (hits, misses))
    [ (16 * 1024, true); ((16 * 1024) + 1, false); (64 * 1024, false) ]

(* four domains walk one shuffled list, each from its own offset, so
   they race on the same slots with different texts *)
let test_source_concurrent () =
  let rng = Random.State.make [| 0xF1 |] in
  let programs =
    Array.of_list
      (List.map
         (fun (_, src) -> (src, reference_digest src))
         (Test_probes.suite_sources () @ Test_probes.generated 1536))
  in
  let n = Array.length programs in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = programs.(k) in
    programs.(k) <- programs.(j);
    programs.(j) <- t
  done;
  let worker start () =
    let wrong = ref 0 in
    for k = 0 to n - 1 do
      let src, expected = programs.((start + k) mod n) in
      if not (String.equal (Fingerprint.source src) expected) then incr wrong
    done;
    !wrong
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker (d * n / 4))) in
  Alcotest.(check (list int)) "every domain agrees with the reference"
    [ 0; 0; 0; 0 ] (List.map Domain.join domains)

(* ------------------------------------------------------------------ *)
(* Artifact cache *)

let payload = Json.Obj [ ("x", Json.Int 1); ("y", Json.Str "two") ]
let key = String.make 32 'a'

let test_cache_roundtrip () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir () in
      Alcotest.(check bool) "initially a miss" true (Cache.find c key = None);
      Cache.store c key payload;
      Alcotest.(check bool) "memory hit" true (Cache.find c key = Some payload);
      (* a second instance over the same directory hits from disk *)
      let c2 = Cache.create ~dir () in
      Alcotest.(check bool) "disk hit in a fresh process" true
        (Cache.find c2 key = Some payload);
      let s = Cache.stats c in
      Alcotest.(check int) "one hit" 1 s.Cache.hits;
      Alcotest.(check int) "one miss" 1 s.Cache.misses;
      Alcotest.(check int) "one store" 1 s.Cache.stores)

(* the on-disk location is shard-dependent; ask the cache *)
let entry_path c =
  match Cache.file_path c key with
  | Some p -> p
  | None -> Alcotest.fail "cache has no directory"

let test_cache_corruption_is_a_miss () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir () in
      Cache.store c key payload;
      (* truncate the on-disk entry mid-JSON *)
      let oc = open_out_bin (entry_path c) in
      output_string oc "{\"schema\":\"spt-cache";
      close_out oc;
      let fresh = Cache.create ~dir () in
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (Cache.find fresh key = None))

let test_cache_flipped_byte_is_a_miss () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir () in
      Cache.store c key payload;
      (* flip one byte inside the payload *value* — the file still
         parses as JSON with the right schema and key, so only the
         stored-vs-recomputed content digest can catch it *)
      let path = entry_path c in
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let i =
        let rec find j =
          if j + 5 > String.length text then
            Alcotest.fail "payload value not found in entry"
          else if String.sub text j 5 = "\"two\"" then j + 3
          else find (j + 1)
        in
        find 0
      in
      let flipped = Bytes.of_string text in
      Bytes.set flipped i 'q';
      let oc = open_out_bin path in
      output_bytes oc flipped;
      close_out oc;
      (match Json.of_string (Bytes.to_string flipped) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "flipped entry should still parse as JSON");
      let fresh = Cache.create ~dir () in
      Alcotest.(check bool) "digest mismatch reads as a miss" true
        (Cache.find fresh key = None);
      (* and the slot is usable again: a re-store over the bad entry
         heals it *)
      Cache.store fresh key payload;
      let healed = Cache.create ~dir () in
      Alcotest.(check bool) "re-store heals the entry" true
        (Cache.find healed key = Some payload))

let test_cache_schema_mismatch_is_a_miss () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir () in
      Cache.store c key payload;
      (* rewrite the entry under a future schema version *)
      let oc = open_out_bin (entry_path c) in
      output_string oc
        (Json.to_string ~minify:true
           (Json.Obj
              [
                ("schema", Json.Str "spt-cache-v999");
                ("key", Json.Str key);
                ("payload", payload);
              ]));
      close_out oc;
      let fresh = Cache.create ~dir () in
      Alcotest.(check bool) "version-bumped entry reads as a miss" true
        (Cache.find fresh key = None);
      (* and a wrong-key entry (tampering / collision) too *)
      let oc = open_out_bin (entry_path c) in
      output_string oc
        (Json.to_string ~minify:true
           (Json.Obj
              [
                ("schema", Json.Str Cache.schema);
                ("key", Json.Str (String.make 32 'b'));
                ("payload", payload);
              ]));
      close_out oc;
      let fresh2 = Cache.create ~dir () in
      Alcotest.(check bool) "wrong-key entry reads as a miss" true
        (Cache.find fresh2 key = None))

let test_no_cache () =
  let c = Cache.no_cache () in
  Alcotest.(check bool) "disabled" false (Cache.enabled c);
  Cache.store c key payload;
  Alcotest.(check bool) "never finds" true (Cache.find c key = None);
  let s = Cache.stats c in
  Alcotest.(check int) "counts nothing" 0 (s.Cache.hits + s.Cache.misses + s.Cache.stores)

(* ------------------------------------------------------------------ *)
(* Sharded layout, LRU eviction and size bounds *)

let key_n i = Printf.sprintf "%026dabcdef" i

let test_cache_sharded_layout () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir ~shards:4 () in
      Alcotest.(check int) "shard count" 4 (Cache.shards c);
      let keys = List.init 8 key_n in
      List.iter (fun k -> Cache.store c k payload) keys;
      List.iter
        (fun k ->
          match Cache.file_path c k with
          | None -> Alcotest.fail "entry has no path"
          | Some p ->
            Alcotest.(check bool) "entry on disk" true (Sys.file_exists p);
            Alcotest.(check int) "two-hex shard dir" 2
              (String.length (Filename.basename (Filename.dirname p))))
        keys;
      (* a fresh instance over the same sharded tree is warm *)
      let c2 = Cache.create ~dir ~shards:4 () in
      List.iter
        (fun k ->
          Alcotest.(check bool) "warm across restart" true
            (Cache.find c2 k = Some payload))
        keys)

let test_cache_lru_eviction_order () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir ~max_entries:2 () in
      Cache.store c (key_n 1) payload;
      Cache.store c (key_n 2) payload;
      (* touching 1 makes 2 the least recently used *)
      ignore (Cache.find c (key_n 1));
      Cache.store c (key_n 3) payload;
      Alcotest.(check bool) "LRU entry evicted" true
        (Cache.find c (key_n 2) = None);
      Alcotest.(check bool) "recently-used entry kept" true
        (Cache.find c (key_n 1) = Some payload);
      Alcotest.(check bool) "new entry kept" true
        (Cache.find c (key_n 3) = Some payload);
      let s = Cache.stats c in
      Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
      Alcotest.(check int) "entry bound held" 2 s.Cache.entries;
      (* the evicted entry's file is gone, not just unlisted *)
      match Cache.file_path c (key_n 2) with
      | Some p -> Alcotest.(check bool) "file removed" false (Sys.file_exists p)
      | None -> Alcotest.fail "entry has no path")

(* the shard tree's entry files (the index is bookkeeping, not payload) *)
let disk_entry_bytes dir =
  let root = Filename.concat dir Cache.schema in
  if not (Sys.file_exists root) then 0
  else
    Array.fold_left
      (fun acc shard ->
        let sd = Filename.concat root shard in
        if Sys.is_directory sd then
          Array.fold_left
            (fun acc f ->
              acc + (Unix.stat (Filename.concat sd f)).Unix.st_size)
            acc (Sys.readdir sd)
        else acc)
      0
      (Sys.readdir (Filename.concat dir Cache.schema))

let test_cache_byte_bound () =
  with_tmpdir (fun dir ->
      let big tag =
        Json.Obj [ ("tag", Json.Int tag); ("blob", Json.Str (String.make 2000 'z')) ]
      in
      let bound = 9000 in
      let c = Cache.create ~dir ~max_bytes:bound () in
      for i = 1 to 12 do
        Cache.store c (key_n i) (big i);
        Alcotest.(check bool) "on-disk bytes within bound" true
          (disk_entry_bytes dir <= bound)
      done;
      let s = Cache.stats c in
      Alcotest.(check bool) "evictions happened" true (s.Cache.evictions > 0);
      Alcotest.(check bool) "accounted bytes within bound" true
        (s.Cache.bytes <= bound);
      (* the retained entries are still warm, from a fresh instance *)
      let c2 = Cache.create ~dir ~max_bytes:bound () in
      let retained = ref 0 in
      for i = 1 to 12 do
        match Cache.find c2 (key_n i) with
        | Some v ->
          incr retained;
          Alcotest.(check bool) "retained entry intact" true (v = big i)
        | None -> ()
      done;
      Alcotest.(check bool) "some entries retained" true (!retained > 0);
      (* most-recent store always survives *)
      Alcotest.(check bool) "newest entry retained" true
        (Cache.find c2 (key_n 12) = Some (big 12));
      (* an entry alone larger than the bound is refused, not stored *)
      let huge = Json.Obj [ ("blob", Json.Str (String.make 20_000 'w')) ] in
      Cache.store c (key_n 99) huge;
      Alcotest.(check bool) "oversized entry not stored" true
        (disk_entry_bytes dir <= bound))

let test_cache_concurrent_writers () =
  with_tmpdir (fun dir ->
      let c = Cache.create ~dir ~shards:8 () in
      let n_domains = 4 and per = 16 in
      let worker d =
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let k = key_n ((d * 100) + i) in
              Cache.store c k (Json.Obj [ ("v", Json.Int ((d * 1000) + i)) ]);
              ignore (Cache.find c k)
            done)
      in
      List.iter Domain.join (List.init n_domains worker);
      let s = Cache.stats c in
      Alcotest.(check int) "every store counted" (n_domains * per) s.Cache.stores;
      Alcotest.(check int) "every entry listed" (n_domains * per) s.Cache.entries;
      (* a fresh instance loads the index every writer raced on and
         finds every entry *)
      let c2 = Cache.create ~dir ~shards:8 () in
      for d = 0 to n_domains - 1 do
        for i = 0 to per - 1 do
          Alcotest.(check bool) "entry readable after racing writers" true
            (Cache.find c2 (key_n ((d * 100) + i))
            = Some (Json.Obj [ ("v", Json.Int ((d * 1000) + i)) ]))
        done
      done)

(* ------------------------------------------------------------------ *)
(* Batch scheduler *)

let test_batch_outcomes () =
  let thunks =
    [
      (fun () -> 10);
      (fun () -> failwith "boom");
      (fun () -> 30);
    ]
  in
  let outcomes, stats = Batch.run ~jobs:2 ~timeout_s:60.0 thunks in
  (match outcomes.(0) with
  | Batch.Done v -> Alcotest.(check int) "first result in order" 10 v
  | _ -> Alcotest.fail "first thunk should be Done");
  (match outcomes.(1) with
  | Batch.Failed msg ->
    Alcotest.(check bool) "failure carries the message" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "second thunk should be Failed");
  (match outcomes.(2) with
  | Batch.Done v -> Alcotest.(check int) "third result in order" 30 v
  | _ -> Alcotest.fail "third thunk should be Done");
  Alcotest.(check int) "submitted" 3 stats.Batch.submitted;
  Alcotest.(check int) "completed" 2 stats.Batch.completed;
  Alcotest.(check int) "failed" 1 stats.Batch.failed;
  Alcotest.(check int) "timed out" 0 stats.Batch.timed_out

let test_batch_latency () =
  let outcomes, stats =
    Batch.run ~jobs:2 ~timeout_s:60.0
      [
        (fun () -> Unix.sleepf 0.02);
        (fun () -> Unix.sleepf 0.05);
        (fun () -> failwith "boom");
      ]
  in
  Alcotest.(check int) "three outcomes" 3 (Array.length outcomes);
  let module Hist = Spt_obs.Metrics.Hist in
  (* completed and failed jobs both ran, so both were measured *)
  Alcotest.(check int) "latency observed per job" 3
    (Hist.count stats.Batch.latency);
  Alcotest.(check bool) "p50 at least the shortest sleep" true
    (Hist.percentile stats.Batch.latency 0.50 >= 0.01);
  Alcotest.(check bool) "quantiles ordered" true
    (Hist.percentile stats.Batch.latency 0.50
    <= Hist.percentile stats.Batch.latency 0.99);
  Alcotest.(check bool) "max covers the longest sleep" true
    (Hist.max_value stats.Batch.latency >= 0.05)

let test_batch_timeout_latency_skipped () =
  (* a timed-out job has no measurement; the histogram must not invent
     one *)
  let _, stats =
    Batch.run ~jobs:1 ~timeout_s:0.2
      [ (fun () -> Unix.sleepf 5.0) ]
  in
  Alcotest.(check int) "timed-out job unmeasured" 0
    (Spt_obs.Metrics.Hist.count stats.Batch.latency)

let test_batch_timeout () =
  let outcomes, stats =
    Batch.run ~jobs:1 ~timeout_s:0.2
      [ (fun () -> Unix.sleepf 5.0); (fun () -> Unix.sleepf 5.0) ]
  in
  Alcotest.(check int) "both timed out" 2 stats.Batch.timed_out;
  Array.iter
    (fun o ->
      Alcotest.(check bool) "outcome is Timed_out" true (o = Batch.Timed_out))
    outcomes

(* ------------------------------------------------------------------ *)
(* Digest clustering *)

let test_batch_cluster () =
  (* a-b share d1, b-c share d2 → one transitive cluster; e is apart;
     f has no digests → singleton *)
  let groups =
    Batch.cluster
      [
        ("a", [ "d1" ]);
        ("b", [ "d1"; "d2" ]);
        ("c", [ "d2" ]);
        ("e", [ "d9" ]);
        ("f", []);
      ]
  in
  Alcotest.(check (list (list string)))
    "transitive grouping, earliest-member order"
    [ [ "a"; "b"; "c" ]; [ "e" ]; [ "f" ] ]
    groups;
  Alcotest.(check (list (list string))) "empty input" [] (Batch.cluster [])

let test_batch_run_clustered () =
  let item v digests = ((fun () -> v * 10), digests) in
  let outcomes, stats =
    Batch.run_clustered ~jobs:2 ~timeout_s:60.0
      [ item 1 [ "x" ]; item 2 [ "x" ]; item 3 [ "y" ]; item 4 [] ]
  in
  Alcotest.(check int) "outcomes in submission order" 4 (Array.length outcomes);
  Array.iteri
    (fun i o ->
      match o with
      | Batch.Done v -> Alcotest.(check int) "value" ((i + 1) * 10) v
      | _ -> Alcotest.fail "all jobs should be Done")
    outcomes;
  Alcotest.(check int) "three scheduling units" 3 stats.Batch.clusters;
  Alcotest.(check int) "submitted counts jobs, not clusters" 4
    stats.Batch.submitted

(* ------------------------------------------------------------------ *)
(* Cached compiles: warm replays byte-identically *)

let test_cached_compile_determinism () =
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let compile () =
        Cached.compile ~cache ~config:Config.best ~name:"loop.c"
          loop_src
      in
      let cold = compile () in
      let warm = compile () in
      Alcotest.(check bool) "cold is a miss" false cold.Cached.hit;
      Alcotest.(check bool) "warm is a hit" true warm.Cached.hit;
      Alcotest.(check string) "same key" cold.Cached.key warm.Cached.key;
      Alcotest.(check string) "byte-identical report"
        cold.Cached.report_text warm.Cached.report_text;
      Alcotest.(check string) "byte-identical eval JSON"
        (Json.to_string cold.Cached.eval)
        (Json.to_string warm.Cached.eval);
      (* a reformatted copy of the source is still warm *)
      let reform =
        Cached.compile ~cache ~config:Config.best ~name:"loop.c"
          loop_src_reformatted
      in
      Alcotest.(check bool) "reformatted source hits" true reform.Cached.hit)

let test_cached_compile_raises_on_bad_source () =
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let raised =
        match
          Cached.compile ~cache ~config:Config.best ~name:"bad.c"
            "int ("
        with
        | _ -> false
        | exception Spt_srclang.Parser.Parse_error _ -> true
        | exception Spt_srclang.Lexer.Lex_error _ -> true
      in
      Alcotest.(check bool) "syntax errors propagate" true raised;
      (* and failures are never cached *)
      let s = Cache.stats cache in
      Alcotest.(check int) "nothing stored" 0 s.Cache.stores)

(* ------------------------------------------------------------------ *)
(* Serve loop *)

let reply_of = function
  | `Reply j -> j
  | `Shutdown j -> j

let bool_member k j =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

(* one request line through [Server.handle_line], its reply parsed
   back; none of these requests may end the loop *)
let send t fields =
  let line = Json.to_string ~minify:true (Json.Obj fields) in
  match Server.handle_line t line with
  | `Reply line -> (
    match Json.of_string line with
    | Ok j -> j
    | Error e -> Alcotest.fail ("reply is not JSON: " ^ e))
  | `Shutdown _ -> Alcotest.fail "the request ended the serve loop"

(* a reply field rendered as minified JSON *)
let field k j =
  match Json.member k j with
  | Some v -> Json.to_string ~minify:true v
  | None -> Alcotest.fail (k ^ " missing from reply")

let test_server_compile_and_stats () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let req =
        Json.Obj
          [
            ("op", Json.Str "compile");
            ("source", Json.Str tiny_src);
            ("name", Json.Str "tiny.c");
            ("id", Json.Int 7);
          ]
      in
      let r1 = reply_of (Server.handle t req) in
      Alcotest.(check (option bool)) "first compile ok" (Some true)
        (bool_member "ok" r1);
      Alcotest.(check (option bool)) "first compile is cold" (Some false)
        (bool_member "cache_hit" r1);
      Alcotest.(check bool) "id echoed" true
        (Json.member "id" r1 = Some (Json.Int 7));
      let r2 = reply_of (Server.handle t req) in
      Alcotest.(check (option bool)) "second compile is warm" (Some true)
        (bool_member "cache_hit" r2);
      let stats = reply_of (Server.handle t (Json.Obj [ ("op", Json.Str "stats") ])) in
      Alcotest.(check bool) "stats counts requests" true
        (match Json.member "requests" stats with
        | Some (Json.Int n) -> n = 3
        | _ -> false))

(* a resent source is answered by the digest memo, a reformatted copy by
   the front end; both reach the cold compile's entry, and the stats
   reply counts the memo's hit and miss *)
let test_server_resend_and_reformat () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let send = send t in
      let compile src =
        send [ ("op", Json.Str "compile"); ("source", Json.Str src) ]
      in
      let memo () =
        match Json.member "fingerprint" (send [ ("op", Json.Str "stats") ]) with
        | Some (Json.Obj [ ("hits", Json.Int h); ("misses", Json.Int m) ]) ->
          (h, m)
        | _ -> Alcotest.fail "stats reply lacks fingerprint hits and misses"
      in
      let cold = compile loop_src in
      let h0, m0 = memo () in
      let resent = compile loop_src in
      (* a text no other test sends, so the memo cannot know it *)
      let reformatted =
        compile ("// resent, reformatted\n" ^ loop_src_reformatted)
      in
      let h1, m1 = memo () in
      List.iter
        (fun (what, reply, hit) ->
          Alcotest.(check string) (what ^ ": one key") (field "key" cold)
            (field "key" reply);
          Alcotest.(check (option bool)) (what ^ ": cache_hit") (Some hit)
            (bool_member "cache_hit" reply);
          Alcotest.(check string) (what ^ ": eval") (field "eval" cold)
            (field "eval" reply))
        [
          ("cold", cold, false);
          ("resent", resent, true);
          ("reformatted", reformatted, true);
        ];
      Alcotest.(check (pair int int))
        "memo: the resend hit, the reformat missed" (1, 1)
        (h1 - h0, m1 - m0))

let test_server_latency_percentiles () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let compile name =
        ignore
          (Server.handle t
             (Json.Obj
                [
                  ("op", Json.Str "compile");
                  ("source", Json.Str tiny_src);
                  ("name", Json.Str name);
                ]))
      in
      compile "a.c";
      compile "b.c";
      let stats =
        reply_of (Server.handle t (Json.Obj [ ("op", Json.Str "stats") ]))
      in
      match Json.member "latency_s" stats with
      | None -> Alcotest.fail "latency_s missing from stats"
      | Some lat ->
        Alcotest.(check bool) "count = 2" true
          (Json.member "count" lat = Some (Json.Int 2));
        let fnum k =
          match Json.member k lat with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> Alcotest.fail (k ^ " missing from latency_s")
        in
        let p50 = fnum "p50" and p95 = fnum "p95" and p99 = fnum "p99" in
        Alcotest.(check bool) "percentiles positive and ordered" true
          (p50 > 0.0 && p50 <= p95 && p95 <= p99);
        Alcotest.(check bool) "p99 within observed max" true
          (p99 <= fnum "max" +. 1e-9))

let test_server_depth_field () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      (* a compile without "depth" must not grow a depth echo *)
      let plain =
        reply_of
          (Server.handle t
             (Json.Obj
                [
                  ("op", Json.Str "compile");
                  ("source", Json.Str tiny_src);
                  ("name", Json.Str "tiny.c");
                ]))
      in
      Alcotest.(check (option bool)) "plain compile ok" (Some true)
        (bool_member "ok" plain);
      Alcotest.(check bool) "no depth echo without the field" true
        (Json.member "depth" plain = None);
      (* forcing a depth is accepted, echoed, and keys a distinct
         artifact (the first depth-2 compile must be cold) *)
      let forced =
        reply_of
          (Server.handle t
             (Json.Obj
                [
                  ("op", Json.Str "compile");
                  ("source", Json.Str tiny_src);
                  ("name", Json.Str "tiny.c");
                  ("depth", Json.Int 2);
                ]))
      in
      Alcotest.(check (option bool)) "forced compile ok" (Some true)
        (bool_member "ok" forced);
      Alcotest.(check bool) "depth echoed" true
        (Json.member "depth" forced = Some (Json.Int 2));
      Alcotest.(check (option bool)) "distinct cache key" (Some false)
        (bool_member "cache_hit" forced);
      (* invalid depths are error replies, never crashes *)
      List.iter
        (fun bad ->
          let r =
            reply_of
              (Server.handle t
                 (Json.Obj
                    [
                      ("op", Json.Str "compile");
                      ("source", Json.Str tiny_src);
                      ("depth", bad);
                    ]))
          in
          Alcotest.(check (option bool)) "bad depth rejected" (Some false)
            (bool_member "ok" r))
        [ Json.Int 0; Json.Int (-3); Json.Str "four" ];
      (* workload run: the forced depth reaches the runtime and is
         echoed back *)
      let run =
        reply_of
          (Server.handle t
             (Json.Obj
                [
                  ("op", Json.Str "workload");
                  ("name", Json.Str "mcf");
                  ("run", Json.Bool true);
                  ("jobs", Json.Int 2);
                  ("depth", Json.Int 2);
                ]))
      in
      Alcotest.(check (option bool)) "workload run ok" (Some true)
        (bool_member "ok" run);
      Alcotest.(check bool) "workload echoes depth" true
        (Json.member "depth" run = Some (Json.Int 2)))

(* the "profile" field: a non-empty store on disk guides the compile
   under its own key and replays warm, an empty one keys as no store,
   and a path with no file behind it is an error reply that neither
   compiles nor runs anything *)
let test_server_profile_field () =
  let module Store = Spt_profile.Profile_store in
  with_tmpdir (fun dir ->
      let t =
        Server.create ~cache:(Cache.create ~dir:(Filename.concat dir "cache") ()) ()
      in
      let send = send t in
      let on_disk name store =
        let path = Filename.concat dir name in
        Store.save store path;
        path
      in
      let guided =
        let s = Store.empty () in
        let ep, dp, vp = Pipeline.profile_source loop_src in
        Store.absorb_profiles s ep dp vp;
        on_disk "guided.json" s
      and empty = on_disk "empty.json" (Store.empty ()) in
      let compile extra =
        send ([ ("op", Json.Str "compile"); ("source", Json.Str loop_src) ] @ extra)
      in
      let unguided = compile [] in
      let cold = compile [ ("profile", Json.Str guided) ] in
      let warm = compile [ ("profile", Json.Str guided) ] in
      let via_empty = compile [ ("profile", Json.Str empty) ] in
      Alcotest.(check (option bool)) "guided compile ok" (Some true)
        (bool_member "ok" cold);
      Alcotest.(check bool) "the store keys a distinct artifact" false
        (field "key" cold = field "key" unguided);
      Alcotest.(check (option bool)) "resend hits" (Some true)
        (bool_member "cache_hit" warm);
      Alcotest.(check string) "resend: same key" (field "key" cold)
        (field "key" warm);
      Alcotest.(check string) "resend: byte-identical eval" (field "eval" cold)
        (field "eval" warm);
      Alcotest.(check string) "an empty store keys as none"
        (field "key" unguided) (field "key" via_empty);
      Alcotest.(check (option bool)) "an empty store hits the unguided entry"
        (Some true)
        (bool_member "cache_hit" via_empty);
      let counts () =
        let st = send [ ("op", Json.Str "stats") ] in
        let n path =
          match
            List.fold_left
              (fun j k -> Option.bind j (Json.member k))
              (Some st) path
          with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.fail (String.concat "." path ^ " missing from stats")
        in
        List.map n
          [
            [ "errors" ]; [ "cache"; "hits" ]; [ "cache"; "misses" ];
            [ "profdb"; "lookups" ]; [ "profdb"; "ingests" ];
          ]
      in
      let before = counts () in
      let missing = Filename.concat dir "missing.json" in
      List.iter
        (fun (what, fields) ->
          let r = send (fields @ [ ("profile", Json.Str missing) ]) in
          Alcotest.(check (option bool)) (what ^ ": error reply") (Some false)
            (bool_member "ok" r);
          Alcotest.(check bool) (what ^ ": the error names the path") true
            (match Json.member "error" r with
            | Some (Json.Str e) ->
              let n = String.length missing in
              String.length e >= n && String.sub e 0 n = missing
            | _ -> false))
        [
          ("compile", [ ("op", Json.Str "compile"); ("source", Json.Str loop_src) ]);
          ("workload", [ ("op", Json.Str "workload"); ("name", Json.Str "mcf") ]);
          ( "workload run",
            [
              ("op", Json.Str "workload"); ("name", Json.Str "mcf");
              ("run", Json.Bool true);
            ] );
        ];
      Alcotest.(check (list int))
        "three errors; no cache lookup, profile lookup or ingest"
        (match before with e :: rest -> (e + 3) :: rest | [] -> [])
        (counts ()))

(* the execution engine is not part of the protocol: a request naming
   one is the same request — the same key, a warm hit *)
let test_server_ignores_engine_field () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let compile extra =
        reply_of
          (Server.handle t
             (Json.Obj
                ([
                   ("op", Json.Str "compile");
                   ("source", Json.Str tiny_src);
                   ("name", Json.Str "tiny.c");
                 ]
                @ extra)))
      in
      let plain = compile [] in
      let tree = compile [ ("engine", Json.Str "tree") ] in
      Alcotest.(check (option bool)) "engine field is no error" (Some true)
        (bool_member "ok" tree);
      Alcotest.(check bool) "same cache key" true
        (Json.member "key" plain <> None
        && Json.member "key" tree = Json.member "key" plain);
      Alcotest.(check (option bool)) "served warm" (Some true)
        (bool_member "cache_hit" tree))

let test_server_errors_keep_loop_alive () =
  let t = Server.create ~cache:(Cache.no_cache ()) () in
  let check_err name req =
    match Server.handle t req with
    | `Reply j ->
      Alcotest.(check (option bool)) name (Some false) (bool_member "ok" j);
      Alcotest.(check bool) (name ^ " has message") true
        (match Json.member "error" j with Some (Json.Str _) -> true | _ -> false)
    | `Shutdown _ -> Alcotest.fail (name ^ ": must not shut down")
  in
  check_err "unknown op" (Json.Obj [ ("op", Json.Str "frobnicate") ]);
  check_err "missing op" (Json.Obj [ ("x", Json.Int 1) ]);
  check_err "compile without source"
    (Json.Obj [ ("op", Json.Str "compile") ]);
  check_err "compile with both source and file"
    (Json.Obj
       [
         ("op", Json.Str "compile");
         ("source", Json.Str tiny_src);
         ("file", Json.Str "x.c");
       ]);
  check_err "unknown workload"
    (Json.Obj [ ("op", Json.Str "workload"); ("name", Json.Str "nope") ]);
  check_err "compile error is a reply, not a crash"
    (Json.Obj [ ("op", Json.Str "compile"); ("source", Json.Str "int (") ]);
  (match Server.handle_line t "this is not json" with
  | `Reply line ->
    Alcotest.(check bool) "bad JSON is an error reply" true
      (match Json.of_string line with
      | Ok j -> bool_member "ok" j = Some false
      | Error _ -> false)
  | `Shutdown _ -> Alcotest.fail "bad JSON must not shut down");
  match Server.handle t (Json.Obj [ ("op", Json.Str "shutdown") ]) with
  | `Shutdown j ->
    Alcotest.(check (option bool)) "shutdown acks" (Some true) (bool_member "ok" j)
  | `Reply _ -> Alcotest.fail "shutdown must end the loop"

(* ------------------------------------------------------------------ *)
(* Concurrent serving *)

(* a source heavy enough (many functions, full pipeline + simulation)
   that its compile comfortably outlasts pipe writes and watchdog
   scans *)
let heavy_src tag =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int n = 40;\n";
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "int arr%d[40];\n" i);
    Buffer.add_string b
      (Printf.sprintf
         "int f%d(int k) { int i = 0; int acc = 0; while (i < n) { arr%d[i] \
          = i * %d + k; if (arr%d[i] > acc) { acc = arr%d[i]; } i = i + 1; } \
          return acc; }\n"
         i i (tag + i + 2) i i)
  done;
  Buffer.add_string b "void main() {\n  int t = 0;\n";
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "  t = t + f%d(%d);\n" i tag)
  done;
  Buffer.add_string b "  print_int(t);\n}\n";
  Buffer.contents b

let compile_req ?(extra = []) ~id src =
  Json.to_string ~minify:true
    (Json.Obj
       ([
          ("op", Json.Str "compile");
          ("source", Json.Str src);
          ("name", Json.Str (Printf.sprintf "req-%d.c" id));
          ("id", Json.Int id);
        ]
       @ extra))

(* write every line, close (EOF → drain), read the raw reply lines until
   the server closes its end *)
let serve_lines server lines =
  let r_req, w_req = Unix.pipe () and r_rep, w_rep = Unix.pipe () in
  let srv_ic = Unix.in_channel_of_descr r_req
  and srv_oc = Unix.out_channel_of_descr w_rep in
  let srv =
    Domain.spawn (fun () ->
        Server.serve server srv_ic srv_oc;
        close_out_noerr srv_oc)
  in
  let to_srv = Unix.out_channel_of_descr w_req
  and from_srv = Unix.in_channel_of_descr r_rep in
  List.iter
    (fun l ->
      output_string to_srv l;
      output_char to_srv '\n')
    lines;
  close_out to_srv;
  let rec read acc =
    match input_line from_srv with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let replies = read [] in
  Domain.join srv;
  close_in_noerr from_srv;
  close_in_noerr srv_ic;
  replies

let serve_session server lines =
  List.map
    (fun l ->
      match Json.of_string l with
      | Ok j -> j
      | Error e -> Alcotest.fail ("reply is not JSON: " ^ e))
    (serve_lines server lines)

let int_member k j =
  match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

let test_server_concurrent_handle_stress () =
  with_tmpdir (fun dir ->
      let t = Server.create ~cache:(Cache.create ~dir ()) () in
      let n_domains = 4 and per = 12 in
      let worker d =
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let req =
                if i mod 3 = 0 then
                  Json.Obj
                    [
                      ("op", Json.Str "compile");
                      ("source", Json.Str tiny_src);
                      ("name", Json.Str (Printf.sprintf "d%d.c" d));
                    ]
                else Json.Obj [ ("op", Json.Str "stats") ]
              in
              match Server.handle t req with
              | `Reply r ->
                if bool_member "ok" r <> Some true then
                  Alcotest.fail "concurrent request failed"
              | `Shutdown _ -> Alcotest.fail "unexpected shutdown"
            done)
      in
      List.iter Domain.join (List.init n_domains worker);
      let stats =
        reply_of (Server.handle t (Json.Obj [ ("op", Json.Str "stats") ]))
      in
      Alcotest.(check (option int)) "no request lost or double-counted"
        (Some ((n_domains * per) + 1))
        (int_member "requests" stats);
      Alcotest.(check (option int)) "no errors" (Some 0)
        (int_member "errors" stats))

let test_server_serve_concurrent_pipes () =
  with_tmpdir (fun dir ->
      let server = Server.create ~cache:(Cache.create ~dir ()) ~jobs:2 () in
      let lines =
        List.init 4 (fun i -> compile_req ~id:i (heavy_src (100 + (7 * i))))
        @ [ {|{"op":"shutdown"}|} ]
      in
      let replies = serve_session server lines in
      Alcotest.(check int) "one reply per request plus the ack" 5
        (List.length replies);
      List.iter
        (fun r ->
          Alcotest.(check (option int)) "protocol version tagged"
            (Some Server.protocol_version) (int_member "proto" r);
          Alcotest.(check (option bool)) "reply ok" (Some true)
            (bool_member "ok" r))
        replies;
      let ids = List.filter_map (int_member "id") replies in
      Alcotest.(check (list int)) "every id answered exactly once"
        [ 0; 1; 2; 3 ]
        (List.sort compare ids);
      (* the ack leaves last: outstanding work drains before shutdown *)
      match List.rev replies with
      | last :: _ ->
        Alcotest.(check bool) "shutdown ack is the final reply" true
          (Json.member "op" last = Some (Json.Str "shutdown"))
      | [] -> Alcotest.fail "no replies")

let test_server_coalescing () =
  with_tmpdir (fun dir ->
      let server = Server.create ~cache:(Cache.create ~dir ()) ~jobs:2 () in
      let src = heavy_src 555 in
      (* identical requests modulo id: one leader compiles, the rest
         attach to it in flight *)
      let lines =
        List.init 6 (fun i ->
            Json.to_string ~minify:true
              (Json.Obj
                 [
                   ("op", Json.Str "compile");
                   ("source", Json.Str src);
                   ("name", Json.Str "same.c");
                   ("id", Json.Int i);
                 ]))
      in
      let replies = serve_session server lines in
      Alcotest.(check int) "all replied" 6 (List.length replies);
      List.iter
        (fun r ->
          Alcotest.(check (option bool)) "all ok" (Some true)
            (bool_member "ok" r))
        replies;
      let coalesced =
        List.length
          (List.filter (fun r -> bool_member "coalesced" r = Some true) replies)
      in
      Alcotest.(check bool) "followers coalesced onto the leader" true
        (coalesced >= 1);
      Alcotest.(check bool) "the leader itself is never coalesced" true
        (coalesced < 6))

(* ------------------------------------------------------------------ *)
(* The eval memo: a compile reply splices the eval text rendered for
   the very tree the cache holds *)

(* [line] as the server renders it without the memo: the eval tree the
   cache holds under the reply's key, rendered in place *)
let unmemoized cache line =
  match Json.of_string line with
  | Error e -> Alcotest.fail ("reply is not JSON: " ^ e)
  | Ok reply -> (
    let eval =
      match Json.member "key" reply with
      | Some (Json.Str key) ->
        Option.bind (Cache.find cache key) (Json.member "eval")
      | _ -> None
    in
    match eval with
    | Some eval -> Json.to_string ~minify:true (Json.set ("eval", eval) reply)
    | None -> Alcotest.fail ("no cached eval behind " ^ line))

let reply_line t line =
  match Server.handle_line t line with
  | `Reply r -> r
  | `Shutdown _ -> Alcotest.fail "a compile request ended the serve loop"

(* cold and warm, plain, depth-forced and profile-guided compiles, and
   replies coalesced onto a leader: each line is the rendering without
   the memo *)
let test_server_eval_memo_replies () =
  let module Store = Spt_profile.Profile_store in
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
      let t = Server.create ~cache () in
      let guide = Filename.concat dir "guide.json" in
      (let s = Store.empty () in
       let ep, dp, vp = Pipeline.profile_source loop_src in
       Store.absorb_profiles s ep dp vp;
       Store.save s guide);
      List.iter
        (fun (what, extra) ->
          let line = compile_req ~extra ~id:1 loop_src in
          List.iter
            (fun (state, hit) ->
              let reply = reply_line t line in
              Alcotest.(check (option bool)) (what ^ " " ^ state) (Some hit)
                (Option.bind
                   (Result.to_option (Json.of_string reply))
                   (bool_member "cache_hit"));
              Alcotest.(check string)
                (what ^ " " ^ state ^ ": as without the memo")
                (unmemoized cache reply) reply)
            [ ("cold", false); ("warm", true); ("warm again", true) ])
        [
          ("plain", []);
          ("depth-forced", [ ("depth", Json.Int 2) ]);
          ("profile-guided", [ ("profile", Json.Str guide) ]);
        ];
      let server = Server.create ~cache ~jobs:2 () in
      (* identical requests modulo id attach to one leader in flight *)
      let replies =
        serve_lines server
          (List.init 6 (fun id ->
               Json.to_string ~minify:true
                 (Json.Obj
                    [
                      ("op", Json.Str "compile");
                      ("source", Json.Str (heavy_src 556));
                      ("id", Json.Int id);
                    ])))
      in
      Alcotest.(check bool) "some replies were coalesced" true
        (List.exists
           (fun r ->
             match Json.of_string r with
             | Ok j -> bool_member "coalesced" j = Some true
             | Error _ -> false)
           replies);
      List.iter
        (fun r ->
          Alcotest.(check string) "coalesced: as without the memo"
            (unmemoized cache r) r)
        replies)

(* the memo answers for one tree only: another tree stored under the
   same key, or the entry read back from disk, is rendered fresh *)
let test_server_eval_memo_fresh_tree () =
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let t = Server.create ~cache () in
      let line = compile_req ~id:1 tiny_src in
      let eval_of reply =
        match Json.of_string reply with
        | Ok j -> field "eval" j
        | Error e -> Alcotest.fail e
      in
      let cold = reply_line t line in
      let key =
        match Json.of_string cold with
        | Ok j -> (
          match Json.member "key" j with
          | Some (Json.Str k) -> k
          | _ -> Alcotest.fail "no key")
        | Error e -> Alcotest.fail e
      in
      let payload =
        match Cache.find cache key with
        | Some p -> p
        | None -> Alcotest.fail "no entry"
      in
      let replaced =
        Json.Obj [ ("replaced", Json.List [ Json.Int 1; Json.Float 0.25 ]) ]
      in
      Cache.store cache key (Json.set ("eval", replaced) payload);
      let after = reply_line t line in
      Alcotest.(check string) "the replaced tree's eval"
        (Json.to_string ~minify:true replaced)
        (eval_of after);
      Alcotest.(check string) "as without the memo" (unmemoized cache after)
        after;
      (* a second cache over the same directory reads the replaced entry
         back from disk: a new tree, the same text *)
      let t' = Server.create ~cache:(Cache.create ~dir ()) () in
      Alcotest.(check string) "read back from disk" (eval_of after)
        (eval_of (reply_line t' line));
      Alcotest.(check bool) "the cold reply's eval differs" false
        (String.equal (eval_of cold) (eval_of after)))

(* warm replies share one text; a text over the memo's cap is rendered
   on every reply and never kept *)
let test_server_eval_memo_bounds () =
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let t = Server.create ~cache () in
      let req src =
        Json.Obj [ ("op", Json.Str "compile"); ("source", Json.Str src) ]
      in
      let raw_eval src =
        match Server.handle t (req src) with
        | `Reply r -> (
          match Json.member "eval" r with
          | Some (Json.Raw text) -> text
          | _ -> Alcotest.fail "the reply's eval is not a Raw text")
        | `Shutdown _ -> Alcotest.fail "shutdown"
      in
      let cold = raw_eval tiny_src in
      let warm = raw_eval tiny_src and again = raw_eval tiny_src in
      Alcotest.(check bool) "the warm replies share the cold reply's text" true
        (cold == warm && warm == again);
      let key = Cached.key_of ~config:Config.best loop_src in
      let big =
        Json.List
          (List.init
             ((Spt_service.Slot_memo.reply_max_text / 8) + 1)
             (fun i -> Json.Int (1_000_000 + i)))
      in
      Cache.store cache key
        (Json.Obj
           [
             ("schema", Json.Str Cached.payload_schema);
             ("eval", big);
             ("report_text", Json.Str "");
           ]);
      let first = raw_eval loop_src and second = raw_eval loop_src in
      Alcotest.(check bool) "over the cap" true
        (String.length first > Spt_service.Slot_memo.reply_max_text);
      Alcotest.(check string) "rendered right" (Json.to_string ~minify:true big)
        first;
      Alcotest.(check bool) "rendered each time" false (first == second))

(* four domains replying through one memo, over a few programs: every
   reply is the rendering without the memo *)
let test_server_eval_memo_domains () =
  with_tmpdir (fun dir ->
      let cache = Cache.create ~dir () in
      let t = Server.create ~cache () in
      let lines =
        Array.of_list
          (List.mapi
             (fun id src -> compile_req ~id src)
             [ tiny_src; loop_src; array_param_src; heavy_src 557 ])
      in
      let expected =
        Array.map (fun l -> unmemoized cache (reply_line t l)) lines
      in
      let worker d =
        Domain.spawn (fun () ->
            let wrong = ref 0 in
            for k = 0 to 199 do
              let i = (d + k) mod Array.length lines in
              let r = reply_line t lines.(i) in
              (* only elapsed_s may differ: compare the evals *)
              match (Json.of_string r, Json.of_string expected.(i)) with
              | Ok a, Ok b ->
                if
                  not
                    (String.equal (field "eval" a) (field "eval" b)
                    && String.equal r (unmemoized cache r))
                then incr wrong
              | _ -> incr wrong
            done;
            !wrong)
      in
      let wrong = List.map Domain.join (List.init 4 worker) in
      Alcotest.(check (list int)) "no domain saw a wrong reply" [ 0; 0; 0; 0 ]
        wrong)

(* an untrusted line of 8 MB of brackets gets a bad JSON reply at once,
   and the loop keeps serving *)
let test_server_deep_nesting () =
  with_tmpdir (fun dir ->
      let server = Server.create ~cache:(Cache.create ~dir ()) ~jobs:2 () in
      let t0 = Unix.gettimeofday () in
      let replies =
        serve_session server
          [ String.make (8 * 1024 * 1024) '['; {|{"op":"stats","id":1}|} ]
      in
      let dt = Unix.gettimeofday () -. t0 in
      match replies with
      | [ bad; stats ] ->
        Alcotest.(check (option bool)) "an error reply" (Some false)
          (bool_member "ok" bad);
        Alcotest.(check bool) "it says bad JSON" true
          (match Json.member "error" bad with
          | Some (Json.Str e) -> String.starts_with ~prefix:"bad JSON: " e
          | _ -> false);
        Alcotest.(check (option bool)) "the next request is served" (Some true)
          (bool_member "ok" stats);
        Alcotest.(check bool)
          (Printf.sprintf "answered in well under a second (%.3f s)" dt)
          true (dt < 1.0)
      | _ -> Alcotest.fail "expected two replies")

let test_server_overloaded () =
  with_tmpdir (fun dir ->
      let server =
        Server.create ~cache:(Cache.create ~dir ()) ~jobs:2 ~queue_max:1 ()
      in
      (* distinct heavy sources sent back-to-back: the loop ingests them
         far faster than one worker slot can drain *)
      let lines =
        List.init 6 (fun i -> compile_req ~id:i (heavy_src (300 + (11 * i))))
      in
      let replies = serve_session server lines in
      Alcotest.(check int) "all replied" 6 (List.length replies);
      let code r =
        match Json.member "code" r with Some (Json.Str s) -> Some s | _ -> None
      in
      let shed =
        List.filter (fun r -> code r = Some "overloaded") replies
      in
      Alcotest.(check bool) "backpressure sheds load" true (shed <> []);
      List.iter
        (fun r ->
          Alcotest.(check (option bool)) "shed replies are errors" (Some false)
            (bool_member "ok" r))
        shed;
      Alcotest.(check bool) "some requests still served" true
        (List.exists (fun r -> bool_member "ok" r = Some true) replies))

let test_server_timeout () =
  with_tmpdir (fun dir ->
      let server =
        Server.create ~cache:(Cache.create ~dir ()) ~jobs:2 ~timeout_s:0.005 ()
      in
      let replies = serve_session server [ compile_req ~id:9 (heavy_src 777) ] in
      Alcotest.(check int) "one reply" 1 (List.length replies);
      let r = List.hd replies in
      Alcotest.(check (option bool)) "timed-out reply is an error" (Some false)
        (bool_member "ok" r);
      Alcotest.(check bool) "code is timeout" true
        (Json.member "code" r = Some (Json.Str "timeout"));
      Alcotest.(check (option int)) "id echoed on the timeout reply" (Some 9)
        (int_member "id" r))

let suite =
  [
    Alcotest.test_case "fingerprint layout-independent" `Quick
      test_fingerprint_layout_independent;
    Alcotest.test_case "fingerprint config-sensitive" `Quick
      test_fingerprint_config_sensitive;
    Alcotest.test_case "fingerprint profile-sensitive" `Quick
      test_fingerprint_profile_sensitive;
    Alcotest.test_case "fingerprint is hex" `Quick test_fingerprint_is_hex;
    Alcotest.test_case "fingerprint matches the printer reference" `Slow
      test_fingerprint_matches_reference;
    Alcotest.test_case "source digest = program of front end" `Quick
      test_source_matches_program;
    Alcotest.test_case "source digest of rejected text" `Quick
      test_source_rejects;
    Alcotest.test_case "source digest size cap" `Quick test_source_size_cap;
    Alcotest.test_case "source digest from four domains" `Quick
      test_source_concurrent;
    Alcotest.test_case "cache roundtrip + persistence" `Quick test_cache_roundtrip;
    Alcotest.test_case "corruption is a miss" `Quick test_cache_corruption_is_a_miss;
    Alcotest.test_case "flipped payload byte is a miss" `Quick
      test_cache_flipped_byte_is_a_miss;
    Alcotest.test_case "schema mismatch is a miss" `Quick
      test_cache_schema_mismatch_is_a_miss;
    Alcotest.test_case "no-cache object" `Quick test_no_cache;
    Alcotest.test_case "sharded layout" `Quick test_cache_sharded_layout;
    Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction_order;
    Alcotest.test_case "byte bound held on disk" `Quick test_cache_byte_bound;
    Alcotest.test_case "concurrent writers" `Quick test_cache_concurrent_writers;
    Alcotest.test_case "batch outcomes in order" `Quick test_batch_outcomes;
    Alcotest.test_case "digest clustering" `Quick test_batch_cluster;
    Alcotest.test_case "clustered run" `Quick test_batch_run_clustered;
    Alcotest.test_case "batch latency histogram" `Quick test_batch_latency;
    Alcotest.test_case "batch timeout latency skipped" `Quick
      test_batch_timeout_latency_skipped;
    Alcotest.test_case "batch timeout" `Quick test_batch_timeout;
    Alcotest.test_case "server latency percentiles" `Quick
      test_server_latency_percentiles;
    Alcotest.test_case "cached compile determinism" `Quick
      test_cached_compile_determinism;
    Alcotest.test_case "cached compile raises on bad source" `Quick
      test_cached_compile_raises_on_bad_source;
    Alcotest.test_case "server compile + stats" `Quick test_server_compile_and_stats;
    Alcotest.test_case "server resend and reformat" `Quick
      test_server_resend_and_reformat;
    Alcotest.test_case "server depth field" `Slow test_server_depth_field;
    Alcotest.test_case "server profile field" `Quick test_server_profile_field;
    Alcotest.test_case "server ignores engine field" `Quick
      test_server_ignores_engine_field;
    Alcotest.test_case "server errors keep loop alive" `Quick
      test_server_errors_keep_loop_alive;
    Alcotest.test_case "concurrent handle stress" `Quick
      test_server_concurrent_handle_stress;
    Alcotest.test_case "concurrent serve over pipes" `Quick
      test_server_serve_concurrent_pipes;
    Alcotest.test_case "single-flight coalescing" `Quick test_server_coalescing;
    Alcotest.test_case "eval memo: replies as without it" `Quick
      test_server_eval_memo_replies;
    Alcotest.test_case "eval memo: another tree is rendered fresh" `Quick
      test_server_eval_memo_fresh_tree;
    Alcotest.test_case "eval memo: bounds" `Quick test_server_eval_memo_bounds;
    Alcotest.test_case "eval memo: four domains agree" `Quick
      test_server_eval_memo_domains;
    Alcotest.test_case "deep nesting is a prompt error" `Quick
      test_server_deep_nesting;
    Alcotest.test_case "backpressure sheds load" `Quick test_server_overloaded;
    Alcotest.test_case "request timeout" `Quick test_server_timeout;
  ]
