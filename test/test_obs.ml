(** Tests for the observability layer ([Spt_obs]): the JSON tree
    (against its reference model {!Ref_json}), metrics registry, trace spans, leveled logging — and one pipeline
    run asserting that the instrumentation wired through the compiler
    actually fires. *)

module Json = Spt_obs.Json
module Metrics = Spt_obs.Metrics
module Trace = Spt_obs.Trace
module Log = Spt_obs.Log

(* The registry and trace buffer are global; every test restores the
   disabled default so the rest of the suite runs uninstrumented. *)
let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let with_trace f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("floats", Json.List [ Json.Float 2.0; Json.Float 3.14159; Json.Float 1e-9 ]);
        ("str", Json.Str "line\none \"quoted\" \\ tab\there");
        ("empty", Json.Obj [ ("l", Json.List []); ("o", Json.Obj []) ]);
      ]
  in
  List.iter
    (fun minify ->
      match Json.of_string (Json.to_string ~minify doc) with
      | Ok doc' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip (minify=%b)" minify)
          true (doc = doc')
      | Error msg -> Alcotest.fail ("reparse failed: " ^ msg))
    [ false; true ]

let test_json_parse () =
  (match Json.of_string {| {"a": [1, 2.5, "Aé"], "b": null} |} with
  | Ok j ->
    Alcotest.(check bool) "int stays int" true (Json.member "a" j
      |> Option.map (function Json.List (x :: _) -> x = Json.Int 1 | _ -> false)
      = Some true);
    (match Json.member "a" j with
    | Some (Json.List [ _; _; Json.Str s ]) ->
      Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9" s
    | _ -> Alcotest.fail "unexpected shape")
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "1 2"; "\"unterminated" ]

let test_json_nonfinite () =
  match Json.of_string (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ])) with
  | Ok j -> Alcotest.(check bool) "non-finite floats load as null" true
      (j = Json.List [ Json.Null; Json.Null ])
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* JSON against its reference model ([Ref_json], the code the writer and
   reader replaced): same bytes out, same trees and error strings in *)

let pick rng a = a.(Random.State.int rng (Array.length a))

(* floats from random bit patterns (NaNs, infinities, subnormals, ±0
   among them) and from the shapes replies carry: integers on both sides
   of 1e15, short decimals, ratios *)
let random_float rng =
  let bits () = Int64.float_of_bits (Random.State.bits64 rng) in
  match Random.State.int rng 8 with
  | 0 | 1 -> bits ()
  | 2 ->
    (* a subnormal: exponent field 0 *)
    Int64.float_of_bits
      (Int64.logand (Random.State.bits64 rng) 0x800F_FFFF_FFFF_FFFFL)
  | 3 ->
    pick rng
      [| 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float;
         Float.max_float; Float.epsilon; 1e15; -1e15; 1e15 -. 1.0;
         0.1; 1e-9; 5e-324 |]
  | 4 ->
    (* integers near 1e15, and halves beside them *)
    let k = float_of_int (Random.State.int rng 4001 - 2000) in
    let x = 1e15 +. (k *. pick rng [| 1.0; 0.5; 3.0 |]) in
    if Random.State.bool rng then x else -.x
  | 5 -> float_of_int (Random.State.int rng 2_000_001 - 1_000_000)
  | 6 -> float_of_int (Random.State.int rng 1_000_000) /. pick rng [| 10.; 1000.; 7.; 3.; 1e6 |]
  | _ -> Random.State.float rng 2.0 -. 1.0

let random_int rng =
  match Random.State.int rng 4 with
  | 0 -> pick rng [| 0; -1; 1; max_int; min_int; 1 lsl 53; -(1 lsl 53) |]
  | 1 -> Int64.to_int (Random.State.bits64 rng)
  | _ -> Random.State.int rng 2_000_001 - 1_000_000

(* strings over all 256 byte values, or mostly plain text with the
   bytes that need escapes mixed in *)
let random_string rng =
  let len = pick rng [| 0; 1; 2; 5; 12; 40 |] in
  let plain = Random.State.bool rng in
  String.init len (fun _ ->
      if plain && Random.State.int rng 8 > 0 then
        Char.chr (32 + Random.State.int rng 95)
      else Char.chr (Random.State.int rng 256))

let rec random_json rng depth =
  match Random.State.int rng (if depth = 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool rng)
  | 2 -> Json.Int (random_int rng)
  | 3 -> Json.Float (random_float rng)
  | 4 -> Json.Str (random_string rng)
  | 5 ->
    Json.List
      (List.init (Random.State.int rng 5) (fun _ -> random_json rng (depth - 1)))
  | _ ->
    Json.Obj
      (List.init (Random.State.int rng 5) (fun _ ->
           (random_string rng, random_json rng (depth - 1))))

let test_json_writer_matches_reference () =
  let rng = Random.State.make [| 0x15011 |] in
  for _ = 1 to 3000 do
    let j = random_json rng 4 in
    List.iter
      (fun minify ->
        let expected = Ref_json.to_string ~minify j in
        let got = Json.to_string ~minify j in
        if not (String.equal expected got) then
          Alcotest.failf "to_string ~minify:%b: %S, reference %S" minify got
            expected)
      [ true; false ]
  done;
  (* every float the writer's fast paths meet, one at a time *)
  for _ = 1 to 20_000 do
    let x = random_float rng in
    let expected = Ref_json.to_string (Json.Float x) in
    let got = Json.to_string (Json.Float x) in
    if not (String.equal expected got) then
      Alcotest.failf "float %h: %S, reference %S" x got expected
  done

(* JSON-shaped text from fragments: every escape (valid or not), number
   shapes int_of_string and float_of_string disagree on, stray
   delimiters *)
let fragments =
  [| "{"; "}"; "["; "]"; ","; ":"; " "; "\n"; "\t"; "\"a\""; "\"\"";
     "\"\\u00e9\""; "\"\\uD83D\""; "\"\\u0041x\""; "\"\\u12_4\"";
     "\"\\u1__\""; "\"\\uzzzz\""; "\"\\u12\""; "\"\\b\\f\\/\\r\"";
     "\"\\q\""; "\"\\"; "\""; "\"x\\\""; "\"a\\nb\"";
     "true"; "tru"; "false"; "null"; "nul"; "0"; "-0"; "1e5"; "+3"; "-";
     "1.5e-3"; "0012"; "1e999"; "-1e999"; "4611686018427387903";
     "4611686018427387904"; "-4611686018427387905"; "1.2.3"; "e"; ".5";
     "x"; "\x00"; "\xc3\xa9"; "{\"k\":1}"; "[1,2]"; "[1,]"; "{\"a\" 1}" |]

let random_text rng =
  String.concat ""
    (List.init (1 + Random.State.int rng 12) (fun _ -> pick rng fragments))

let parse_agrees doc =
  let expected = Ref_json.of_string doc and got = Json.of_string doc in
  (* [compare], not [=]: a parsed tree may hold a NaN *)
  if compare expected got <> 0 then
    Alcotest.failf "of_string %S: %s, reference %s" doc
      (match got with Ok j -> Json.to_string ~minify:true j | Error e -> e)
      (match expected with
      | Ok j -> Json.to_string ~minify:true j
      | Error e -> e)

let test_json_reader_matches_reference () =
  let rng = Random.State.make [| 0x15012 |] in
  for _ = 1 to 2000 do
    let doc =
      if Random.State.int rng 3 = 0 then random_text rng
      else Ref_json.to_string ~minify:(Random.State.bool rng) (random_json rng 4)
    in
    parse_agrees doc;
    let n = String.length doc in
    (* truncations *)
    for _ = 1 to 3 do
      parse_agrees (String.sub doc 0 (Random.State.int rng (n + 1)))
    done;
    (* one-byte mutations *)
    if n > 0 then
      for _ = 1 to 3 do
        let b = Bytes.of_string doc in
        Bytes.set b (Random.State.int rng n)
          (if Random.State.bool rng then pick rng [| '"'; '\\'; '['; '{'; ','; ':'; 'u'; '0'; '-' |]
           else Char.chr (Random.State.int rng 256));
        parse_agrees (Bytes.to_string b)
      done
  done

let test_json_raw () =
  let inner = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 0.5 ]) ] in
  let text = Json.to_string ~minify:true inner in
  List.iter
    (fun minify ->
      Alcotest.(check string)
        (Printf.sprintf "a Raw leaf renders as its tree did (minify=%b)" minify)
        (Json.to_string ~minify (Json.List [ Json.Str "x"; inner ]))
        (Json.to_string ~minify
           (Json.List
              [ Json.Str "x"; (if minify then Json.Raw text else inner) ])))
    [ true; false ];
  Alcotest.(check string) "Raw is written verbatim in either mode"
    "{\n  \"r\": {\"a\":[1,0.5]}\n}"
    (Json.to_string (Json.Obj [ ("r", Json.Raw text) ]))

(* [equal_minified] against the renderings it stands for, and
   [hash_minified] agreeing with it, over pairs of trees that are
   mostly twins: the scalars come in classes of equal texts (null and
   the non-finite floats; an integer and the integral float with its
   digits) beside near misses (0 and ±0.0, 1 and 1.0), and now and
   then a key, a scalar, a list's tail or a whole subtree differs *)
let test_json_equal_minified () =
  let rng = Random.State.make [| 0x15013 |] in
  let classes =
    Json.
      [|
        [| Null; Float infinity; Float neg_infinity; Float nan |];
        [| Int 1234567890123456; Float 1234567890123456.0 |];
        [| Int 0 |]; [| Float 0.0 |]; [| Float (-0.0) |]; [| Int 1 |];
        [| Float 1.0 |]; [| Float 1e15 |]; [| Bool true |]; [| Str "null" |];
        [| Str "" |]; [| Str "a\"b" |];
      |]
  in
  let keys = [| ""; "a"; "id" |] in
  let odd () = Random.State.int rng 8 = 0 in
  let rec pair depth =
    if Random.State.int rng 16 = 0 then (fst (pair depth), fst (pair depth))
    else
      match Random.State.int rng (if depth = 0 then 1 else 3) with
      | 0 ->
        let c = pick rng classes in
        (pick rng c, pick rng (if odd () then pick rng classes else c))
      | 1 ->
        let items = List.init (Random.State.int rng 3) (fun _ -> pair (depth - 1)) in
        let b = List.map snd items in
        ( Json.List (List.map fst items),
          Json.List (if b <> [] && odd () then List.tl b else b) )
      | _ ->
        let fields =
          List.init (Random.State.int rng 3) (fun _ ->
              let k = pick rng keys and a, b = pair (depth - 1) in
              ((k, a), ((if odd () then pick rng keys else k), b)))
        in
        (Json.Obj (List.map fst fields), Json.Obj (List.map snd fields))
  in
  let equal = ref 0 and n = 20_000 in
  for _ = 1 to n do
    let a, b = pair 3 in
    let text j = Json.to_string ~minify:true j in
    let same = String.equal (text a) (text b) in
    if Json.equal_minified a b <> same then
      Alcotest.failf "equal_minified %s %s = %b" (text a) (text b) (not same);
    if same then begin
      incr equal;
      if Json.hash_minified a <> Json.hash_minified b then
        Alcotest.failf "%s hashes apart from an equal tree" (text a)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes drawn (%d of %d pairs equal)" !equal n)
    true
    (!equal > n / 4 && !equal < 3 * n / 4)

let test_json_depth_bound () =
  let nest k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool)
    (Printf.sprintf "%d levels parse" Json.max_depth)
    true
    (Result.is_ok (Json.of_string (nest Json.max_depth)));
  Alcotest.(check (result reject string))
    "one more level is an error at its bracket"
    (Error
       (Printf.sprintf "at byte %d: nesting deeper than %d" Json.max_depth
          Json.max_depth))
    (Result.map ignore (Json.of_string (nest (Json.max_depth + 1))));
  let objects =
    String.concat "" (List.init 600 (fun _ -> "{\"k\":")) ^ "1"
  in
  Alcotest.(check bool) "nested objects count too" true
    (match Json.of_string objects with
    | Error e -> String.ends_with ~suffix:"nesting deeper than 512" e
    | Ok _ -> false);
  (* an untrusted line of 8 MB of brackets is refused without
     descending into it *)
  let t0 = Unix.gettimeofday () in
  let r = Json.of_string (String.make (8 * 1024 * 1024) '[') in
  Alcotest.(check bool) "8 MB of brackets: an error" true (Result.is_error r);
  Alcotest.(check bool) "8 MB of brackets: refused in well under a second"
    true
    (Unix.gettimeofday () -. t0 < 0.5)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_accumulation () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.counter" in
  Metrics.inc c;
  Metrics.inc c;
  Metrics.add c 40;
  Alcotest.(check bool) "counter sums" true
    (Metrics.get "test.counter" = Some (Metrics.Counter 42));
  (* handles are interned: a second handle shares state *)
  Metrics.inc (Metrics.counter "test.counter");
  Alcotest.(check bool) "interned" true
    (Metrics.get "test.counter" = Some (Metrics.Counter 43))

let test_histogram_accumulation () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test.histogram" in
  List.iter (Metrics.observe h) [ 4.0; 1.0; 7.0 ];
  (match Metrics.get "test.histogram" with
  | Some (Metrics.Histogram { hcount; hsum; hmin; hmax }) ->
    Alcotest.(check int) "count" 3 hcount;
    Alcotest.(check (float 1e-9)) "sum" 12.0 hsum;
    Alcotest.(check (float 1e-9)) "min" 1.0 hmin;
    Alcotest.(check (float 1e-9)) "max" 7.0 hmax
  | _ -> Alcotest.fail "histogram value missing");
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check bool) "gauge" true
    (Metrics.get "test.gauge" = Some (Metrics.Gauge 2.5))

let test_hist_quantiles () =
  let h = Metrics.Hist.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Metrics.Hist.percentile h 0.5);
  (* a single observation reports itself exactly: interpolation is
     clamped to the observed min/max *)
  Metrics.Hist.observe h 0.25;
  Alcotest.(check (float 1e-12)) "single p50" 0.25 (Metrics.Hist.percentile h 0.5);
  Alcotest.(check (float 1e-12)) "single p99" 0.25 (Metrics.Hist.percentile h 0.99);
  Metrics.Hist.reset h;
  (* 100 observations spanning 1ms .. 100ms: quantiles must land in the
     right decade and stay ordered *)
  for i = 1 to 100 do
    Metrics.Hist.observe h (float_of_int i *. 1e-3)
  done;
  Alcotest.(check int) "count" 100 (Metrics.Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 5.05 (Metrics.Hist.sum h);
  Alcotest.(check (float 1e-9)) "min" 1e-3 (Metrics.Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 0.1 (Metrics.Hist.max_value h);
  let p50 = Metrics.Hist.percentile h 0.50 in
  let p95 = Metrics.Hist.percentile h 0.95 in
  let p99 = Metrics.Hist.percentile h 0.99 in
  Alcotest.(check bool) "p50 in its bucket neighbourhood" true
    (p50 > 0.025 && p50 < 0.1);
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p99 near the top" true (p99 > 0.05 && p99 <= 0.1);
  (* out-of-range and degenerate inputs neither crash nor escape the
     observed range *)
  Metrics.Hist.observe h 0.0;
  Metrics.Hist.observe h 1e12;
  let p100 = Metrics.Hist.percentile h 1.5 in
  Alcotest.(check bool) "clamped to max" true (p100 <= Metrics.Hist.max_value h);
  match Json.member "p95" (Metrics.Hist.to_json h) with
  | Some (Json.Float _) -> ()
  | _ -> Alcotest.fail "to_json lacks p95"

let test_metrics_delta () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.delta.counter" in
  let h = Metrics.histogram "test.delta.hist" in
  Metrics.add c 5;
  Metrics.observe h 1.0;
  let base = Metrics.since () in
  Metrics.add c 3;
  Metrics.observe h 2.0;
  Metrics.observe h 4.0;
  let d = Metrics.delta_json base in
  Alcotest.(check bool) "counter delta" true
    (Json.member "test.delta.counter" d = Some (Json.Int 3));
  (match Json.member "test.delta.hist" d with
  | Some hd ->
    Alcotest.(check bool) "hist delta count" true
      (Json.member "count" hd = Some (Json.Int 2));
    Alcotest.(check bool) "hist delta sum" true
      (Json.member "sum" hd = Some (Json.Float 6.0))
  | None -> Alcotest.fail "histogram delta missing")

let test_kind_mismatch () =
  ignore (Metrics.counter "test.kind");
  match Metrics.histogram "test.kind" with
  | _ -> Alcotest.fail "re-registering under another kind must fail"
  | exception Invalid_argument _ -> ()

let test_disabled_noop () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.disabled" in
  Metrics.reset ();
  Metrics.inc c;
  Metrics.add c 10;
  Alcotest.(check bool) "updates ignored while disabled" true
    (Metrics.get "test.disabled" = Some (Metrics.Counter 0));
  (* registration still lists the metric in the catalogue *)
  Alcotest.(check bool) "still registered" true
    (List.mem_assoc "test.disabled" (Metrics.snapshot ()))

let test_reset_keeps_registrations () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.reset" in
  Metrics.inc c;
  Metrics.reset ();
  Alcotest.(check bool) "zeroed but present" true
    (Metrics.get "test.reset" = Some (Metrics.Counter 0))

(* ------------------------------------------------------------------ *)
(* Trace *)

let depth_of ev =
  match Json.member "args" ev with
  | Some args -> (
    match Json.member "depth" args with Some (Json.Int d) -> d | _ -> -1)
  | None -> -1

let test_span_nesting () =
  with_trace @@ fun () ->
  let r =
    Trace.span "outer" (fun () ->
        Trace.span "inner" (fun () -> 7) + 10)
  in
  Alcotest.(check int) "span returns the thunk's value" 17 r;
  let evs = Trace.events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  (* chronological order: outer opened first *)
  let names =
    List.map
      (fun ev ->
        match Json.member "name" ev with Some (Json.Str s) -> s | _ -> "?")
      evs
  in
  Alcotest.(check (list string)) "start order" [ "outer"; "inner" ] names;
  Alcotest.(check (list int)) "nesting depth" [ 0; 1 ] (List.map depth_of evs);
  (* every event is a well-formed Chrome complete event *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "ph = X" true (Json.member "ph" ev = Some (Json.Str "X"));
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (Json.member key ev <> None))
        [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
    evs

let test_span_exception () =
  with_trace @@ fun () ->
  (try Trace.span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "event recorded despite raise" 1
    (List.length (Trace.events ()))

let test_trace_json_wellformed () =
  with_trace @@ fun () ->
  Trace.span "a" (fun () -> Trace.instant "mark");
  match Json.of_string (Json.to_string (Trace.to_json ())) with
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.List evs) -> Alcotest.(check int) "both events exported" 2 (List.length evs)
    | _ -> Alcotest.fail "traceEvents missing")
  | Error msg -> Alcotest.fail ("trace JSON does not reparse: " ^ msg)

let test_disabled_trace_noop () =
  Trace.set_enabled false;
  Trace.reset ();
  Alcotest.(check int) "disabled span records nothing"
    5 (Trace.span "quiet" (fun () -> 5));
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

(* ------------------------------------------------------------------ *)
(* Timeline *)

module Timeline = Spt_obs.Timeline

let test_timeline_multidomain () =
  let tl = Timeline.create () in
  (* the coordinator lane *)
  let t0 = Timeline.now () in
  Timeline.record tl Timeline.Commit ~lid:0 ~t0 ~t1:(t0 +. 0.25);
  (* two worker domains, each its own lane, no interleaving hazards *)
  let work k () =
    for i = 1 to 10 do
      let t0 = float_of_int (k * 100 + i) in
      Timeline.record tl Timeline.Exec ~lid:k ~t0 ~t1:(t0 +. 0.5)
    done
  in
  let d1 = Domain.spawn (work 1) and d2 = Domain.spawn (work 2) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "all events kept" 21 (Timeline.events tl);
  Alcotest.(check int) "nothing dropped" 0 (Timeline.dropped tl);
  let lanes = Timeline.summary tl in
  Alcotest.(check int) "three lanes" 3 (List.length lanes);
  (* per-kind sums are exact regardless of ring layout *)
  let total_exec =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc (k, s, _) -> if k = Timeline.Exec then acc +. s else acc)
          acc l.Timeline.ls_by_kind)
      0.0 lanes
  in
  Alcotest.(check (float 1e-9)) "exec sum exact" 10.0 total_exec;
  let n_seen = ref 0 in
  Timeline.iter_events tl (fun _ ~lane:_ ~lid:_ ~t0 ~t1 ->
      incr n_seen;
      Alcotest.(check bool) "span has extent" true (t1 > t0));
  Alcotest.(check int) "iter_events visits all" 21 !n_seen

let test_timeline_capacity () =
  let tl = Timeline.create ~capacity:16 () in
  for i = 0 to 99 do
    Timeline.record tl Timeline.Validate ~lid:0 ~t0:(float_of_int i)
      ~t1:(float_of_int i +. 1.0)
  done;
  Alcotest.(check int) "every record counted" 100 (Timeline.events tl);
  Alcotest.(check int) "overflow counted" 84 (Timeline.dropped tl);
  let detail = ref 0 in
  Timeline.iter_events tl (fun _ ~lane:_ ~lid:_ ~t0:_ ~t1:_ -> incr detail);
  Alcotest.(check int) "detail capped at capacity" 16 !detail;
  (* sums stay exact even past capacity *)
  match Timeline.summary tl with
  | [ lane ] ->
    Alcotest.(check (float 1e-9)) "busy time exact" 100.0 lane.Timeline.ls_busy_s
  | lanes -> Alcotest.fail (Printf.sprintf "%d lanes" (List.length lanes))

let test_timeline_trace_roundtrip () =
  with_trace @@ fun () ->
  Trace.span "run.parallel" (fun () -> ());
  let tl = Timeline.create () in
  let epoch = Trace.epoch_s () in
  Timeline.record tl Timeline.Fork ~lid:3 ~t0:(epoch +. 0.1) ~t1:(epoch +. 0.2);
  Timeline.record tl Timeline.Rollback ~lid:3 ~t0:(epoch +. 0.3)
    ~t1:(epoch +. 0.4);
  Trace.append_events (Timeline.to_trace_events ~epoch tl);
  (* the merged file must still parse as Chrome trace_events JSON *)
  let tmp = Filename.temp_file "spt_test_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Trace.to_file tmp;
  let ic = open_in_bin tmp in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string raw with
  | Error msg -> Alcotest.fail ("trace file does not reparse: " ^ msg)
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.List evs) ->
      Alcotest.(check int) "pipeline span + 2 timeline spans" 3
        (List.length evs);
      let name ev =
        match Json.member "name" ev with Some (Json.Str s) -> s | _ -> "?"
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true
            (List.exists (fun ev -> name ev = n) evs))
        [ "run.parallel"; "fork"; "rollback" ];
      (* timeline lanes live on distinct tids with µs timestamps *)
      List.iter
        (fun ev ->
          if name ev = "fork" then begin
            (match Json.member "ts" ev with
            | Some (Json.Float ts) ->
              Alcotest.(check bool) "ts is relative µs" true
                (ts > 0.0 && ts < 1e6)
            | _ -> Alcotest.fail "ts missing");
            match Json.member "args" ev with
            | Some args ->
              Alcotest.(check bool) "loop id carried" true
                (Json.member "loop" args = Some (Json.Int 3))
            | None -> Alcotest.fail "args missing"
          end)
        evs
    | _ -> Alcotest.fail "traceEvents missing")

(* ------------------------------------------------------------------ *)
(* Log *)

let test_log_levels () =
  let saved = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level saved) @@ fun () ->
  Log.set_level Log.Warn;
  Alcotest.(check bool) "warn on at warn" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "info off at warn" false (Log.enabled Log.Info);
  Log.set_level Log.Debug;
  Alcotest.(check bool) "info on at debug" true (Log.enabled Log.Info);
  List.iter
    (fun l ->
      Alcotest.(check bool) "name roundtrips" true
        (Log.level_of_string (Log.string_of_level l) = Ok l))
    [ Log.Error; Log.Warn; Log.Info; Log.Debug ];
  Alcotest.(check bool) "case-insensitive" true
    (Log.level_of_string "DEBUG" = Ok Log.Debug);
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Log.level_of_string "loud"))

(* ------------------------------------------------------------------ *)
(* Pipeline integration: the counters wired through the compiler fire *)

let obs_program =
  {|
int n = 1200;
int a[1200];
int b[1200];
int hist[64];
int checksum;

int mixer(int x) { return (x * 73 + 11) & 1023; }

void main() {
  int i;
  srand(17);
  for (i = 0; i < n; i = i + 1) { b[i] = rand() & 1023; }
  for (i = 0; i < n; i = i + 1) { a[i] = mixer(b[i]) + (b[i] >> 3); }
  for (i = 0; i < 64; i = i + 1) { hist[i] = 0; }
  for (i = 0; i < n; i = i + 1) {
    int h = a[i] & 63;
    hist[h] = hist[h] + 1;
  }
  checksum = hist[0] + hist[63] + a[n - 1];
  print_int(checksum);
}
|}

let counter_value name =
  match Metrics.get name with
  | Some (Metrics.Counter v) -> v
  | _ -> Alcotest.fail (name ^ " is not a registered counter")

let test_pipeline_counters () =
  with_metrics @@ fun () ->
  let e =
    Spt_driver.Pipeline.evaluate ~config:Spt_driver.Config.best obs_program
  in
  Alcotest.(check bool) "outputs match" true e.Spt_driver.Pipeline.outputs_match;
  Alcotest.(check bool) "something selected" true
    (e.Spt_driver.Pipeline.n_spt_loops > 0);
  (* pass-1 / pass-2 bookkeeping *)
  Alcotest.(check bool) "pass-1 saw candidates" true
    (counter_value "pipeline.pass1_candidates" > 0);
  Alcotest.(check bool) "pass-2 selected" true
    (counter_value "pipeline.pass2_selected" > 0);
  (* the stages underneath actually ran *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " fired") true (counter_value name > 0))
    [
      "partition.searches";
      "partition.nodes_explored";
      "cost.graph_nodes";
      "depgraph.edges";
      "interp.steps";
      "tlsim.instances";
      "tlsim.iterations";
    ];
  (* the full catalogue is present even where this program scores zero *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Metrics.get name <> None))
    [
      "partition.pruned_by_bound";
      "partition.pruned_by_threshold";
      "svp.candidates_tried";
      "svp.applied";
      "tlsim.misspeculations";
      "tlsim.kills";
    ];
  (* and the machine-readable report carries it all, re-loadable *)
  let report = Spt_driver.Report.metrics_json [ ("obs", e) ] in
  match Json.of_string (Json.to_string report) with
  | Error msg -> Alcotest.fail ("metrics JSON does not reparse: " ^ msg)
  | Ok j ->
    Alcotest.(check bool) "schema tag" true
      (Json.member "schema" j = Some (Json.Str "spt-metrics-v1"));
    let counters =
      match Json.member "counters" j with
      | Some c -> c
      | None -> Alcotest.fail "counters object missing"
    in
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " in dump") true
          (Json.member name counters <> None))
      [
        "pipeline.pass1_candidates";
        "pipeline.pass2_selected";
        "partition.nodes_explored";
        "svp.candidates_tried";
        "tlsim.misspeculations";
      ]

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json non-finite" `Quick test_json_nonfinite;
    Alcotest.test_case "json writer = reference" `Quick
      test_json_writer_matches_reference;
    Alcotest.test_case "json reader = reference" `Quick
      test_json_reader_matches_reference;
    Alcotest.test_case "json raw leaf" `Quick test_json_raw;
    Alcotest.test_case "json equal_minified = equal texts" `Quick
      test_json_equal_minified;
    Alcotest.test_case "json nesting bound" `Quick test_json_depth_bound;
    Alcotest.test_case "counter accumulation" `Quick test_counter_accumulation;
    Alcotest.test_case "histogram accumulation" `Quick test_histogram_accumulation;
    Alcotest.test_case "histogram quantiles" `Quick test_hist_quantiles;
    Alcotest.test_case "metrics delta" `Quick test_metrics_delta;
    Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "disabled metrics no-op" `Quick test_disabled_noop;
    Alcotest.test_case "reset keeps registrations" `Quick test_reset_keeps_registrations;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span on exception" `Quick test_span_exception;
    Alcotest.test_case "trace json wellformed" `Quick test_trace_json_wellformed;
    Alcotest.test_case "disabled trace no-op" `Quick test_disabled_trace_noop;
    Alcotest.test_case "timeline multi-domain" `Quick test_timeline_multidomain;
    Alcotest.test_case "timeline capacity" `Quick test_timeline_capacity;
    Alcotest.test_case "timeline trace roundtrip" `Quick test_timeline_trace_roundtrip;
    Alcotest.test_case "log levels" `Quick test_log_levels;
    Alcotest.test_case "pipeline counters" `Slow test_pipeline_counters;
  ]
