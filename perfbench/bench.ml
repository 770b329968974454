(* perfbench: the repeatable benchmark of the SPT compiler, its
   speculative runtime and its compile server.

     dune exec ./perfbench/bench.exe -- --workload W --seed N --seconds S --trace 0|1
     dune exec ./perfbench/bench.exe -- --self-test

   Run from the repository root.  BENCHMARK.json names the workloads
   and the metrics with their units; the last stdout line is the
   result object.  See perfbench/README.md. *)

module Json = Spt_obs.Json

let catalogue_file = "BENCHMARK.json"

type catalogue = {
  workloads : (string * string) list;  (* name, why *)
  end_to_end : (string * string) list;  (* name, unit *)
  per_layer : (string * string) list;
}

let load_catalogue () =
  let j =
    match Json.of_string (In_channel.with_open_bin catalogue_file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (catalogue_file ^ ": " ^ e)
  in
  let entries key fields =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun e ->
          match List.map (fun f -> Json.member f e) fields with
          | [ Some (Json.Str a); Some (Json.Str b) ] -> (a, b)
          | _ -> failwith (catalogue_file ^ ": malformed " ^ key))
        l
    | _ -> failwith (catalogue_file ^ ": missing " ^ key)
  in
  {
    workloads = entries "workloads" [ "name"; "why" ];
    end_to_end = entries "end_to_end" [ "name"; "unit" ];
    per_layer = entries "per_layer" [ "name"; "unit" ];
  }

(* A workload: set up from the settings, then measure.  [inputs] is the
   seeded draw, rendered (what the self-test compares). *)
type workload = Common.settings -> string list * (unit -> Common.outcome)

let workloads : (string * workload) list =
  [
    ("spec_run", fun s -> let st = W_spec.setup s in (W_spec.inputs st, fun () -> W_spec.measure s st));
    ("serve_mix", fun s -> let st = W_serve.setup s in (W_serve.inputs st, fun () -> W_serve.measure s st));
  ]

type result = {
  json : Json.t;  (* the last stdout line *)
  lines : string list;  (* human-readable report *)
  record : Json.t;  (* the results file *)
  produced : (string * float) list;  (* every metric the workload produced *)
}

let metric_obj cat values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Json.Obj
             [
               ("value", Json.Float (Option.value ~default:0.0 (List.assoc_opt name values)));
               ("unit", Json.Str unit);
             ] ))
       cat)

let run_workload cat (s : Common.settings) name =
  let workload = List.assoc name workloads in
  Spans.reset ();
  Spans.on := false;
  (* set up several times; the median is setup_s, the last set-up is
     the one measured *)
  let setups = List.init (if s.tiny then 1 else 3) (fun _ -> Gc.compact (); Common.timed (fun () -> workload s)) in
  let setup_s = Stat.median (List.map snd setups) in
  let inputs, measure = fst (List.nth setups (List.length setups - 1)) in
  Gc.compact ();
  Common.heap_peak := 0;
  Common.sample_heap ();
  let o = measure () in
  let peak = Common.peak_heap_mb () in
  let fail_frac = Stat.ratio (float_of_int o.Common.failed) (float_of_int o.Common.attempted) in
  let ledger =
    if not s.trace then []
    else begin
      let wall, explained, n = Spans.ledger ~containers:[ "runtime.run" ] (Spans.all ()) in
      let per_op x = x *. 1000.0 /. float_of_int (max 1 n) in
      [
        ("ledger.explained_frac", Stat.ratio explained wall);
        ("ledger.unexplained_ms", per_op (wall -. explained));
        ("ledger.wall_ms", per_op wall);
      ]
    end
  in
  let layers = if s.trace then o.Common.layers @ Micro.metrics ~jobs:W_spec.jobs @ ledger else [] in
  let e2e = ("setup_s", setup_s) :: ("peak_heap_mb", peak) :: o.Common.e2e in
  let produced = if s.trace then layers else e2e in
  let metrics = metric_obj (if s.trace then cat.per_layer else cat.end_to_end) produced in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (o.Common.failed = 0 && o.Common.attempted > 0));
        ("attempted", Json.Int o.Common.attempted);
        ("failed", Json.Int o.Common.failed);
        ("metrics", metrics);
      ]
  in
  let line (k, v, u) = Printf.sprintf "  %-28s %14.4f %s" k v u in
  let lines =
    Printf.sprintf "perfbench %s: seed %d, %.0f s, trace %d, %d cores, %d runtime jobs, OCaml %s" name s.seed s.seconds
      (Bool.to_int s.trace) Common.cores W_spec.jobs Sys.ocaml_version
    :: List.map line
         ([ ("setup_s", setup_s, "s"); ("fail_frac", fail_frac, "fraction"); ("peak_heap_mb", peak, "MB") ]
         @ o.Common.named
         @ List.map (fun (k, v) -> (k, v, Option.value ~default:"" (List.assoc_opt k cat.end_to_end))) o.Common.e2e
         @ List.map (fun (k, v) -> (k, v, Option.value ~default:"?" (List.assoc_opt k cat.per_layer))) layers)
  in
  let record =
    Json.Obj
      ([
         ("workload", Json.Str name);
         ("why", Json.Str (Option.value ~default:"" (List.assoc_opt name cat.workloads)));
         ("seed", Json.Int s.seed);
         ("seconds", Json.Float s.seconds);
         ("trace", Json.Bool s.trace);
         ("cores", Json.Int Common.cores);
         ("jobs", Json.Int W_spec.jobs);
         ("ocaml", Json.Str Sys.ocaml_version);
         ("inputs_digest", Json.Str (Digest.to_hex (Digest.string (String.concat "\n" inputs))));
         ("fail_frac", Json.Float fail_frac);
         ("named", Json.Obj (List.map (fun (k, v, _) -> (k, Json.Float v)) o.Common.named));
         ("result", json);
       ]
      @ o.Common.detail)
  in
  { json; lines; record; produced }

let write_outputs name (s : Common.settings) r =
  Common.ensure_out_dir ();
  let base = Filename.concat Common.out_dir (Printf.sprintf "%s-seed%d-trace%d" name s.seed (Bool.to_int s.trace)) in
  Json.to_file (base ^ ".json") r.record;
  if s.trace then Json.to_file (base ^ ".trace.json") (Spans.to_json (Spans.all ()))

(* ------------------------------------------------------------------ *)
(* Self-test: every workload runs in a tiny size, reports every metric
   with its unit and fails nothing; a seed reproduces its inputs byte
   for byte and another seed changes them. *)

let self_test cat =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let settings ?(seed = 7) trace = { Common.seed; seconds = 0.5; trace; tiny = true } in
  List.iter
    (fun (name, (w : workload)) ->
      check (name ^ " is listed in " ^ catalogue_file) (List.mem_assoc name cat.workloads);
      let a, _ = w (settings false) and b, _ = w (settings false) and c, _ = w (settings ~seed:8 false) in
      check (name ^ ": the same seed gives byte-identical inputs") (a = b);
      if name = "serve_mix" then check (name ^ ": another seed gives another request stream") (a <> c);
      List.iter
        (fun trace ->
          let s = settings trace in
          let r = run_workload cat s name in
          let tag = Printf.sprintf "%s (trace %d)" name (Bool.to_int trace) in
          let expected = if trace then cat.per_layer else cat.end_to_end in
          let metrics = match Json.member "metrics" r.json with Some (Json.Obj m) -> m | _ -> [] in
          check (tag ^ ": every metric appears with its unit")
            (List.for_all
               (fun (m, u) ->
                 match List.assoc_opt m metrics with
                 | Some v -> Json.member "unit" v = Some (Json.Str u)
                 | None -> false)
               expected
            && List.length metrics = List.length expected);
          List.iter
            (fun (m, _) -> if not (List.mem_assoc m expected) then check (tag ^ ": produces unlisted metric " ^ m) false)
            r.produced;
          check (tag ^ ": fail_frac is 0")
            (Json.member "failed" r.json = Some (Json.Int 0) && Json.member "correct" r.json = Some (Json.Bool true)))
        [ false; true ])
    workloads;
  Printf.printf "self-test: %s\n" (if !failures = 0 then "pass" else Printf.sprintf "%d failure(s)" !failures);
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run (see BENCHMARK.json)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run: per-layer metrics");
      ("--self-test", Arg.Set selftest, " run every workload in a tiny size and check the report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test";
  let cat = load_catalogue () in
  if !selftest then self_test cat;
  if not (List.mem_assoc !workload workloads && List.mem_assoc !workload cat.workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let s = { Common.seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = false } in
  let r = run_workload cat s !workload in
  List.iter print_endline r.lines;
  write_outputs !workload s r;
  print_endline (Json.to_string ~minify:true r.json)
