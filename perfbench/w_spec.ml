(* spec_run: compiled programs executed for real.  Each program is
   compiled once during set-up (Pipeline.compile_spt); the measured part
   alternates a sequential run on the bytecode engine with a speculative
   run on the OCaml 5 runtime.  The programs cover each runtime path:
   commit and pipelining (pipeline.c), value prediction
   (accumulator.c), and violation → rollback → serial re-execution
   (feedback_loop.c, suite bzip2 and twolf).  The seed draws the visit
   order and which run of each pair goes first. *)

open Spt_driver
module R = Spt_runtime.Runtime
module Tl = Spt_obs.Timeline
module Tls = Spt_tlsim.Tls_machine

let programs = [ `File "pipeline.c"; `File "accumulator.c"; `File "feedback_loop.c"; `Suite "bzip2"; `Suite "twolf" ]
let tiny_programs = [ `File "pipeline.c"; `File "accumulator.c"; `File "feedback_loop.c" ]

(* the master plus its workers fit the cores *)
let jobs = max 1 (Common.cores - 1)

type prog = {
  name : string;
  reference : string;
  program : Spt_ir.Ir.program;
  loops : R.loop_spec list;
}

type state = { progs : prog array; first_seq : bool array }

(* the loop specs Pipeline.run_parallel hands the runtime *)
let loop_specs (spt : Pipeline.spt_compilation) =
  List.map
    (fun (sl : Tls.spt_loop) ->
      let record =
        List.find_opt
          (fun (r : Pipeline.loop_record) ->
            String.equal r.Pipeline.lr_func sl.Tls.sl_fname && r.Pipeline.lr_header = sl.Tls.sl_header)
          spt.Pipeline.records
      in
      {
        R.ls_id = sl.Tls.sl_id;
        ls_fname = sl.Tls.sl_fname;
        ls_header = sl.Tls.sl_header;
        ls_iter_ops = (match record with Some r -> r.Pipeline.lr_body_size | None -> 0.0);
        ls_depth = (match record with Some r -> r.Pipeline.lr_depth | None -> 0);
      })
    spt.Pipeline.spt_loops

let setup (s : Common.settings) =
  let chosen = if s.tiny then tiny_programs else programs in
  let order = Common.shuffle (Common.rng ~seed:s.seed ~salt:2) chosen in
  let progs =
    List.map
      (fun p ->
        let name, src =
          match p with
          | `File f -> (f, Common.read_program f)
          | `Suite n -> (n, (Spt_workloads.Suite.find n).Spt_workloads.Suite.source)
        in
        let spt = Pipeline.compile_spt Config.best src in
        { name; reference = Common.reference src; program = spt.Pipeline.program; loops = loop_specs spt })
      order
  in
  let r = Common.rng ~seed:s.seed ~salt:3 in
  { progs = Array.of_list progs; first_seq = Array.init 4096 (fun _ -> Spt_fuzz.Gen.int_below r 2 = 0) }

let inputs st = Array.to_list (Array.map (fun p -> p.name) st.progs)

let runtime_config timeline =
  { (R.default_config ()) with R.oracle = false; jobs; window = 2 * jobs; timeline }

type sample = {
  prog : int;
  par : bool;
  traced : bool;
  ms : float;
  instrs : int;
  result : (R.result * Tl.t) option;  (* traced speculative runs *)
}

let measure (s : Common.settings) st =
  let np = Array.length st.progs in
  let samples = ref [] and failed = ref 0 and runs = ref 0 in
  let run_one k ~par ~traced =
    let p = st.progs.(k) in
    incr runs;
    (* no run pays for the previous run's garbage *)
    Gc.full_major ();
    let t0 = Common.now () in
    let outcome =
      try
        Ok
          (if not par then begin
             let r =
               Spans.span "op.run_seq" (fun () ->
                   Spans.span "exec.run" (fun () ->
                       Spt_exec.Engine.run ~max_steps:(runtime_config None).R.max_steps p.program))
             in
             (r.Spt_interp.Interp.output, r.Spt_interp.Interp.dynamic_instrs, None)
           end
           else if traced then
             Spans.span "op.run_par" (fun () ->
                 Spans.with_id "runtime.run" (fun id ->
                     let tl = Tl.create () in
                     let r = R.run ~config:(runtime_config (Some tl)) ~loops:p.loops p.program in
                     Spans.import_timeline ~parent:id tl;
                     (r.R.output, r.R.dynamic_instrs, Some (r, tl))))
           else begin
             let r = R.run ~config:(runtime_config None) ~loops:p.loops p.program in
             (r.R.output, r.R.dynamic_instrs, None)
           end)
      with e -> Error (Printexc.to_string e)
    in
    let ms = (Common.now () -. t0) *. 1000.0 in
    match outcome with
    | Ok (out, instrs, result) when String.equal out p.reference ->
      samples := { prog = k; par; traced; ms; instrs; result } :: !samples
    | Ok _ ->
      Printf.eprintf "spec_run: %s %s output differs from the reference\n%!" p.name
        (if par then "speculative" else "sequential");
      incr failed
    | Error msg ->
      Printf.eprintf "spec_run: %s raised %s\n%!" p.name msg;
      incr failed
  in
  let op i =
    let k = i mod np in
    let traced = Common.traced_op s ~np i in
    Spans.on := traced;
    let seq_first = st.first_seq.(i mod Array.length st.first_seq) in
    run_one k ~par:(not seq_first) ~traced;
    run_one k ~par:seq_first ~traced;
    Spans.on := false
  in
  let min_ops = if s.trace then 2 * np else np in
  ignore (Common.measure_loop ~seconds:s.seconds ~min_ops op);
  Spans.on := s.trace;
  let samples = List.rev !samples in
  let medians ~par ~traced =
    Common.program_medians ~np
      ~name:(fun k -> st.progs.(k).name)
      (fun k ->
        List.filter_map
          (fun x -> if x.prog = k && x.par = par && x.traced = traced then Some x.ms else None)
          samples)
  in
  let par_med = medians ~par:true ~traced:false in
  let seq_med = medians ~par:false ~traced:false in
  let run_par = Stat.geomean (List.map snd par_med) in
  let run_seq = Stat.geomean (List.map snd seq_med) in
  let tail = List.fold_left (fun m (_, x) -> Float.max m x) 0.0 par_med in
  let layers =
    if not s.trace then []
    else begin
      let seqs = List.filter (fun x -> not x.par) samples in
      let traced_par = List.filter_map (fun x -> x.result |> Option.map (fun r -> (x, r))) samples in
      let n = float_of_int (max 1 (List.length traced_par)) in
      let per_run f = List.fold_left (fun a (_, (r, _)) -> a +. f r) 0.0 traced_par /. n in
      let count f =
        per_run (fun r -> float_of_int (List.fold_left (fun a (_, st) -> a + f st) 0 r.R.stats))
      in
      let svp sel = per_run (fun r ->
          float_of_int (List.fold_left (fun a (_, st) -> let p, h, _ = R.svp_totals st in a + sel (p, h)) 0 r.R.stats)) in
      let bucket kind =
        List.fold_left
          (fun a (_, (_, tl)) ->
            List.fold_left
              (fun a (l : Tl.lane_summary) ->
                List.fold_left (fun a (k, sec, _) -> if k = kind then a +. sec else a) a l.Tl.ls_by_kind)
              a (Tl.summary tl))
          0.0 traced_par
        *. 1000.0 /. n
      in
      let master_idle =
        List.fold_left
          (fun a ((x : sample), (_, tl)) ->
            let busy =
              match Tl.summary tl with l :: _ when l.Tl.ls_lane = 0 -> l.Tl.ls_busy_s | _ -> 0.0
            in
            a +. x.ms -. (busy *. 1000.0))
          0.0 traced_par
        /. n
      in
      let forks = count (fun st -> st.R.forks) in
      let predicts = svp fst in
      let seq_ms = List.fold_left (fun a x -> a +. x.ms) 0.0 seqs in
      let seq_instrs = List.fold_left (fun a x -> a + x.instrs) 0 seqs in
      [
        ("exec.ns_per_instr", Stat.ratio (seq_ms *. 1e6) (float_of_int seq_instrs));
        ("exec.dynamic_instrs", float_of_int seq_instrs /. float_of_int (max 1 (List.length seqs)));
        ("runtime.forks", forks);
        ("runtime.commits", count (fun st -> st.R.commits));
        ("runtime.violations", count (fun st -> st.R.violations));
        ("runtime.kills", count (fun st -> st.R.kills));
        ("runtime.serial_reexecs", count (fun st -> st.R.serial_reexecs));
        ("runtime.despecs", count (fun st -> st.R.despecs));
        ("runtime.commit_ratio", Stat.ratio (count (fun st -> st.R.commits)) forks);
        ("runtime.svp_predicts", predicts);
        ("runtime.svp_hit_ratio", Stat.ratio (svp snd) predicts);
        ("runtime.dispatch_ms", bucket Tl.Exec);
        ("runtime.chunk_ms", bucket Tl.Chunk);
        ("runtime.svp_ms", bucket Tl.Svp);
        ("runtime.fork_ms", bucket Tl.Fork);
        ("runtime.validate_ms", bucket Tl.Validate);
        ("runtime.commit_ms", bucket Tl.Commit);
        ("runtime.rollback_ms", bucket Tl.Rollback);
        ("runtime.reexec_ms", bucket Tl.Reexec);
        ("runtime.compile_ms", bucket Tl.Compile);
        ("runtime.master_idle_ms", master_idle);
        ("trace.overhead_frac", Common.overhead ~traced:(medians ~par:true ~traced:true) ~untraced:par_med);
      ]
    end
  in
  let ms_obj l = Spt_obs.Json.Obj (List.map (fun (k, v) -> (k, Spt_obs.Json.Float v)) l) in
  {
    Common.attempted = !runs;
    failed = !failed;
    e2e =
      [
        ("latency_ms", run_par);
        ("tail_ms", tail);
        (* runs per second of run time: the forced collections between
           runs are harness time *)
        ("throughput_per_s", 1000.0 /. Common.mean_by (fun x -> x.ms) samples);
      ];
    named =
      [ ("run_seq_ms", run_seq, "ms"); ("run_par_ms", run_par, "ms"); ("speedup", Stat.ratio run_seq run_par, "x") ];
    layers;
    detail =
      [
        ("programs", Spt_obs.Json.List (List.map (fun n -> Spt_obs.Json.Str n) (inputs st)));
        ("jobs", Spt_obs.Json.Int jobs);
        ("seq_median_ms", ms_obj seq_med);
        ("par_median_ms", ms_obj par_med);
        ( "samples_ms",
          Spt_obs.Json.Obj
            (List.map
               (fun k ->
                 ( st.progs.(k).name,
                   Spt_obs.Json.List
                     (List.filter_map
                        (fun x ->
                          if x.prog = k && not x.traced then
                            Some (Spt_obs.Json.Str (Printf.sprintf "%s%.1f" (if x.par then "p" else "s") x.ms))
                          else None)
                        samples) ))
               (List.init np Fun.id)) );
      ];
  }
