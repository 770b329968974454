(** [sptc] — the SPT compiler driver.

    Subcommands:
    - [run FILE]       interpret a MiniC program
    - [dump-ir FILE]   print the IR (optionally in optimized SSA form)
    - [loops FILE]     list loops with their dependence/cost analysis
    - [compile FILE]   run the full cost-driven SPT pipeline and report
    - [workload NAME]  evaluate one of the built-in SPEC-like workloads
    - [batch FILES…]   compile many programs concurrently, cache-warm
    - [top FILE]       render a JSON report as aligned text tables
    - [serve]          line-delimited JSON compile service on stdin
    - [profile FILE]   persist edge/dep/value profiles to a store
    - [profdb]         inspect/export/gc the shared profile database
    - [adapt FILE]     compile → run → re-partition until convergence
    - [fuzz]           differential fuzzing across all execution paths
*)

open Cmdliner
module Json = Spt_obs.Json
module Profile_store = Spt_profile.Profile_store

(* one version string for the tool and every subcommand, so both
   [sptc --version] and [sptc run --version] answer; it is also mixed
   into artifact-cache keys, so bumping it invalidates stale caches *)
let version = Spt_service.Cached.tool_version

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let handle_errors f =
  try f () with
  | Spt_srclang.Lexer.Lex_error (msg, loc) ->
    Format.eprintf "lexical error at %a: %s@." Spt_srclang.Ast.pp_loc loc msg;
    exit 1
  | Spt_srclang.Parser.Parse_error (msg, loc) ->
    Format.eprintf "syntax error at %a: %s@." Spt_srclang.Ast.pp_loc loc msg;
    exit 1
  | Spt_srclang.Typecheck.Type_error (msg, loc) ->
    Format.eprintf "type error at %a: %s@." Spt_srclang.Ast.pp_loc loc msg;
    exit 1
  | Spt_ir.Lower.Lower_error msg ->
    Format.eprintf "lowering error: %s@." msg;
    exit 1
  | Spt_interp.Interp.Runtime_error msg ->
    Format.eprintf "runtime error: %s@." msg;
    exit 1
  | Sys_error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")

let config_arg =
  let config_enum =
    Arg.enum
      (List.map (fun (c : Spt_driver.Config.t) -> (c.Spt_driver.Config.name, c))
         Spt_driver.Config.all)
  in
  Arg.(
    value
    & opt config_enum Spt_driver.Config.best
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"Compiler configuration: basic, best or anticipated")

(* ------------------------------------------------------------------ *)
(* Speculative-run flags: --chunk, --depth.  Validated manually
   (stderr + exit 2) so bad values report like the other usage
   errors. *)

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"N"
        ~doc:
          "With $(b,--parallel): iterations each speculative fork covers \
           (default: auto-sized from the cost model's per-iteration \
           estimate)")

let validate_chunk = function
  | Some n when n <= 0 ->
    Format.eprintf "error: --chunk must be at least 1 (got %d)@." n;
    exit 2
  | c -> c

let depth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "depth" ] ~docv:"K"
        ~doc:
          "Speculative iterations/chunks in flight at once (K-deep \
           pipelining).  Default: picked per loop by the cost model from \
           the expected kill-cascade cost.  Forcing a depth also scales \
           the selector's misspeculation pricing and is part of the \
           artifact-cache key.")

(* resolve --depth into the compiler configuration: it is part of the
   cache key, like every other config field, and a forced depth also
   changes the selector's misspeculation pricing *)
let resolve_depth config = function
  | None -> config
  | Some k when k <= 0 ->
    Format.eprintf "error: --depth must be at least 1 (got %d)@." k;
    exit 2
  | Some k -> { config with Spt_driver.Config.depth = Some k }

(* ------------------------------------------------------------------ *)
(* Artifact-cache flags: --cache-dir, --no-cache *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Artifact-cache directory (default: $(b,SPT_CACHE_DIR), \
           $(b,XDG_CACHE_HOME)/spt or ~/.cache/spt)")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the artifact cache (always recompile, never store)")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Bound the on-disk cache footprint; least-recently-used entries \
           are evicted before a store that would exceed it")

let cache_max_entries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-entries" ] ~docv:"N"
        ~doc:"Bound the on-disk cache entry count (LRU eviction)")

let make_cache ?max_bytes ?max_entries ~cache_dir ~no_cache () =
  if no_cache then Spt_service.Artifact_cache.no_cache ()
  else
    Spt_service.Artifact_cache.create ?dir:cache_dir ?max_bytes ?max_entries ()

(* ------------------------------------------------------------------ *)
(* Profile-database flags.  The database lives under the cache dir
   (spt-profdb-v1/) and follows --cache-dir / --no-cache. *)

let profdb_max_entries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "profdb-max-entries" ] ~docv:"N"
        ~doc:
          "Bound the profile-database entry count (least-recently-updated \
           entries are evicted on ingest)")

(* the database an enabled cache implies: shares its directory, stamps
   entries with this tool version *)
let make_profdb ?max_entries cache =
  Spt_profdb.Profdb.for_cache ?max_entries ~tool:version
    (Spt_service.Artifact_cache.dir cache)

(* ------------------------------------------------------------------ *)
(* Persistent-profile flags: --profile-in (guided compiles) *)

let profile_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-in" ] ~docv:"FILE"
        ~doc:
          "Seed the compilation from a persistent profile store \
           ($(b,spt-profile-v1), written by $(b,sptc profile) / $(b,sptc run \
           --feedback-out)); its runtime telemetry overrides diverging \
           violation probabilities, and its digest keys the artifact cache. \
           A $(docv) that does not exist is a usage error")

(* a named store must exist (exit 2 otherwise); callers run this after
   their other flag checks *)
let load_profile =
  Option.map (fun path ->
      match Profile_store.load_explicit path with
      | Ok store -> store
      | Error msg ->
        Format.eprintf "error: --profile-in %s@." msg;
        exit 2)

(* ------------------------------------------------------------------ *)
(* Observability flags: --trace, --metrics, --log-level *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_events JSON of the pipeline phases to $(docv) \
           (open in chrome://tracing, Perfetto or speedscope)")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable JSON summary (speedup, loop breakdown, \
           full counter dump) to $(docv)")

let log_level_arg =
  let level_conv =
    Arg.conv
      ( (fun s ->
          match Spt_obs.Log.level_of_string s with
          | Ok l -> Ok l
          | Error msg -> Error (`Msg msg)),
        fun ppf l -> Format.pp_print_string ppf (Spt_obs.Log.string_of_level l)
      )
  in
  Arg.(
    value
    & opt (some level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Log verbosity: error, warn, info or debug (overrides the SPT_LOG \
           and SPT_DEBUG environment variables)")

(** Apply the observability flags; returns a [finish] function to call
    after the work, which writes the requested artifact files.  [finish]
    takes already-rendered {!Spt_driver.Report.eval_json} objects so
    cache-warm paths (which have no live [Pipeline.eval]) can feed
    [--metrics] too. *)
let setup_obs trace metrics log_level =
  Option.iter Spt_obs.Log.set_level log_level;
  if trace <> None then Spt_obs.Trace.set_enabled true;
  if metrics <> None then Spt_obs.Metrics.set_enabled true;
  fun ?(runtime = []) (evals : Json.t list) ->
    Option.iter
      (fun path ->
        Json.to_file path (Spt_driver.Report.metrics_json_of ~runtime evals);
        Spt_obs.Log.info "metrics written to %s" path)
      metrics;
    Option.iter
      (fun path ->
        Spt_obs.Trace.to_file path;
        Spt_obs.Log.info "trace written to %s" path)
      trace

let run_cmd =
  let parallel_flag =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:
            "SPT-compile the program and execute it for real on the \
             speculative multicore runtime (OCaml 5 domains), with a \
             sequential-equivalence oracle")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains wanted for $(b,--parallel) (defaults to \
             $(b,SPT_JOBS) or 1); the sequential thread runs chunks too, \
             so at most one fewer than the cores start")
  in
  let feedback_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "feedback-out" ] ~docv:"FILE"
          ~doc:
            "With $(b,--parallel): merge this run's per-loop misspeculation \
             telemetry into the profile store at $(docv) (created when \
             missing), for later profile-guided compiles")
  in
  let attrib_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attrib" ] ~docv:"FILE"
          ~doc:
            "With $(b,--parallel): write an overhead-attribution report \
             (schema $(b,spt-attrib-v1)) to $(docv) — per-domain wall-time \
             buckets over the speculation lifecycle, iteration-latency \
             percentiles and the predicted-vs-measured speedup gap; render \
             it with $(b,sptc top)")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "With $(b,--parallel): use the shared profile database under \
             $(docv) — the compile is guided by the accumulated profile \
             for this program (unless $(b,--profile-in) overrides it) and \
             the run's misspeculation telemetry is ingested back \
             afterwards, so repeated runs keep getting better")
  in
  let run file parallel jobs config chunk depth profile_in cache_dir
      feedback_out attrib trace metrics log_level =
    handle_errors (fun () ->
        let finish = setup_obs trace metrics log_level in
        let chunk = validate_chunk chunk in
        if not parallel then
          List.iter
            (fun (flag, given) ->
              if given then begin
                Format.eprintf "error: %s requires --parallel@." flag;
                exit 2
              end)
            [
              ("--depth", depth <> None);
              ("--feedback-out", feedback_out <> None);
              ("--attrib", attrib <> None);
              ("--chunk", chunk <> None);
              ("--cache-dir", cache_dir <> None);
              ("--profile-in", profile_in <> None);
            ];
        let config = resolve_depth config depth in
        if not parallel then begin
          let src = read_file file in
          let r = Spt_exec.Engine.run (Spt_driver.Pipeline.front_end src) in
          print_string r.Spt_interp.Interp.output;
          Format.printf "; %d instructions executed@."
            r.Spt_interp.Interp.dynamic_instrs;
          finish []
        end
        else begin
          let explicit = load_profile profile_in in
          let src = read_file file in
          let db = Spt_profdb.Profdb.for_cache ~tool:version cache_dir in
          let fingerprint =
            if Spt_profdb.Profdb.enabled db then
              Some (Spt_service.Fingerprint.source src)
            else None
          in
          (* an explicit --profile-in always wins; otherwise the profile
             database's accumulated entry guides the compile *)
          let profile, db_gen =
            match fingerprint with
            | Some fp -> Spt_profdb.Profdb.guide db ~fingerprint:fp explicit
            | None -> (explicit, None)
          in
          let timeline =
            Option.map (fun _ -> Spt_obs.Timeline.create ()) attrib
          in
          let runtime_config =
            {
              (Spt_runtime.Runtime.default_config ?jobs ()) with
              chunk;
              timeline;
            }
          in
          let pr =
            Spt_driver.Pipeline.run_parallel ~config ~runtime_config ?profile
              src
          in
          Option.iter
            (fun path ->
              let tl = Option.get timeline in
              (* the TLS simulator's predicted speedup for the build
                 that ran, so the report can state the gap *)
              let predicted =
                (Spt_driver.Pipeline.simulate ~config src
                   pr.Spt_driver.Pipeline.pr_spt)
                  .Spt_driver.Pipeline.speedup
              in
              Json.to_file path
                (Spt_driver.Report.attrib_json ~predicted
                   ~workload:(Filename.basename file) ~timeline:tl pr);
              Spt_obs.Log.info "attribution report written to %s" path)
            attrib;
          Option.iter
            (fun path ->
              let store = Profile_store.load path in
              Spt_feedback.Telemetry.record store
                pr.Spt_driver.Pipeline.pr_spt
                pr.Spt_driver.Pipeline.pr_runtime;
              Profile_store.save store path;
              Spt_obs.Log.info "feedback telemetry merged into %s (digest %s)"
                path
                (Profile_store.digest store))
            feedback_out;
          (* always feed the run's telemetry back to the database, so the
             next run of the same program is better guided *)
          Option.iter
            (fun fp ->
              let fresh = Profile_store.empty () in
              Spt_feedback.Telemetry.record fresh
                pr.Spt_driver.Pipeline.pr_spt
                pr.Spt_driver.Pipeline.pr_runtime;
              match Spt_profdb.Profdb.ingest db ~fingerprint:fp fresh with
              | Some g ->
                Format.printf "; profdb: generation %d%s@." g
                  (match (db_gen, profile) with
                  | Some g_in, _ ->
                    Printf.sprintf " (compile guided by gen %d)" g_in
                  | None, Some p when not (Profile_store.is_empty p) ->
                    " (compile guided by --profile-in)"
                  | None, _ -> " (unguided compile)")
              | None -> ())
            fingerprint;
          let open Spt_runtime.Runtime in
          let r = pr.Spt_driver.Pipeline.pr_runtime in
          print_string r.output;
          Format.printf
            "; %d instructions committed on %d worker(s), %d SPT loop(s)@."
            r.dynamic_instrs r.workers pr.Spt_driver.Pipeline.pr_n_loops;
          List.iter
            (fun (lid, s) ->
              Format.printf
                "; loop %d: %d forks, %d inline, %d commits, %d violations, \
                 %d faults, %d kills, %d despeculations@."
                lid s.forks s.inline s.commits s.violations s.faults s.kills
                s.despecs)
            r.stats;
          Format.printf
            "; wall %.3fs vs %.3fs sequential (measured speedup %.2fx)@."
            r.wall_time pr.Spt_driver.Pipeline.pr_seq_wall
            pr.Spt_driver.Pipeline.pr_measured_speedup;
          let finish () =
            finish
              ~runtime:
                [
                  Json.prepend
                    ("workload", Json.Str (Filename.basename file))
                    (Spt_runtime.Runtime.stats_json r);
                ]
              []
          in
          match r.oracle with
          | `Match ->
            Format.printf "; oracle: parallel run matches sequential@.";
            finish ()
          | `Skipped -> finish ()
          | `Mismatch m ->
            Format.eprintf "oracle FAILED: %s@." m;
            finish ();
            (* 2, not 1: the program compiled and ran — what failed is
               sequential equivalence, the same class of verdict as a
               fuzz divergence *)
            exit 2
        end)
  in
  Cmd.v
    (Cmd.info "run" ~version
       ~doc:
         "Interpret a MiniC program, or execute it speculatively in parallel")
    Term.(
      const run $ file_arg $ parallel_flag $ jobs_arg $ config_arg
      $ chunk_arg $ depth_arg $ profile_in_arg $ cache_dir_arg
      $ feedback_out_arg $ attrib_arg $ trace_arg $ metrics_arg
      $ log_level_arg)

let dump_ir_cmd =
  let ssa_flag =
    Arg.(value & flag & info [ "ssa" ] ~doc:"Print in optimized SSA form")
  in
  let dump file ssa =
    handle_errors (fun () ->
        let prog = Spt_driver.Pipeline.front_end (read_file file) in
        if ssa then Spt_driver.Pipeline.to_ssa prog;
        print_endline (Spt_ir.Ir_pretty.program_to_string prog))
  in
  Cmd.v (Cmd.info "dump-ir" ~version ~doc:"Print the three-address IR")
    Term.(const dump $ file_arg $ ssa_flag)

let loops_cmd =
  let show file config =
    handle_errors (fun () ->
        let e = Spt_driver.Pipeline.evaluate ~config (read_file file) in
        Format.printf "%-20s %-10s %8s %8s %10s  %s@." "loop" "origin" "body"
          "trip" "cost" "decision";
        List.iter
          (fun (lr : Spt_driver.Pipeline.loop_record) ->
            Format.printf "%-20s %-10s %8.0f %8.0f %10s  %s@."
              (Printf.sprintf "%s@bb%d" lr.Spt_driver.Pipeline.lr_func
                 lr.Spt_driver.Pipeline.lr_header)
              (match lr.Spt_driver.Pipeline.lr_origin with
              | Some `For -> "for"
              | Some `While -> "while"
              | Some `Do -> "do"
              | None -> "?")
              lr.Spt_driver.Pipeline.lr_body_size lr.Spt_driver.Pipeline.lr_trip
              (match lr.Spt_driver.Pipeline.lr_cost with
              | Some c -> Printf.sprintf "%.2f" c
              | None -> "-")
              (match lr.Spt_driver.Pipeline.lr_decision with
              | Spt_driver.Pipeline.Selected ->
                if lr.Spt_driver.Pipeline.lr_svp then "SPT loop (with SVP)"
                else "SPT loop"
              | Spt_driver.Pipeline.Rejected r ->
                Spt_transform.Select.string_of_reason r))
          e.Spt_driver.Pipeline.loops)
  in
  Cmd.v
    (Cmd.info "loops" ~version ~doc:"Analyze every loop and show the SPT decision")
    Term.(const show $ file_arg $ config_arg)

let compile_cmd =
  let compile file config depth profile_in cache_dir no_cache
      profdb_max_entries trace metrics log_level =
    handle_errors (fun () ->
        let finish = setup_obs trace metrics log_level in
        let config = resolve_depth config depth in
        let profile = load_profile profile_in in
        (* --trace wants the real per-phase spans, which a warm hit
           would skip entirely — tracing always recompiles *)
        let cache =
          if trace <> None then Spt_service.Artifact_cache.no_cache ()
          else make_cache ~cache_dir ~no_cache ()
        in
        let o =
          Spt_service.Cached.compile ~cache ~config ?profile
            ~profdb:(make_profdb ?max_entries:profdb_max_entries cache)
            ~name:(Filename.basename file) (read_file file)
        in
        print_string o.Spt_service.Cached.report_text;
        finish [ o.Spt_service.Cached.eval ])
  in
  Cmd.v
    (Cmd.info "compile" ~version
       ~doc:
         "Run the cost-driven SPT pipeline and simulate the result (warm \
          results come from the artifact cache; a fingerprint warmed in the \
          profile database gets a guided compile automatically)")
    Term.(
      const compile $ file_arg $ config_arg $ depth_arg
      $ profile_in_arg $ cache_dir_arg $ no_cache_arg
      $ profdb_max_entries_arg $ trace_arg $ metrics_arg $ log_level_arg)

let workload_cmd =
  let name_arg =
    let names = List.map (fun w -> w.Spt_workloads.Suite.name) Spt_workloads.Suite.all in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [] ~docv:"NAME" ~doc:"Workload name (bzip2, crafty, ...)")
  in
  let run name config depth profile_in cache_dir no_cache
      profdb_max_entries trace metrics log_level =
    handle_errors (fun () ->
        let finish = setup_obs trace metrics log_level in
        let config = resolve_depth config depth in
        let profile = load_profile profile_in in
        let cache =
          if trace <> None then Spt_service.Artifact_cache.no_cache ()
          else make_cache ~cache_dir ~no_cache ()
        in
        let w = Spt_workloads.Suite.find name in
        let o =
          Spt_service.Cached.compile ~cache ~config ?profile
            ~profdb:(make_profdb ?max_entries:profdb_max_entries cache)
            ~name w.Spt_workloads.Suite.source
        in
        (* no cache-status marker here: warm and cold runs must print
           byte-identical reports *)
        Format.printf "workload %s@." name;
        print_string o.Spt_service.Cached.report_text;
        finish [ o.Spt_service.Cached.eval ])
  in
  Cmd.v
    (Cmd.info "workload" ~version ~doc:"Evaluate a built-in SPEC2000Int-like workload")
    Term.(
      const run $ name_arg $ config_arg $ depth_arg
      $ profile_in_arg $ cache_dir_arg $ no_cache_arg
      $ profdb_max_entries_arg $ trace_arg $ metrics_arg $ log_level_arg)

let batch_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILES" ~doc:"MiniC source files")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (defaults to $(b,SPT_JOBS) or 2)")
  in
  let timeout_arg =
    Arg.(
      value & opt float 600.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-file compile budget; a file over budget is reported \
                timed out and the batch exits 1")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable batch summary (schema \
             $(b,spt-batch-v1)) to $(docv)")
  in
  let cluster_arg =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Cluster files whose canonical fingerprints share per-function \
             digests and schedule each cluster as one job, so \
             near-duplicates compile back to back against a warm cache")
  in
  let result_json (file, outcome) =
    match outcome with
    | Spt_service.Batch.Done ((o : Spt_service.Cached.outcome), counters) ->
      Json.Obj
        ([
           ("file", Json.Str file);
           ("status", Json.Str "ok");
           ("cache_hit", Json.Bool o.Spt_service.Cached.hit);
           ("key", Json.Str o.Spt_service.Cached.key);
           ("elapsed_s", Json.Float o.Spt_service.Cached.elapsed_s);
         ]
        @
        match counters with
        | Some c -> [ ("counters", c) ]
        | None -> [])
    | Spt_service.Batch.Failed msg ->
      Json.Obj
        [
          ("file", Json.Str file);
          ("status", Json.Str "failed");
          ("error", Json.Str msg);
        ]
    | Spt_service.Batch.Timed_out ->
      Json.Obj [ ("file", Json.Str file); ("status", Json.Str "timed_out") ]
  in
  let run files config depth profile_in cache_dir no_cache
      profdb_max_entries jobs timeout_s summary cluster trace metrics
      log_level =
    handle_errors (fun () ->
        let finish = setup_obs trace metrics log_level in
        let config = resolve_depth config depth in
        (* one shared load: seeding only reads the store's tables, so
           concurrent compiles are safe *)
        let profile = load_profile profile_in in
        let cache = make_cache ~cache_dir ~no_cache () in
        (* one shared database instance: lookups are lock-free reads
           and the census counters are mutex-guarded *)
        let profdb = make_profdb ?max_entries:profdb_max_entries cache in
        (* per-job counter deltas: snapshot the registry around each
           compile so a job's summary row reports its own work, not the
           whole batch's cumulative totals.  Exact at -j1 (the regression
           mode); approximate when jobs overlap, since the registry is
           process-global. *)
        let with_counters = metrics <> None in
        let thunks =
          List.map
            (fun file () ->
              let base =
                if with_counters then Some (Spt_obs.Metrics.since ()) else None
              in
              let o =
                Spt_service.Cached.compile ~cache ~config ?profile ~profdb
                  ~name:(Filename.basename file) (read_file file)
              in
              (o, Option.map Spt_obs.Metrics.delta_json base))
            files
        in
        (* with --cluster, tag each file with its canonical sub-structure
           digests (whole program + one per function); files sharing a
           digest schedule as one unit.  Unreadable or unparsable files
           get no digests — a singleton cluster whose job reports the
           real error *)
        let digests file =
          if not cluster then []
          else
            try
              let prog = Spt_driver.Pipeline.front_end (read_file file) in
              Spt_service.Fingerprint.program prog
              :: List.map
                   (fun (_, f) -> Spt_service.Fingerprint.func f)
                   prog.Spt_ir.Ir.funcs
            with _ -> []
        in
        let items =
          List.map2 (fun file thunk -> (thunk, digests file)) files thunks
        in
        let outcomes, bs =
          Spt_service.Batch.run_clustered ?jobs ~timeout_s items
        in
        let results = List.mapi (fun i file -> (file, outcomes.(i))) files in
        let evals =
          List.filter_map
            (function
              | _, Spt_service.Batch.Done ((o : Spt_service.Cached.outcome), _)
                ->
                Some o.Spt_service.Cached.eval
              | _ -> None)
            results
        in
        List.iter
          (fun (file, outcome) ->
            match outcome with
            | Spt_service.Batch.Done ((o : Spt_service.Cached.outcome), _) ->
              Format.printf "[%s] %-32s %8.3fs  %s@."
                (if o.Spt_service.Cached.hit then "hit " else "miss")
                file o.Spt_service.Cached.elapsed_s
                (String.sub o.Spt_service.Cached.key 0 12)
            | Spt_service.Batch.Failed msg ->
              Format.printf "[FAIL] %-32s %s@." file msg
            | Spt_service.Batch.Timed_out ->
              Format.printf "[TIME] %-32s exceeded %.0fs@." file timeout_s)
          results;
        let cs = Spt_service.Artifact_cache.stats cache in
        let lookups =
          cs.Spt_service.Artifact_cache.hits
          + cs.Spt_service.Artifact_cache.misses
        in
        let hit_rate =
          if lookups = 0 then 0.0
          else
            float_of_int cs.Spt_service.Artifact_cache.hits
            /. float_of_int lookups
        in
        Format.printf
          "batch: %d file(s) in %d cluster(s), %d ok, %d failed, %d timed \
           out; %d hit(s) / %d miss(es); %d job(s)%s, %.3fs@."
          bs.Spt_service.Batch.submitted bs.Spt_service.Batch.clusters
          bs.Spt_service.Batch.completed bs.Spt_service.Batch.failed
          bs.Spt_service.Batch.timed_out cs.Spt_service.Artifact_cache.hits
          cs.Spt_service.Artifact_cache.misses bs.Spt_service.Batch.jobs
          (if bs.Spt_service.Batch.degraded then " (degraded to sequential)"
           else "")
          bs.Spt_service.Batch.wall_s;
        let lat = bs.Spt_service.Batch.latency in
        if Spt_obs.Metrics.Hist.count lat > 0 then
          Format.printf
            "batch: job latency p50 %.3fs, p95 %.3fs, p99 %.3fs (max %.3fs)@."
            (Spt_obs.Metrics.Hist.percentile lat 0.50)
            (Spt_obs.Metrics.Hist.percentile lat 0.95)
            (Spt_obs.Metrics.Hist.percentile lat 0.99)
            (Spt_obs.Metrics.Hist.max_value lat);
        Option.iter
          (fun path ->
            Json.to_file path
              (Json.Obj
                 [
                   ("schema", Json.Str "spt-batch-v1");
                   ("files", Json.Int (List.length files));
                   ("ok", Json.Int bs.Spt_service.Batch.completed);
                   ("failed", Json.Int bs.Spt_service.Batch.failed);
                   ("timed_out", Json.Int bs.Spt_service.Batch.timed_out);
                   ( "cache_hits",
                     Json.Int cs.Spt_service.Artifact_cache.hits );
                   ( "cache_misses",
                     Json.Int cs.Spt_service.Artifact_cache.misses );
                   ("hit_rate", Json.Float hit_rate);
                   ("jobs", Json.Int bs.Spt_service.Batch.jobs);
                   ("clusters", Json.Int bs.Spt_service.Batch.clusters);
                   ("degraded", Json.Bool bs.Spt_service.Batch.degraded);
                   ( "max_queue_depth",
                     Json.Int bs.Spt_service.Batch.max_queue_depth );
                   ("wall_s", Json.Float bs.Spt_service.Batch.wall_s);
                   ( "latency_s",
                     Spt_obs.Metrics.Hist.to_json bs.Spt_service.Batch.latency
                   );
                   ("results", Json.List (List.map result_json results));
                   ("cache", Spt_service.Artifact_cache.stats_json cache);
                   ("counters", Spt_obs.Metrics.to_json ());
                 ]))
          summary;
        finish evals;
        if
          bs.Spt_service.Batch.failed > 0
          || bs.Spt_service.Batch.timed_out > 0
        then exit 1)
  in
  Cmd.v
    (Cmd.info "batch" ~version
       ~doc:
         "Compile many programs concurrently through the artifact cache; \
          exits 1 if any file fails or times out")
    Term.(
      const run $ files_arg $ config_arg $ depth_arg
      $ profile_in_arg $ cache_dir_arg $ no_cache_arg
      $ profdb_max_entries_arg $ jobs_arg $ timeout_arg $ summary_arg
      $ cluster_arg $ trace_arg $ metrics_arg $ log_level_arg)

let top_cmd =
  let report_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A machine-readable spt report: $(b,spt-attrib-v1) ($(b,sptc run \
             --parallel --attrib)), $(b,spt-metrics-v1) ($(b,--metrics)), \
             $(b,spt-batch-v1) ($(b,sptc batch --summary)), \
             $(b,spt-profdb-v1) ($(b,sptc profdb stat --json)), \
             $(b,spt-depth-v1) (the bench's depth sweep) or \
             $(b,spt-bench-v2) ($(b,bench/main.exe))")
  in
  let run file =
    handle_errors (fun () ->
        match Json.of_string (read_file file) with
        | Error msg ->
          Format.eprintf "error: %s: bad JSON: %s@." file msg;
          exit 1
        | Ok j -> (
          match Spt_driver.Report.top_text j with
          | Ok text -> print_string text
          | Error msg ->
            Format.eprintf "error: %s: %s@." file msg;
            exit 1))
  in
  Cmd.v
    (Cmd.info "top" ~version
       ~doc:
         "Render a machine-readable report (attribution, metrics, batch, \
          profile-database, depth-sweep or bench JSON) as aligned text \
          tables")
    Term.(const run $ report_arg)

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 4
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains handling compile requests concurrently (1 = \
             sequential)")
  in
  let queue_max_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "In-flight high-water mark: past $(docv) pending requests, new \
             work is refused with an $(b,overloaded) error reply")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request budget; an overdue request gets a $(b,timeout) \
             error reply (default: no timeout)")
  in
  let run cache_dir no_cache max_bytes max_entries profdb_max_entries jobs
      queue_max timeout_s log_level =
    handle_errors (fun () ->
        Option.iter Spt_obs.Log.set_level log_level;
        let cache = make_cache ?max_bytes ?max_entries ~cache_dir ~no_cache () in
        let profdb = make_profdb ?max_entries:profdb_max_entries cache in
        let t =
          Spt_service.Server.create ~cache ~profdb ~jobs ~queue_max ?timeout_s
            ()
        in
        Spt_service.Server.serve t stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve" ~version
       ~doc:
         "Serve compile requests as line-delimited JSON on stdin/stdout \
          until a shutdown request or end of input; requests are handled \
          concurrently on a domain pool with backpressure, per-request \
          timeouts and single-flight coalescing")
    Term.(
      const run $ cache_dir_arg $ no_cache_arg
      $ cache_max_bytes_arg $ cache_max_entries_arg $ profdb_max_entries_arg
      $ jobs_arg $ queue_max_arg $ timeout_arg $ log_level_arg)

let graph_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("dep", `Dep); ("cost", `Cost) ]) `Dep
      & info [ "k"; "kind" ] ~docv:"KIND" ~doc:"Graph kind: dep or cost")
  in
  let show file kind =
    handle_errors (fun () ->
        let prog = Spt_driver.Pipeline.front_end (read_file file) in
        Spt_driver.Pipeline.to_ssa prog;
        let eff = Spt_depgraph.Effects.compute prog in
        (* the hottest-looking loop: largest static body *)
        let best = ref None in
        List.iter
          (fun (_, f) ->
            List.iter
              (fun (l : Spt_ir.Loops.loop) ->
                let size =
                  Spt_ir.Loops.Iset.fold
                    (fun bid acc -> acc + Spt_ir.Ir.block_size (Spt_ir.Ir.block f bid))
                    l.Spt_ir.Loops.body 0
                in
                match !best with
                | Some (_, _, s) when s >= size -> ()
                | _ -> best := Some (f, l, size))
              (Spt_ir.Loops.find f))
          prog.Spt_ir.Ir.funcs;
        match !best with
        | None -> Format.eprintf "no loops found@."
        | Some (f, l, _) ->
          let g = Spt_depgraph.Depgraph.build eff f l in
          (match kind with
          | `Dep -> print_string (Spt_depgraph.Depgraph.to_dot g)
          | `Cost ->
            print_string (Spt_cost.Cost_model.to_dot (Spt_cost.Cost_model.build g))))
  in
  Cmd.v
    (Cmd.info "graph" ~version
       ~doc:"Emit the dependence or cost graph of the largest loop as Graphviz DOT")
    Term.(const show $ file_arg $ kind_arg)

let profile_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Profile store to write; an existing store is merged into \
             (counts add), so repeated runs behave as one longer profile")
  in
  let run file config out log_level =
    handle_errors (fun () ->
        Option.iter Spt_obs.Log.set_level log_level;
        let ep, dp, vp =
          Spt_driver.Pipeline.profile_source ~config (read_file file)
        in
        let store = Profile_store.load out in
        Profile_store.absorb_profiles store ep dp vp;
        Profile_store.save store out;
        Format.printf "profile store %s: digest %s@." out
          (Profile_store.digest store))
  in
  Cmd.v
    (Cmd.info "profile" ~version
       ~doc:
         "Profile a MiniC program (edge / dependence / value) and persist the \
          counts to a profile store for later profile-guided compiles")
    Term.(const run $ file_arg $ config_arg $ out_arg $ log_level_arg)

let adapt_cmd =
  let iters_arg =
    Arg.(
      value & opt int 3
      & info [ "iters" ] ~docv:"N"
          ~doc:"Maximum compile-run-repartition rounds (stops early once the \
                partitions stop changing)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the runtime (defaults to $(b,SPT_JOBS) or 1)")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"P"
          ~doc:
            "Divergence threshold: observed misspeculation probability must \
             exceed the prediction by more than $(docv) to override it \
             (default 0.1)")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Persistent profile store to continue from and write back \
             (default: in-memory only)")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable summary (schema $(b,spt-adapt-v1))")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Share the adaptation through the profile database under \
             $(docv): the starting store is seeded from the accumulated \
             entry for this program, and the converged store is published \
             back for every later compile to pick up")
  in
  let run file config iters jobs threshold store_path cache_dir json_out
      log_level =
    handle_errors (fun () ->
        Option.iter Spt_obs.Log.set_level log_level;
        let src = read_file file in
        let db = Spt_profdb.Profdb.for_cache ~tool:version cache_dir in
        let fingerprint =
          if Spt_profdb.Profdb.enabled db then
            Some (Spt_service.Fingerprint.source src)
          else None
        in
        let store = Option.map Profile_store.load store_path in
        (* seed from the database's accumulated entry; the converged
           store then *contains* it, which is why the write-back below
           is a publish (replace), not an ingest (additive merge) *)
        let store =
          match fingerprint with
          | None -> store
          | Some fp -> (
            match Spt_profdb.Profdb.lookup db ~fingerprint:fp with
            | Some (dbs, g) when not (Profile_store.is_empty dbs)
              ->
              Spt_obs.Log.info "adapt seeded from profdb generation %d" g;
              Some
                (match store with
                | Some s -> Profile_store.merge s dbs
                | None -> dbs)
            | Some _ | None -> store)
        in
        let o =
          Spt_feedback.Adapt.run ~config ?jobs ~iters ?threshold ?store src
        in
        print_string (Spt_feedback.Adapt.report o);
        Option.iter
          (fun path -> Profile_store.save o.Spt_feedback.Adapt.store path)
          store_path;
        Option.iter
          (fun fp ->
            match
              Spt_profdb.Profdb.publish db ~fingerprint:fp
                o.Spt_feedback.Adapt.store
            with
            | Some g ->
              Format.printf "; profdb: published generation %d@." g
            | None -> ())
          fingerprint;
        Option.iter
          (fun path -> Json.to_file path (Spt_feedback.Adapt.to_json o))
          json_out)
  in
  Cmd.v
    (Cmd.info "adapt" ~version
       ~doc:
         "Adaptive re-partitioning: compile, execute on the speculative \
          runtime, fold the observed misspeculation back into the profile \
          store and recompile, until the partitions converge")
    Term.(
      const run $ file_arg $ config_arg $ iters_arg $ jobs_arg $ threshold_arg
      $ store_arg $ cache_dir_arg $ json_arg $ log_level_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Campaign seed; each case derives its own generator seed from it")
  in
  let count_arg =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"K" ~doc:"Number of generated cases")
  in
  let index_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"I"
          ~doc:
            "Run only case $(docv) of the campaign (what the reproduce line \
             of a failure uses)")
  in
  let matrix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated oracle points: any of $(b,seq), $(b,par), \
             $(b,engine), $(b,depth), $(b,cache), $(b,feedback) (default: \
             all of them)")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Arm a transform fault (currently $(b,drop-prefork-stmt)) — the \
             oracle is then expected to diverge; exercises the harness itself")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist shrunk failing cases and a few interesting clean ones \
             (that actually misspeculated) into $(docv) as commented .c files")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay every .c under $(docv) through the oracle instead of \
             generating (corpus regression mode); --seed/--count are ignored")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 300
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Oracle re-checks the shrinker may spend per failing case")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report (schema $(b,spt-fuzz-v1))")
  in
  let run seed count index matrix inject corpus replay shrink_budget config
      json_out log_level =
    handle_errors (fun () ->
        Option.iter Spt_obs.Log.set_level log_level;
        let matrix =
          Option.map
            (fun spec ->
              match Spt_fuzz.Oracle.matrix_of_string spec with
              | Ok m -> m
              | Error msg ->
                Format.eprintf "error: %s@." msg;
                exit 1)
            matrix
        in
        (match inject with
        | Some f when not (List.mem f Spt_fuzz.Oracle.known_faults) ->
          Format.eprintf "error: unknown fault %S (known: %s)@." f
            (String.concat ", " Spt_fuzz.Oracle.known_faults);
          exit 1
        | _ -> ());
        let c =
          match replay with
          | Some dir -> Spt_fuzz.Harness.replay_corpus ~config ?matrix ~dir ()
          | None ->
            Spt_fuzz.Harness.run_campaign ~config ?matrix ?inject ?index
              ?corpus_dir:corpus ~shrink_budget ~seed ~count ()
        in
        print_string (Spt_fuzz.Harness.summary c);
        Option.iter
          (fun path ->
            Json.to_file path (Spt_fuzz.Harness.report_json c);
            Spt_obs.Log.info "fuzz report written to %s" path)
          json_out;
        (* divergence is the fuzz analogue of an oracle mismatch: 2 *)
        if Spt_fuzz.Harness.divergent c then exit 2)
  in
  Cmd.v
    (Cmd.info "fuzz" ~version
       ~doc:
         "Differential fuzzing: generate random MiniC programs and check \
          every execution path (sequential, parallel runtime, cache replay, \
          feedback-guided recompile) against the sequential reference; \
          failures are shrunk and reported with a reproduce line (exit 2 on \
          divergence)")
    Term.(
      const run $ seed_arg $ count_arg $ index_arg $ matrix_arg $ inject_arg
      $ corpus_arg $ replay_arg $ shrink_budget_arg $ config_arg $ json_arg
      $ log_level_arg)

(* ------------------------------------------------------------------ *)
(* profdb: inspect, export and garbage-collect the profile database *)

let profdb_cmd =
  let open_db cache_dir =
    let dir =
      match cache_dir with
      | Some d -> d
      | None -> Spt_service.Artifact_cache.default_dir ()
    in
    Spt_profdb.Profdb.create ~tool:version
      ~dir:(Spt_profdb.Profdb.subdir dir) ()
  in
  let stat_cmd =
    let json_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:
              "Also write the raw census (schema $(b,spt-profdb-v1)) to \
               $(docv)")
    in
    let run cache_dir json_out =
      handle_errors (fun () ->
          let db = open_db cache_dir in
          let stats = Spt_profdb.Profdb.stats_json db in
          (match Spt_driver.Report.top_text stats with
          | Ok text -> print_string text
          | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit 1);
          Option.iter (fun path -> Json.to_file path stats) json_out)
    in
    Cmd.v
      (Cmd.info "stat" ~version
         ~doc:
           "Show the profile database census: per-program generations, \
            telemetry footprint and entries another tool version left \
            behind")
      Term.(const run $ cache_dir_arg $ json_arg)
  in
  let export_cmd =
    let fingerprint_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "fingerprint" ] ~docv:"HEX"
            ~doc:
              "Export only this program's entry (fingerprints are listed by \
               $(b,sptc profdb stat))")
    in
    let out_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"FILE"
            ~doc:
              "Write the merged store (schema $(b,spt-profile-v1)) to \
               $(docv), usable anywhere $(b,--profile-in) is")
    in
    let run cache_dir fingerprint out =
      handle_errors (fun () ->
          let db = open_db cache_dir in
          let store = Spt_profdb.Profdb.export ?fingerprint db in
          if Profile_store.is_empty store then begin
            Format.eprintf "error: no matching profile-database entries under %s@."
              (Option.value ~default:"?" (Spt_profdb.Profdb.dir db));
            exit 1
          end;
          Profile_store.save store out;
          Format.printf "exported profile store to %s (digest %s)@." out
            (Profile_store.digest store))
    in
    Cmd.v
      (Cmd.info "export" ~version
         ~doc:
           "Merge database entries into a portable profile store — one \
            program's or the whole fleet's")
      Term.(const run $ cache_dir_arg $ fingerprint_arg $ out_arg)
  in
  let gc_cmd =
    let run cache_dir max_entries =
      handle_errors (fun () ->
          let db = open_db cache_dir in
          let invalid, evicted = Spt_profdb.Profdb.gc ?max_entries db in
          Format.printf
            "profdb gc: %d invalid file(s) dropped, %d entr%s evicted@."
            invalid evicted
            (if evicted = 1 then "y" else "ies"))
    in
    Cmd.v
      (Cmd.info "gc" ~version
         ~doc:
           "Delete invalid database files (corrupt, wrong tool version) and, \
            with $(b,--profdb-max-entries), evict least-recently-updated \
            entries over the bound")
      Term.(const run $ cache_dir_arg $ profdb_max_entries_arg)
  in
  Cmd.group
    (Cmd.info "profdb" ~version
       ~doc:
         "Inspect and maintain the shared profile database (the \
          $(b,spt-profdb-v1) directory under the cache dir) that \
          auto-guides compiles from accumulated run telemetry")
    [ stat_cmd; export_cmd; gc_cmd ]

let () =
  let doc = "cost-driven speculative parallelization (PLDI 2004 reproduction)" in
  let info = Cmd.info "sptc" ~version ~doc in
  let group =
    Cmd.group info
      [
        run_cmd; dump_ir_cmd; loops_cmd; compile_cmd; workload_cmd; batch_cmd;
        top_cmd; serve_cmd; graph_cmd; profile_cmd; profdb_cmd; adapt_cmd;
        fuzz_cmd;
      ]
  in
  (* distinct exit codes: 0 = success, 2 = usage error, 1 = compile/run
     error (the latter via [handle_errors], which exits directly) *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 1)
