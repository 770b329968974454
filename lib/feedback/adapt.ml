(** Adaptive re-partitioning — see adapt.mli. *)

module Json = Spt_obs.Json
open Spt_driver
module Runtime = Spt_runtime.Runtime
module Profile_store = Spt_profile.Profile_store

let m_adapt = Spt_obs.Metrics.counter "feedback.adapt_iterations"

type iteration = {
  it_index : int;
  it_partitions : ((string * int) * int list) list;
  it_changed : bool;
  it_forks : int;
  it_kills : int;
  it_violations : int;
  it_faults : int;
  it_serial_reexecs : int;
  it_iters : int;
  it_speedup : float;
}

type outcome = {
  iterations : iteration list;
  converged : bool;
  store : Profile_store.t;
}

(* the partition signature compared across rounds: which loops were
   selected, and which violation candidates each moved pre-fork *)
let signature (spt : Pipeline.spt_compilation) =
  List.sort compare
    (List.filter_map
       (fun (lr : Pipeline.loop_record) ->
         match (lr.Pipeline.lr_decision, lr.Pipeline.lr_loop_id) with
         | Pipeline.Selected, Some _ ->
           Some ((lr.Pipeline.lr_func, lr.Pipeline.lr_header), lr.Pipeline.lr_chosen)
         | _ -> None)
       spt.Pipeline.records)

let summarize index ~changed partitions (pr : Pipeline.parallel_run) =
  let add f =
    List.fold_left
      (fun acc (_, st) -> acc + f st)
      0
      pr.Pipeline.pr_runtime.Runtime.stats
  in
  {
    it_index = index;
    it_partitions = partitions;
    it_changed = changed;
    it_forks = add (fun (st : Runtime.loop_stats) -> st.Runtime.forks);
    it_kills = add (fun st -> st.Runtime.kills);
    it_violations = add (fun st -> st.Runtime.violations);
    it_faults = add (fun st -> st.Runtime.faults);
    it_serial_reexecs = add (fun st -> st.Runtime.serial_reexecs);
    it_iters = add (fun st -> st.Runtime.iters);
    it_speedup = pr.Pipeline.pr_measured_speedup;
  }

let run ?(config = Config.best) ?jobs ?(iters = 3)
    ?(threshold = Pipeline.default_divergence_threshold) ?store src : outcome =
  let store = match store with Some s -> s | None -> Profile_store.empty () in
  (* cold store: capture the baseline profiles once, so every round's
     compilation is seeded from persisted (not just in-memory) counts *)
  if not (Profile_store.has_profiles store) then begin
    let ep, dp, vp = Pipeline.profile_source ~config src in
    Profile_store.absorb_profiles store ep dp vp
  end;
  let runtime_config = Runtime.default_config ?jobs () in
  let iterations = ref [] in
  let prev_sig = ref None in
  let converged = ref false in
  let index = ref 1 in
  while !index <= max 1 iters && not !converged do
    Spt_obs.Metrics.inc m_adapt;
    let pr =
      Pipeline.run_parallel ~config ~runtime_config ~profile:store
        ~divergence:threshold src
    in
    Telemetry.record store pr.Pipeline.pr_spt pr.Pipeline.pr_runtime;
    let s = signature pr.Pipeline.pr_spt in
    let changed =
      match !prev_sig with Some p -> p <> s | None -> false
    in
    (match !prev_sig with
    | Some p when p = s -> converged := true
    | _ -> ());
    iterations := summarize !index ~changed s pr :: !iterations;
    Spt_obs.Log.info
      "[adapt] iteration %d: %d loops, forks=%d kills=%d violations=%d%s"
      !index (List.length s)
      (List.hd !iterations).it_forks (List.hd !iterations).it_kills
      (List.hd !iterations).it_violations
      (if !converged then " (converged)" else "");
    prev_sig := Some s;
    incr index
  done;
  { iterations = List.rev !iterations; converged = !converged; store }

let string_of_partitions ps =
  if ps = [] then "-"
  else
    String.concat " "
      (List.map
         (fun ((f, h), chosen) ->
           Printf.sprintf "%s@bb%d{%s}" f h
             (String.concat "," (List.map string_of_int chosen)))
         ps)

let report (o : outcome) =
  let t =
    Spt_util.Table.create
      ~aligns:
        [
          Spt_util.Table.Right; Spt_util.Table.Left; Spt_util.Table.Right;
          Spt_util.Table.Right; Spt_util.Table.Right; Spt_util.Table.Right;
          Spt_util.Table.Right;
        ]
      [ "iter"; "partitions"; "forks"; "kills"; "violations"; "serial"; "speedup" ]
  in
  List.iter
    (fun it ->
      Spt_util.Table.add_row t
        [
          Printf.sprintf "%d%s" it.it_index (if it.it_changed then "*" else "");
          string_of_partitions it.it_partitions;
          string_of_int it.it_forks;
          string_of_int it.it_kills;
          string_of_int it.it_violations;
          string_of_int it.it_serial_reexecs;
          Printf.sprintf "%.2fx" it.it_speedup;
        ])
    o.iterations;
  Spt_util.Table.render t
  ^ Printf.sprintf "converged: %b  (iterations: %d, profile digest %s)\n"
      o.converged
      (List.length o.iterations)
      (Profile_store.digest o.store)

let to_json (o : outcome) =
  Json.Obj
    [
      ("schema", Json.Str "spt-adapt-v1");
      ("converged", Json.Bool o.converged);
      ("profile_digest", Json.Str (Profile_store.digest o.store));
      ( "iterations",
        Json.List
          (List.map
             (fun it ->
               Json.Obj
                 [
                   ("index", Json.Int it.it_index);
                   ("changed", Json.Bool it.it_changed);
                   ( "partitions",
                     Json.List
                       (List.map
                          (fun ((f, h), chosen) ->
                            Json.Obj
                              [
                                ("func", Json.Str f);
                                ("header", Json.Int h);
                                ( "chosen_vcs",
                                  Json.List
                                    (List.map (fun v -> Json.Int v) chosen) );
                              ])
                          it.it_partitions) );
                   ("forks", Json.Int it.it_forks);
                   ("kills", Json.Int it.it_kills);
                   ("violations", Json.Int it.it_violations);
                   ("faults", Json.Int it.it_faults);
                   ("serial_reexecs", Json.Int it.it_serial_reexecs);
                   ("iters", Json.Int it.it_iters);
                   ("measured_speedup", Json.Float it.it_speedup);
                 ])
             o.iterations) );
    ]
