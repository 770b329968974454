(** Runtime telemetry export — see telemetry.mli. *)

open Spt_driver
module Runtime = Spt_runtime.Runtime
module Profile_store = Spt_profile.Profile_store

let loops_of (spt : Pipeline.spt_compilation) =
  List.filter_map
    (fun (lr : Pipeline.loop_record) ->
      match lr.Pipeline.lr_loop_id with
      | Some id -> Some (id, (lr.Pipeline.lr_func, lr.Pipeline.lr_header))
      | None -> None)
    spt.Pipeline.records

let obs_of (st : Runtime.loop_stats) : Profile_store.obs =
  {
    o_iters = st.Runtime.iters;
    o_forks = st.Runtime.forks;
    o_commits = st.Runtime.commits;
    o_violations = st.Runtime.violations;
    o_faults = st.Runtime.faults;
    o_kills = st.Runtime.kills;
    o_despecs = st.Runtime.despecs;
    o_serial_reexecs = st.Runtime.serial_reexecs;
    o_stale_other = st.Runtime.stale_reg + st.Runtime.stale_rng;
    o_stale_regions = Runtime.sorted_regions st;
    o_svp =
      List.map
        (fun (vid, (s : Runtime.svp_stats)) ->
          (vid, (s.Runtime.sv_predicts, s.Runtime.sv_hits, s.Runtime.sv_mispredicts)))
        (Runtime.sorted_svp st);
  }

let record store (spt : Pipeline.spt_compilation) (r : Runtime.result) =
  let loops = loops_of spt in
  List.iter
    (fun (lid, st) ->
      match List.assoc_opt lid loops with
      | Some (func, header) ->
        Profile_store.add_observation store ~func ~header (obs_of st)
      | None -> ())
    r.Runtime.stats
