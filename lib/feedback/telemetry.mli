(** Bridging runtime results and the profile store: exports the
    runtime's per-loop misspeculation counters
    ({!Spt_runtime.Runtime.loop_stats}) into
    {!Spt_profile.Profile_store} keyed by (function, loop header).  A
    compile that takes the store as its profile reads them back
    ({!Spt_driver.Pipeline.compile_spt}). *)

(** Map runtime loop ids to (function, header) — one entry per
    transformed loop of the compilation. *)
val loops_of : Spt_driver.Pipeline.spt_compilation -> (int * (string * int)) list

(** Record every loop's observed outcome from one runtime execution
    into the store (counts add across runs). *)
val record :
  Spt_profile.Profile_store.t ->
  Spt_driver.Pipeline.spt_compilation ->
  Spt_runtime.Runtime.result ->
  unit
