(** The adaptive re-partitioning driver: compile → run on the
    speculative runtime → fold the observed misspeculation back into
    the store → recompile, until the per-loop partition decisions stop
    changing or the iteration budget runs out.

    Each iteration compiles with the store as its profile
    ({!Spt_driver.Pipeline.compile_spt}): the store seeds the
    compilation's profilers, and its accumulated telemetry overrides
    diverging violation probabilities.  Because overrides are
    re-derived from the *accumulated* store each time, a loop the
    feedback despeculates stays despeculated — its old telemetry
    persists even though it produces no new misspeculations — so the
    process converges instead of oscillating. *)

(** One compile+run round. *)
type iteration = {
  it_index : int;  (** 1-based *)
  it_partitions : ((string * int) * int list) list;
      (** selected loops, (function, header) → chosen pre-fork
          violation candidates: the partition signature compared
          across rounds *)
  it_changed : bool;  (** signature differs from the previous round *)
  it_forks : int;
  it_kills : int;
  it_violations : int;
  it_faults : int;
  it_serial_reexecs : int;
  it_iters : int;  (** loop iterations retired, summed over loops *)
  it_speedup : float;  (** measured wall-clock speedup *)
}

type outcome = {
  iterations : iteration list;  (** in execution order, non-empty *)
  converged : bool;
      (** the final iteration's partitions equal the previous one's *)
  store : Spt_profile.Profile_store.t;  (** accumulated profiles + telemetry *)
}

(** Run the loop on MiniC source.  [iters] bounds the rounds (default
    3, stops early on convergence); [threshold] is the divergence
    threshold ({!Spt_driver.Pipeline.default_divergence_threshold});
    [store] continues from earlier accumulated state (default empty —
    profiles are then captured from a profiling pre-run). *)
val run :
  ?config:Spt_driver.Config.t ->
  ?jobs:int ->
  ?iters:int ->
  ?threshold:float ->
  ?store:Spt_profile.Profile_store.t ->
  string ->
  outcome

(** Human-readable per-iteration table. *)
val report : outcome -> string

(** Machine-readable summary, schema [spt-adapt-v1]. *)
val to_json : outcome -> Spt_obs.Json.t
