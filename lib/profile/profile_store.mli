(** The persistent profile store: a versioned on-disk rendering of the
    three compile-time profiles (edge / dependence / value) plus the
    runtime's per-loop misspeculation telemetry, keyed by function and
    loop header.

    The store is the medium of the profile-guided feedback loop: a run
    exports what it measured, and a later compilation that takes the
    store as its profile ({!Spt_driver.Pipeline.compile_spt}) merges its
    counts back in ([seed]) and overrides diverging violation
    probabilities from the observed rates ({!observations}).  Counts add under {!merge}, so merging two runs
    behaves as one longer run, and the JSON rendering is canonical —
    sorted keys, minified digest input — so {!digest} is a stable
    fingerprint suitable for cache keys
    ({!Spt_driver.Config.cache_key}).

    Like the artifact cache, the store never turns corruption into an
    error: {!load} of a missing, unreadable, mis-versioned or malformed
    file degrades to the empty store. *)

(** On-disk schema tag ([spt-profile-v1]); a file under any other tag
    loads as empty. *)
val schema : string

(** Observed runtime behaviour of one transformed loop, in the
    runtime's §3 vocabulary ({!Spt_runtime.Runtime.loop_stats}). *)
type obs = {
  o_iters : int;
  o_forks : int;
  o_commits : int;
  o_violations : int;
  o_faults : int;
  o_kills : int;
  o_despecs : int;
  o_serial_reexecs : int;
  o_stale_other : int;  (** register / RNG validation failures *)
  o_stale_regions : (int * int) list;
      (** per store-region sid, sorted — memory validation failures *)
  o_svp : (int * (int * int * int)) list;
      (** per predicted variable id, sorted — software-value-prediction
          (predicts, hits, mispredicts) from the runtime predictor;
          absent (= empty) in stores written before 1.6 *)
}

type t

val empty : unit -> t

(** No profile counts and no telemetry at all. *)
val is_empty : t -> bool

(** Any edge / dependence / value counts present (telemetry aside). *)
val has_profiles : t -> bool

(** Export the three profilers' counters into the store (adds). *)
val absorb_profiles :
  t ->
  Edge_profile.t ->
  Dep_profile.t ->
  Value_profile.t ->
  unit

(** Merge the store's counts into freshly built profilers.  A compile
    guided by the store ({!Spt_driver.Pipeline.compile_spt}'s
    [?profile]) calls it after every profiling pass. *)
val seed :
  t ->
  Edge_profile.t ->
  Dep_profile.t ->
  Value_profile.t ->
  unit

(** Add one loop's observed outcomes (counts add on repeat). *)
val add_observation : t -> func:string -> header:int -> obs -> unit

(** Every recorded loop observation, sorted by (function, header). *)
val observations : t -> ((string * int) * obs) list

(** Fresh store holding the sums of both arguments ([merge] is
    commutative and associative up to {!digest}). *)
val merge : t -> t -> t

(** [scaled t f] is a fresh store with every counter of [t] multiplied
    by [f] and floored.  Flooring (never rounding) makes repeated decay
    monotone — a count can only shrink, and any count eventually
    reaches zero and drops out of the store entirely — which is what
    lets the profile database age stale telemetry out instead of
    letting a single ancient observation linger forever.  [f <= 0]
    yields the empty store; [scaled t 1.0] is a copy. *)
val scaled : t -> float -> t

(** Canonical JSON rendering (sorted keys, schema-tagged). *)
val to_json : t -> Spt_obs.Json.t

val of_json : Spt_obs.Json.t -> (t, string) result

(** MD5 over the canonical minified JSON: equal iff the counts are. *)
val digest : t -> string

(** Write the canonical rendering, write-temp-then-rename
    ({!Spt_obs.Disk.atomic_write}): an interrupted save leaves the
    previous file, never a truncated one.  [save]/[load]/[save]
    round-trips byte-identically. *)
val save : t -> string -> unit

(** Read a store back; any malfunction degrades to {!empty}.  The
    paths that merge into a store and write it back use this, so their
    first run starts from an empty store. *)
val load : string -> t

(** {!load} for a store named to guide a compile ([--profile-in], the
    serve ["profile"] field): [Error] naming [path] when no file is
    there (nothing, or a directory).  An explicit store overrides the
    profile database even when empty, so a mistyped path must not
    stand in for the empty store. *)
val load_explicit : string -> (t, string) result
