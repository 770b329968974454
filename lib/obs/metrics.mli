(** Global registry of named counters, gauges and histograms.

    Instrumented code creates a handle once, at module initialization
    ([let m_nodes = Metrics.counter "partition.nodes_explored"]), and
    updates it on the hot path.  When the registry is disabled (the
    default) an update is one load and one branch — no allocation, no
    hashing — so permanently instrumenting the branch-and-bound search
    or the interpreter costs nothing in production runs.

    Handles are interned by name: two [counter "x"] calls share state.
    Registration happens at handle creation regardless of the enabled
    flag, so a metrics dump always lists the full catalogue (untouched
    metrics report zero). *)

type counter
type gauge

(** Standalone fixed-bucket histograms with quantile estimation.

    96 log-spaced buckets (8 per decade, 1e-9 .. 1e3) cover every
    latency the system produces.  Unlike registry handles, a [Hist.t]
    is {e always on}: the service layer keeps one per server/batch so
    p50/p95/p99 request latency works even with the global registry
    disabled.  Not thread-safe — observe from one thread (the runtime
    and service layers funnel worker timings back to the coordinating
    thread). *)
module Hist : sig
  type t

  val create : unit -> t
  val reset : t -> unit
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  (** 0 when empty. *)
  val min_value : t -> float

  val max_value : t -> float
  val mean : t -> float

  (** [percentile h q] for [q] in [0,1]: cumulative-count walk with
      geometric interpolation inside the landing bucket, clamped to the
      observed min/max.  0 when empty. *)
  val percentile : t -> float -> float

  (** [{"count","sum","min","max","mean","p50","p95","p99"}]. *)
  val to_json : t -> Json.t
end

(** Registry histograms are {!Hist.t}s whose [observe] is gated on the
    enabled flag. *)
type histogram = Hist.t

(** Disabled by default; [sptc --metrics] and the test suite turn it
    on. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

val counter : string -> counter
val inc : counter -> unit
val add : counter -> int -> unit

val gauge : string -> gauge
val set : gauge -> float -> unit

val histogram : string -> histogram
val observe : histogram -> float -> unit

(** A metric's current value.  Histograms expose count/sum/min/max
    (and therefore the mean); [hmin]/[hmax] are meaningless when
    [hcount = 0]. *)
type value =
  | Counter of int
  | Gauge of float
  | Histogram of { hcount : int; hsum : float; hmin : float; hmax : float }

(** All registered metrics, sorted by name. *)
val snapshot : unit -> (string * value) list

val get : string -> value option

(** Zero every value; registrations survive. *)
val reset : unit -> unit

(** Object mapping each metric name to its value; histograms become
    [{"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,
    "p95":..,"p99":..}]. *)
val to_json : unit -> Json.t

(** [since ()] captures the registry for a later {!delta_json} —
    the snapshot/delta pair that isolates one batch job's metrics from
    the cumulative process-wide registry. *)
val since : unit -> (string * value) list

(** Current registry minus a {!since} snapshot: counters and histogram
    count/sum subtract, gauges report their current level, and
    histogram deltas carry only count/sum/mean (min/max and quantiles
    are not recoverable for a window).  Exact when the window saw no
    concurrent instrumented work (e.g. [sptc batch -j 1]); with
    concurrent jobs a window also counts their overlapping updates. *)
val delta_json : (string * value) list -> Json.t
