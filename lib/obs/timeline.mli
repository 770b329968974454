(** Per-domain speculation timelines.

    A [Timeline.t] records the lifecycle events of speculative
    execution — fork, task execution, validate, commit, rollback,
    serial re-execution, kill, inline head chunks — with one
    preallocated ring per recording domain, acquired through
    domain-local storage.  The hot path is one DLS load, four array
    stores and two float adds: no lock, no allocation, no shared
    mutable state, so worker domains record freely while the
    sequential thread commits.

    Per-kind duration sums stay exact for the whole run; the per-event
    detail (what the Chrome trace export and the latency quantiles
    read) is capped at [capacity] events per lane with an explicit
    {!dropped} count, so a pathological run degrades the trace, never
    the attribution.

    Drain ({!summary}, {!to_trace_events}, {!iter_events}) only after
    the recording domains have joined — the runtime does so after its
    pool shutdown. *)

type kind =
  | Fork  (** view creation + task submission *)
  | Exec  (** a speculative task executing on its view *)
  | Validate  (** read-log validation at the task's turn *)
  | Commit  (** merging a validated view into master state *)
  | Rollback  (** discarding a failed view *)
  | Reexec  (** serial recovery on master state *)
  | Kill  (** control divergence discarding downstream tasks *)
  | Chunk
      (** the sequential thread predicting the pre-fork backbone of the
          next iteration chunk *)
  | Compile  (** compiling the program to bytecode ({!Spt_exec}) *)
  | Svp
      (** injecting software value predictions into the backbone view a
          speculative chunk is about to read through *)
  | Inline
      (** the sequential thread running a round's head chunk itself, on
          master state *)

val kind_name : kind -> string

type t

(** [create ()] makes an empty timeline.  [capacity] caps the per-lane
    event detail (default 65536); per-kind sums are unaffected. *)
val create : ?capacity:int -> unit -> t

(** The clock every [t0]/[t1] must come from ([Unix.gettimeofday]). *)
val now : unit -> float

(** Ensure the calling domain has a lane, without recording anything —
    the pool registers idle workers so attribution sees them. *)
val touch : t -> unit

(** [record t kind ~lid ~t0 ~t1] books [t1 - t0] seconds of [kind] for
    loop [lid] on the calling domain's lane.  Use [~t0 ~t1] equal for
    instants (kills). *)
val record : t -> kind -> lid:int -> t0:float -> t1:float -> unit

type lane_summary = {
  ls_lane : int;  (** registration order; 2 + lane is the trace tid *)
  ls_busy_s : float;  (** seconds under any recorded kind *)
  ls_by_kind : (kind * float * int) list;  (** (kind, seconds, events) *)
  ls_events : int;
  ls_dropped : int;
}

(** Per-lane totals, sorted by lane.  Exact even past capacity. *)
val summary : t -> lane_summary list

(** Events recorded (including any past capacity). *)
val events : t -> int

(** Events whose detail was dropped at capacity (sums still counted). *)
val dropped : t -> int

(** Detailed events in lane order (capped at capacity per lane). *)
val iter_events :
  t ->
  (kind -> lane:int -> lid:int -> t0:float -> t1:float -> unit) ->
  unit

(** Estimated seconds this timeline's instrumentation cost the run:
    a once-per-process calibration of the full per-event cost (two
    clock reads + the record) times the events recorded. *)
val overhead_s : t -> float

(** Chrome trace_events (one row per lane at [tid 2 + lane]; the
    pipeline's {!Trace} spans occupy tid 1), timestamps rebased to
    [epoch] (absolute seconds, see {!Trace.epoch_s}) in microseconds,
    sorted by start time.  Feed to {!Trace.append_events}. *)
val to_trace_events : epoch:float -> t -> Json.t list
