(** A concurrent job scheduler over the {!Spt_runtime.Pool} domain
    pool, for fanning whole compilations (or any thunks) across cores.

    All work is submitted up front; each job carries a wall-clock
    budget of [timeout_s] seconds from submission.  A job that raises
    is [Failed]; a job still incomplete at its deadline is reported
    [Timed_out] (OCaml domains cannot be preempted, so its worker keeps
    running but any late result is discarded, and the pool is abandoned
    to process exit instead of joined).  If the pool cannot be created
    at all — domain spawning is the one thing here that can fail — the
    scheduler degrades to running every job sequentially in the calling
    domain, and says so in [stats.degraded].  Each worker domain sets
    its nursery to {!Worker_nursery.words} when it starts (a cold
    [sptc batch -j 2] over the examples and the test corpus measured
    1.76 -> 1.36 s with it).

    {b Dependency-aware clustering.}  {!run_clustered} takes each job
    with a list of digests of its sub-structure (canonical per-function
    fingerprints, say).  Jobs whose digest lists intersect —
    transitively — form a cluster, and a cluster is scheduled as one
    pool job whose members run back to back on the same worker.  Near-
    duplicate compilation units therefore compile right after each
    other, hitting the {!Artifact_cache} while it is warm instead of
    racing each other to a cold miss on separate workers.

    Queue depth, job latency, cluster and failure counts are surfaced
    on the [service.batch.*] metrics. *)

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the job raised; carries [Printexc.to_string] *)
  | Timed_out

type stats = {
  jobs : int;  (** worker domains used (1 when degraded) *)
  submitted : int;
  completed : int;
  failed : int;
  timed_out : int;
  clusters : int;  (** scheduling units after digest clustering *)
  degraded : bool;  (** pool creation failed; ran sequentially *)
  max_queue_depth : int;
  wall_s : float;
  latency : Spt_obs.Metrics.Hist.t;
      (** per-job wall time of every job that ran to completion or
          failure (timed-out jobs have no measurement), built on the
          calling domain after the run — render percentiles with
          {!Spt_obs.Metrics.Hist.to_json} *)
}

(** [cluster items] groups values whose digest lists share an element,
    transitively (union-find).  Clusters are ordered by their earliest
    member, members in submission order; an item with no digests is a
    singleton.  Exposed for testing and for callers that want the
    grouping without the scheduling. *)
val cluster : ('a * string list) list -> 'a list list

(** [run_clustered ~jobs ~timeout_s items] clusters the jobs by shared
    digests, schedules one pool job per cluster, and returns the
    outcomes in submission order.  A cluster whose early members
    exhaust the budget times out its remaining members with it.
    [jobs] defaults to [$SPT_JOBS] or 2; [timeout_s] defaults to
    600. *)
val run_clustered :
  ?jobs:int ->
  ?timeout_s:float ->
  ((unit -> 'a) * string list) list ->
  'a outcome array * stats

(** [run ~jobs ~timeout_s thunks] is {!run_clustered} with every job a
    singleton cluster: plain fan-out in submission order. *)
val run :
  ?jobs:int -> ?timeout_s:float -> (unit -> 'a) list -> 'a outcome array * stats
