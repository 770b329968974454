(** A reusable fixed-size pool of OCaml 5 domains.

    No external dependencies: [Domain] plus [Mutex]/[Condition] over a
    FIFO job queue.  Jobs are [unit -> unit] thunks; any exception a
    job raises is swallowed (callers that care report completion
    through their own channel, as {!Runtime} does with task statuses). *)

type t

(** [create ~jobs ()] spawns [max 1 jobs] worker domains.  [on_start]
    runs once in each worker domain before it takes jobs (exceptions
    swallowed) — the runtime uses it to register timeline lanes so
    even never-scheduled workers show up as idle in attribution, and
    the compile server and batch driver to give each worker a nursery
    that holds a cold compile ([Spt_service.Worker_nursery]; in OCaml
    5.1 a domain's nursery is its own, so only a hook running in the
    worker can set it).  Without a hook the workers keep the default. *)
val create : ?on_start:(unit -> unit) -> jobs:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** Enqueue a job.  @raise Invalid_argument after [shutdown]. *)
val submit : t -> (unit -> unit) -> unit

(** Jobs submitted and not yet picked up by a worker. *)
val queued : t -> int

(** Jobs currently executing on a worker domain — [queued t + active t]
    is the pool's total in-flight load, what the compile server's
    backpressure watches. *)
val active : t -> int

(** Drain the queue (remaining jobs still run), stop the workers and
    join their domains.  Idempotent. *)
val shutdown : t -> unit
