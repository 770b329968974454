(** The fleet-scale profile database: shared, decaying, auto-applied
    feedback across runs, processes and users.

    A profile store ({!Spt_profile.Profile_store}) makes one run's
    telemetry improve one recompile.  The profile database makes
    profiles a shared accumulating asset: a directory of per-program entries under
    the cache dir ([<cache>/spt-profdb-v1/]), keyed by the canonical IR
    fingerprint ({!Spt_service.Fingerprint.program} — config- and
    layout-independent, so every client compiling the same program
    shares one entry), each entry holding a {!Spt_profile.Profile_store}
    payload plus generation metadata.

    Writers {!ingest} fresh telemetry with an additive merge under a
    {!Lockfile} (read–decay–merge–replace, atomic rename), so
    concurrent runs, serve workers and other processes never lose each
    other's updates.  On every ingest the accumulated entry is first
    scaled by the decay factor — a generation-[k] observation is
    weighted [decay^(n-k)] after [n] generations, so stale telemetry
    ages out instead of outvoting fresh behaviour forever.

    Readers that compile go through {!guide}, the one place that
    decides whether an explicit store or the database's entry guides a
    compile ({!Spt_service.Cached.compile}, the server's ["run": true]
    workload op, [sptc run --parallel]).

    Entries are stamped with the producing tool version; readers ignore
    entries from an incompatible tool, and *any* malfunction — missing
    file, garbage JSON, wrong schema, wrong fingerprint, a payload
    whose recomputed store digest disagrees with the stamped one —
    degrades to a lookup miss, mirroring the artifact cache's
    corruption contract. *)

(** Directory / stats schema tag ([spt-profdb-v1]). *)
val schema : string

(** Per-entry on-disk schema tag ([spt-profdb-entry-v1]). *)
val entry_schema : string

(** Default generation decay factor (0.5). *)
val default_decay : float

(** [subdir cache_dir] is the database directory under a cache dir. *)
val subdir : string -> string

type t

(** [create ?decay ?max_entries ~tool ~dir ()] opens (lazily — nothing
    touches the disk until the first operation) the database at [dir].
    [decay] is clamped to [0, 1].  [max_entries], when given, bounds
    the entry count: each ingest evicts least-recently-updated entries
    over the bound, mirroring the artifact cache's LRU contract.
    [tool] stamps written entries and filters read ones. *)
val create : ?decay:float -> ?max_entries:int -> tool:string -> dir:string -> unit -> t

(** A disabled database: every lookup misses, every write is a no-op. *)
val no_db : unit -> t

(** [for_cache ?decay ?max_entries ~tool cache_dir] is the database
    under an artifact cache's directory ({!subdir}), or {!no_db} when
    the cache is disabled ([None]). *)
val for_cache :
  ?decay:float -> ?max_entries:int -> tool:string -> string option -> t

val enabled : t -> bool
val dir : t -> string option
val tool : t -> string
val decay : t -> float

(** [lookup db ~fingerprint] is the accumulated store and its
    generation, or [None] on any malfunction (see above). *)
val lookup :
  t -> fingerprint:string -> (Spt_profile.Profile_store.t * int) option

(** [guide db ~fingerprint explicit] picks the store that guides a
    compile of the program with this fingerprint, and the database
    generation it came from.  An [explicit] store (a [--profile-in] file
    or a request's ["profile"]) always wins and reports no generation;
    otherwise the database's entry guides when it is non-empty.  With
    neither, the compile is unguided: [(None, None)].  Only a missing
    [explicit] store costs a {!lookup}. *)
val guide :
  t ->
  fingerprint:string ->
  Spt_profile.Profile_store.t option ->
  Spt_profile.Profile_store.t option * int option

(** [ingest db ~fingerprint fresh] merges one run's telemetry into the
    entry: under the database lock, the stored payload is decayed by
    the decay factor, [fresh] is added, and the entry is atomically
    replaced with its generation incremented.  Returns the new
    generation, or [None] when the database is disabled or the lock
    could not be taken (the ingest is dropped, never blocked on). *)
val ingest :
  t -> fingerprint:string -> Spt_profile.Profile_store.t -> int option

(** [publish db ~fingerprint store] replaces the entry's payload with
    [store] outright (no decay, no merge) — for writers like
    [sptc adapt] whose store already *contains* the looked-up entry, so
    an additive ingest would double-count it.  Still bumps the
    generation; same return contract as {!ingest}. *)
val publish :
  t -> fingerprint:string -> Spt_profile.Profile_store.t -> int option

(** One valid on-disk entry as [entries] reports it. *)
type entry = {
  e_fingerprint : string;
  e_generation : int;
  e_tool : string;
  e_bytes : int;  (** on-disk entry size *)
  e_updated : float;  (** seconds since the epoch of the last write *)
  e_loops : int;  (** loops with recorded telemetry *)
  e_digest : string;  (** the payload store's canonical digest *)
}

(** Valid entries sorted by fingerprint, plus the count of invalid
    files (wrong schema/tool/digest, garbage) sharing the directory. *)
val entries : t -> entry list * int

(** Merged store over the given fingerprint's entry, or over every
    valid entry when [fingerprint] is omitted. *)
val export : ?fingerprint:string -> t -> Spt_profile.Profile_store.t

(** [gc ?max_entries db] deletes invalid files and, when a bound is
    given (defaulting to the database's own), evicts
    least-recently-updated valid entries over it.  Returns
    [(invalid_dropped, evicted)]. *)
val gc : ?max_entries:int -> t -> int * int

(** Instance counters + directory census, schema-tagged [spt-profdb-v1];
    rendered by [sptc top] and embedded in serve [stats] replies. *)
val stats_json : t -> Spt_obs.Json.t
