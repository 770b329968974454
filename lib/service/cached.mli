(** The memoized compilation entry point every service front end
    ([sptc compile]/[batch]/[serve]) goes through.

    The cache key is {!Fingerprint.key} over the lowered IR of the
    source (so whitespace/comment edits still hit), its digest taken
    through the source memo {!Fingerprint.source} (so a text seen before
    skips the front end), plus the full
    {!Spt_driver.Config.cache_key} and {!tool_version} (so a knob
    change or a compiler upgrade misses).  The cached payload carries
    everything a warm request must replay byte-identically: the
    {!Spt_driver.Report.eval_json} object, the rendered
    {!Spt_driver.Report.compile_text}, and the per-loop partition
    artifacts (decision, optimal cost, pre-fork size) of pass 1/2. *)

(** Mixed into every cache key; bump on releases that change analysis
    results so stale artifacts become misses rather than lies. *)
val tool_version : string

(** Version of the cached payload envelope; a payload under a different
    version is recompiled. *)
val payload_schema : string

type outcome = {
  key : string;  (** the content-addressed cache key *)
  hit : bool;
  eval : Spt_obs.Json.t;  (** {!Spt_driver.Report.eval_json} payload *)
  report_text : string;  (** {!Spt_driver.Report.compile_text} output *)
  elapsed_s : float;  (** this request's latency, warm or cold *)
  profile_gen : int option;
      (** generation of the profile-database entry that guided this
          compile, when the profile came from automatic lookup (never
          set for an explicit [?profile]) *)
}

(** The cache key [compile] would use for [source] under [config] —
    exposed for tests and for request de-duplication.  A non-empty
    [profile] store folds its digest into the key
    ({!Spt_driver.Config.cache_key}); an empty one keys as no store. *)
val key_of :
  config:Spt_driver.Config.t ->
  ?profile:Spt_profile.Profile_store.t ->
  string ->
  string

(** Compile [source] (displayed as [name]) under [config], through
    [cache].  A non-empty [profile] store seeds the compilation's
    profilers and injects its telemetry as feedback observations on the
    cold path (and keys warm hits separately from cold ones).

    With no explicit [profile], the profile database is consulted by
    the config-independent program fingerprint
    ({!Spt_profdb.Profdb.guide}): a warmed fingerprint gets a guided
    compile with zero client changes, and the guiding store's digest
    still folds into the key, so guided and unguided artifacts never
    collide.  [profdb] overrides the database (servers pass their
    long-lived instance); the default is the database under [cache]'s
    directory, disabled when the cache is.

    Raises whatever the front end raises on invalid source; cache and
    database malfunctions never raise (they recompute / miss). *)
val compile :
  cache:Artifact_cache.t ->
  config:Spt_driver.Config.t ->
  ?profile:Spt_profile.Profile_store.t ->
  ?profdb:Spt_profdb.Profdb.t ->
  name:string ->
  string ->
  outcome
