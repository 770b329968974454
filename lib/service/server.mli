(** [sptc serve] — a line-delimited JSON request/response loop over the
    warm {!Artifact_cache}, so repeated compiles of the same source are
    served from memoized artifacts.

    One request per line, one minified-JSON reply per line.  Requests
    are objects with an ["op"] field; an optional ["id"] field is
    echoed verbatim into the reply for client-side correlation (with
    concurrent serving replies arrive out of order, so clients that
    pipeline must send ids).  Every reply carries
    ["proto":{!protocol_version}].

    - [{"op":"compile","source":SRC}] or [{"op":"compile","file":PATH}]
      — optional ["config"] (default "best"), ["depth"] (a positive
      integer forcing the speculation depth — priced into the compile
      and echoed back; invalid values are rejected), ["profile"] (path
      to a profile store for guided compilation; a path with no file is
      rejected) and ["name"]; replies
      with [cache_hit], the cache [key], [elapsed_s], the report text
      and the full eval JSON.
    - [{"op":"workload","name":N}] — compile a built-in workload.
      With ["run":true] (optional ["jobs"] and ["depth"]), the
      compilation is also executed on the speculative runtime and its
      misspeculation telemetry ingested into the profile database — the
      reply carries the measured speedup, runtime stats, ["guided"] and
      the entry's new ["profdb_gen"], plus the forced ["depth"] when
      the request carried one.
    - [{"op":"stats"}] — request/error/timeout/overloaded/coalesced
      counts, concurrency settings, in-flight depth, cache
      hit/miss/rate, the profile-database census ([spt-profdb-v1]),
      the process-wide hits and misses of the source-digest memo
      ([fingerprint], {!Fingerprint.memo_stats}), the process-wide
      garbage-collector counts from [Gc.quick_stat] with the compile
      workers' nursery ([gc]: [minor_collections],
      [major_collections], [promoted_words], [heap_words],
      [top_heap_words], and [worker_minor_heap_words], the nursery a
      worker of {!serve}'s pool read back after its start hook, null
      until one has started) and the request-latency histogram.
    - [{"op":"shutdown"}] — drain in-flight work, then acknowledge
      (the ack is the final reply) and end the loop.

    Malformed lines, unknown ops, missing fields and compile errors all
    produce [{"ok":false,"error":…}] replies and keep the loop alive —
    the server only stops on ["shutdown"] or end of input.

    {b Concurrency.}  With [jobs > 1], {!serve} dispatches compile and
    workload requests onto a {!Spt_runtime.Pool} of worker domains and
    keeps reading; other ops are answered inline.  Each worker domain
    sets its nursery to {!Worker_nursery.words} when it starts.  Three
    mechanisms bound the work:

    - {e backpressure} — past [queue_max] requests in flight, new work
      is refused immediately with an [{"ok":false,"code":"overloaded"}]
      reply instead of queueing without bound;
    - {e per-request timeouts} — with [timeout_s] set, a watchdog
      domain emits [{"ok":false,"code":"timeout"}] for requests that
      exceed it (the abandoned computation still completes on its
      worker but its reply is suppressed — exactly one reply per id);
    - {e single-flight coalescing} — a request identical to one already
      in flight (the same minified JSON minus ["id"], compared as trees
      by {!Spt_obs.Json.equal_minified}) attaches to it and receives a
      copy of its reply marked ["coalesced":true], so a thundering herd
      of identical compiles does the work once.

    All [t] state is mutex-guarded; {!handle} and {!handle_line} are
    safe to call from multiple domains concurrently. *)

(** Serve-protocol version, echoed as ["proto"] in every reply.
    Version 2 added [proto], [coalesced] and the
    [overloaded]/[timeout] error codes. *)
val protocol_version : int

type t

(** [jobs] (default 1 = sequential) sets the worker-domain count for
    {!serve}; [queue_max] (default 64) the in-flight high-water mark;
    [timeout_s] (default none) the per-request timeout.  [profdb]
    (default: the database under the cache's directory, disabled when
    the cache is) is consulted on every compile without an explicit
    ["profile"] and fed by every ["run":true] workload. *)
val create :
  ?cache:Artifact_cache.t ->
  ?profdb:Spt_profdb.Profdb.t ->
  ?jobs:int ->
  ?queue_max:int ->
  ?timeout_s:float ->
  unit ->
  t

val jobs : t -> int

(** Handle one decoded request.  Thread-safe.

    The ["eval"] of a compile reply (ops ["compile"] and ["workload"]
    without ["run"]) is a {!Spt_obs.Json.Raw}: its
    minified text, rendered once per artifact and kept in a bounded
    memo ({!Slot_memo.reply_slots} slots, texts up to
    {!Slot_memo.reply_max_text} bytes) that answers only for the very
    eval tree the cache handed back, so warm replies splice it instead
    of rendering the tree again.  Render the reply minified to get the
    protocol's bytes. *)
val handle :
  t -> Spt_obs.Json.t -> [ `Reply of Spt_obs.Json.t | `Shutdown of Spt_obs.Json.t ]

(** Handle one raw request line (parse + {!handle} + minify).
    Thread-safe. *)
val handle_line : t -> string -> [ `Reply of string | `Shutdown of string ]

(** Run the loop until ["shutdown"] or EOF, then drain, stop the
    watchdog and shut the pool down.  Replies are flushed after every
    line; with [jobs > 1] they may interleave in completion order. *)
val serve : t -> in_channel -> out_channel -> unit
