(** Load-test harness for the compile server: simulate many concurrent
    clients issuing a mixed blend of requests against the real
    {!Spt_service.Server}, and report throughput and latency
    percentiles against a serial replay of the same stream.

    A run has three phases over one server and one shared artifact
    cache:

    + {e pre-warm} — every distinct request shape is compiled once, so
      the measured phases start against a warm cache;
    + {e serial} — the request stream replayed one request at a time
      (a single client with one request in flight);
    + {e concurrent} — the same stream (same seed, same kind sequence;
      cold parameters are phase-unique so neither phase hits the
      other's cold artifacts) issued by [clients] concurrent clients.

    In the default [`Serve] mode both phases speak the line protocol to
    a [Server.serve] loop running in its own domain over a pair of
    pipes — a router domain correlates replies to waiting clients by
    their ["id"] echo, exactly as a pipelining network client would.
    The concurrent phase therefore exercises everything the serve loop
    does under load: pool dispatch, reply interleaving, single-flight
    coalescing of identical in-flight requests.  [`Inproc] mode skips
    the plumbing and has client domains call the thread-safe
    [Server.handle_line] directly, measuring raw handler parallelism.

    The request blend mixes [cold] (unique source, always a cache
    miss), [warm] (a small fixed family of sources, cache hits) and
    [guided] (warm source compiled under a profile store) requests. *)

val schema : string
(** ["spt-loadtest-v1"]. *)

module Blend : sig
  type t = { cold : int; warm : int; guided : int }

  val default : t
  (** [cold=1, warm=7, guided=1]. *)

  val of_string : string -> (t, string) result
  (** Parse ["warm=7,cold=1,guided=1"] — unlisted kinds get
      weight 0, at least one weight must be positive. *)

  val to_string : t -> string
  val to_json : t -> Spt_obs.Json.t
end

type mode = [ `Serve | `Inproc ]

type result = {
  mode : mode;
  clients : int;
  server_jobs : int;
  blend : Blend.t;
  seed : int;
  requests : int;  (** concurrent-phase request count *)
  errors : int;  (** concurrent-phase [ok:false] replies *)
  coalesced : int;  (** replies served by single-flight coalescing *)
  wall_s : float;
  throughput_rps : float;
  latency : Spt_obs.Metrics.Hist.t;  (** concurrent per-request latency *)
  serial_requests : int;
  serial_errors : int;
  serial_wall_s : float;
  serial_rps : float;
  speedup_vs_serial : float;  (** concurrent rps / serial rps *)
  cache_stats : Spt_obs.Json.t;  (** the shared cache, post-run *)
}

val run :
  ?mode:mode ->
  ?clients:int ->
  ?requests:int ->
  ?blend:Blend.t ->
  ?seed:int ->
  ?server_jobs:int ->
  ?cache:Spt_service.Artifact_cache.t ->
  unit ->
  result
(** Run a load test.  Defaults: [`Serve] mode, 8 clients, 128 requests
    per phase, {!Blend.default}, seed 42, 4 server worker domains, a
    fresh cache under the system temp directory.  Client concurrency is
    capped at 16 driver domains; more [clients] are multiplexed onto
    them.  Deterministic for a given seed (timings aside). *)

val to_json : result -> Spt_obs.Json.t
(** The [spt-loadtest-v1] rendering: throughput, latency percentiles,
    the serial baseline, speedup and cache stats. *)
