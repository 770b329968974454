(** Memoized compilation — see cached.mli. *)

module Json = Spt_obs.Json
open Spt_driver

let tool_version = "1.6.0"
let payload_schema = "spt-artifact-v1"

let m_compiles = Spt_obs.Metrics.counter "service.compiles"
let m_warm = Spt_obs.Metrics.counter "service.compiles_warm"
let h_latency = Spt_obs.Metrics.histogram "service.compile_latency_s"

type outcome = {
  key : string;
  hit : bool;
  eval : Json.t;
  report_text : string;
  elapsed_s : float;
  profile_gen : int option;
}

(* a non-empty profile store changes analysis results, so its digest
   must be part of the key; an empty store behaves as no store *)
let profile_digest = function
  | Some p when not (Spt_profile.Profile_store.is_empty p) ->
    Some (Spt_profile.Profile_store.digest p)
  | Some _ | None -> None

(* the key from the program's digest, computed once per compile *)
let key_of_digest ~config ?profile digest =
  Fingerprint.key_of_digest
    ~config_key:
      (Config.cache_key ?profile:(profile_digest profile) config
      ^ ";tool=" ^ tool_version)
    digest

let key_of ~config ?profile source =
  key_of_digest ~config ?profile (Fingerprint.source source)

(* the per-loop artifacts of pass 1/2: what the partition search chose
   and what selection decided, one record per analyzed loop *)
let partition_artifacts (e : Pipeline.eval) =
  Json.List
    (List.map
       (fun (lr : Pipeline.loop_record) ->
         Json.Obj
           [
             ("func", Json.Str lr.Pipeline.lr_func);
             ("header", Json.Int lr.Pipeline.lr_header);
             ( "decision",
               match lr.Pipeline.lr_decision with
               | Pipeline.Selected -> Json.Str "selected"
               | Pipeline.Rejected r ->
                 Json.Str (Spt_transform.Select.string_of_reason r) );
             ( "cost",
               match lr.Pipeline.lr_cost with
               | Some c -> Json.Float c
               | None -> Json.Null );
             ( "prefork_size",
               match lr.Pipeline.lr_prefork_size with
               | Some s -> Json.Int s
               | None -> Json.Null );
             ("svp", Json.Bool lr.Pipeline.lr_svp);
           ])
       e.Pipeline.loops)

let compile ~cache ~config ?profile ?profdb ~name source =
  let t0 = Unix.gettimeofday () in
  Spt_obs.Metrics.inc m_compiles;
  let digest = Fingerprint.source source in
  (* profile resolution: an explicit store always wins; with none, the
     profile database under the cache dir is consulted by the
     config-independent program fingerprint, so warm traffic gets
     guided compiles with zero client changes *)
  let profile, profile_gen =
    let db =
      match profdb with
      | Some db -> db
      | None ->
        Spt_profdb.Profdb.for_cache ~tool:tool_version
          (Artifact_cache.dir cache)
    in
    Spt_profdb.Profdb.guide db ~fingerprint:digest profile
  in
  let key = key_of_digest ~config ?profile digest in
  let finish hit eval report_text =
    let elapsed_s = Unix.gettimeofday () -. t0 in
    Spt_obs.Metrics.observe h_latency elapsed_s;
    if hit then Spt_obs.Metrics.inc m_warm;
    { key; hit; eval; report_text; elapsed_s; profile_gen }
  in
  let cold () =
    let e = Pipeline.evaluate ~config ?profile source in
    let eval = Report.eval_json ~name e in
    let report_text = Report.compile_text ~name e in
    Artifact_cache.store cache key
      (Json.Obj
         [
           ("schema", Json.Str payload_schema);
           ("name", Json.Str name);
           ("config", Json.Str config.Config.name);
           ("eval", eval);
           ("report_text", Json.Str report_text);
           ("partitions", partition_artifacts e);
         ]);
    finish false eval report_text
  in
  match Artifact_cache.find cache key with
  | Some payload
    when Json.member "schema" payload = Some (Json.Str payload_schema) -> (
    (* a payload that lost a field (manual edit, schema drift) is a
       miss, never an error *)
    match (Json.member "eval" payload, Json.member "report_text" payload) with
    | Some eval, Some (Json.Str report_text) -> finish true eval report_text
    | _ -> cold ())
  | Some _ | None -> cold ()
