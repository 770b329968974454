(** On-disk fleet profile database — see profdb.mli. *)

module Json = Spt_obs.Json
module Store = Spt_profile.Profile_store

let schema = "spt-profdb-v1"
let entry_schema = "spt-profdb-entry-v1"
let default_decay = 0.5
let subdir cache_dir = Filename.concat cache_dir schema

let m_lookups = Spt_obs.Metrics.counter "profdb.lookups"
let m_hits = Spt_obs.Metrics.counter "profdb.hits"
let m_misses = Spt_obs.Metrics.counter "profdb.misses"
let m_ingests = Spt_obs.Metrics.counter "profdb.ingests"
let m_publishes = Spt_obs.Metrics.counter "profdb.publishes"
let m_evictions = Spt_obs.Metrics.counter "profdb.evictions"
let m_rejected = Spt_obs.Metrics.counter "profdb.rejected"

type t = {
  pdir : string option;  (** [None] iff disabled *)
  ptool : string;
  pdecay : float;
  max_entries : int option;
  mu : Mutex.t;  (** guards the counters only; disk is lock-file land *)
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable ingests : int;
  mutable publishes : int;
  mutable evictions : int;
  mutable rejected : int;  (** invalid entries seen (any malfunction) *)
}

let make ?(decay = default_decay) ?max_entries ~tool pdir =
  {
    pdir;
    ptool = tool;
    pdecay = Float.max 0.0 (Float.min 1.0 decay);
    max_entries;
    mu = Mutex.create ();
    lookups = 0;
    hits = 0;
    misses = 0;
    ingests = 0;
    publishes = 0;
    evictions = 0;
    rejected = 0;
  }

let create ?decay ?max_entries ~tool ~dir () =
  make ?decay ?max_entries ~tool (Some dir)

let no_db () = make ~tool:"" None

let for_cache ?decay ?max_entries ~tool cache_dir =
  match cache_dir with
  | None -> no_db ()
  | Some d -> create ?decay ?max_entries ~tool ~dir:(subdir d) ()

let enabled t = t.pdir <> None
let dir t = t.pdir
let tool t = t.ptool
let decay t = t.pdecay

let counted t f =
  Mutex.lock t.mu;
  f t;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Disk layer *)

open Spt_obs.Disk

(* fingerprints are hex digests, but sanitized like any store key *)
let entry_file dir fingerprint =
  Filename.concat dir (safe_key fingerprint ^ ".json")

let lock_file dir = Filename.concat dir "lock"

let entry_json ~fingerprint ~tool ~generation ~updated store =
  Json.Obj
    [
      ("schema", Json.Str entry_schema);
      ("fingerprint", Json.Str fingerprint);
      ("tool", Json.Str tool);
      ("generation", Json.Int generation);
      ("updated_s", Json.Float updated);
      (* the store's own canonical digest, recomputed on read: silent
         corruption that still parses degrades to a miss, never to a
         wrong profile steering a compile *)
      ("digest", Json.Str (Store.digest store));
      ("profile", Store.to_json store);
    ]

(* everything a reader can conclude about one entry file *)
type parsed =
  | Absent
  | Invalid  (** unreadable / wrong schema / wrong tool / bad digest *)
  | Entry of Store.t * int * float  (** store, generation, updated_s *)

let parse_entry ~tool ~fingerprint path =
  if not (Sys.file_exists path) then Absent
  else
    match Json.of_string (read_file path) with
    | exception _ -> Invalid
    | Error _ -> Invalid
    | Ok j -> (
      let field k = Json.member k j in
      match
        ( field "schema",
          field "fingerprint",
          field "tool",
          field "generation",
          field "digest",
          field "profile" )
      with
      | ( Some (Json.Str s),
          Some (Json.Str fp),
          Some (Json.Str tl),
          Some (Json.Int generation),
          Some (Json.Str digest),
          Some profile )
        when s = entry_schema && fp = fingerprint && tl = tool -> (
        match Store.of_json profile with
        | Ok store when String.equal (Store.digest store) digest ->
          let updated =
            match field "updated_s" with
            | Some (Json.Float u) -> u
            | Some (Json.Int u) -> float_of_int u
            | _ -> 0.0
          in
          Entry (store, generation, updated)
        | Ok _ | Error _ -> Invalid)
      | _ -> Invalid)

let db_files dir =
  match Sys.readdir dir with
  | exception _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* evict least-recently-updated entries (file mtime order) over the
   bound; called with the database lock held *)
let enforce_bound ?bound t dir =
  match (match bound with Some _ as b -> b | None -> t.max_entries) with
  | None -> ()
  | Some bound ->
    let bound = max 0 bound in
    let stamped =
      List.filter_map
        (fun path ->
          match Unix.stat path with
          | { Unix.st_kind = Unix.S_REG; st_mtime; _ } -> Some (st_mtime, path)
          | _ | (exception _) -> None)
        (db_files dir)
    in
    let over = List.length stamped - bound in
    if over > 0 then
      List.iteri
        (fun i (_, path) ->
          if i < over then begin
            (try Sys.remove path with _ -> ());
            counted t (fun t -> t.evictions <- t.evictions + 1);
            Spt_obs.Metrics.inc m_evictions
          end)
        (List.sort compare stamped)

(* ------------------------------------------------------------------ *)
(* Operations *)

let lookup t ~fingerprint =
  match t.pdir with
  | None -> None
  | Some dir -> (
    counted t (fun t -> t.lookups <- t.lookups + 1);
    Spt_obs.Metrics.inc m_lookups;
    (* no lock: entry replacement is atomic-rename, so a reader sees
       either the old generation or the new one, never a torn file *)
    match parse_entry ~tool:t.ptool ~fingerprint (entry_file dir fingerprint) with
    | Entry (store, generation, _) ->
      counted t (fun t -> t.hits <- t.hits + 1);
      Spt_obs.Metrics.inc m_hits;
      Some (store, generation)
    | Absent ->
      counted t (fun t -> t.misses <- t.misses + 1);
      Spt_obs.Metrics.inc m_misses;
      None
    | Invalid ->
      counted t (fun t ->
          t.misses <- t.misses + 1;
          t.rejected <- t.rejected + 1);
      Spt_obs.Metrics.inc m_misses;
      Spt_obs.Metrics.inc m_rejected;
      None)

let guide t ~fingerprint explicit =
  match explicit with
  | Some _ -> (explicit, None)
  | None -> (
    match lookup t ~fingerprint with
    | Some (store, generation) when not (Store.is_empty store) ->
      (Some store, Some generation)
    | Some _ | None -> (None, None))

(* shared update shape of [ingest] and [publish]: read the current
   entry under the lock, combine, replace atomically *)
let update t ~fingerprint ~combine =
  match t.pdir with
  | None -> None
  | Some dir ->
    let path = entry_file dir fingerprint in
    mkdir_p dir;
    Lockfile.with_lock (lock_file dir) (fun () ->
        let old = parse_entry ~tool:t.ptool ~fingerprint path in
        (match old with
        | Invalid ->
          counted t (fun t -> t.rejected <- t.rejected + 1);
          Spt_obs.Metrics.inc m_rejected
        | Absent | Entry _ -> ());
        let prev =
          match old with Entry (s, g, _) -> Some (s, g) | Absent | Invalid -> None
        in
        let store, generation = combine prev in
        atomic_write path
          (Json.to_string ~minify:true
             (entry_json ~fingerprint ~tool:t.ptool ~generation
                ~updated:(Unix.gettimeofday ()) store));
        enforce_bound t dir;
        generation)

let ingest t ~fingerprint fresh =
  let r =
    update t ~fingerprint ~combine:(fun prev ->
        match prev with
        | Some (old, generation) ->
          (Store.merge (Store.scaled old t.pdecay) fresh, generation + 1)
        | None -> (Store.merge (Store.empty ()) fresh, 1))
  in
  (match r with
  | Some _ ->
    counted t (fun t -> t.ingests <- t.ingests + 1);
    Spt_obs.Metrics.inc m_ingests
  | None -> ());
  r

let publish t ~fingerprint store =
  let r =
    update t ~fingerprint ~combine:(fun prev ->
        let generation = match prev with Some (_, g) -> g + 1 | None -> 1 in
        (store, generation))
  in
  (match r with
  | Some _ ->
    counted t (fun t -> t.publishes <- t.publishes + 1);
    Spt_obs.Metrics.inc m_publishes
  | None -> ());
  r

(* ------------------------------------------------------------------ *)
(* Census: stat / export / gc *)

type entry = {
  e_fingerprint : string;
  e_generation : int;
  e_tool : string;
  e_bytes : int;
  e_updated : float;
  e_loops : int;
  e_digest : string;
}

(* a census parse checks integrity like [parse_entry] but takes the
   fingerprint (and, for [strict=false] callers, the tool) from the
   file itself *)
let census_entry ~tool path =
  match Json.of_string (read_file path) with
  | exception _ -> None
  | Error _ -> None
  | Ok j -> (
    match (Json.member "fingerprint" j, Json.member "tool" j) with
    | Some (Json.Str fp), Some (Json.Str tl) when tl = tool -> (
      match parse_entry ~tool ~fingerprint:fp path with
      | Entry (store, generation, updated) ->
        let bytes =
          match Unix.stat path with
          | { Unix.st_size; _ } -> st_size
          | exception _ -> 0
        in
        Some
          ( {
              e_fingerprint = fp;
              e_generation = generation;
              e_tool = tl;
              e_bytes = bytes;
              e_updated = updated;
              e_loops = List.length (Store.observations store);
              e_digest = Store.digest store;
            },
            store )
      | Absent | Invalid -> None)
    | _ -> None)

let scan t =
  match t.pdir with
  | None -> ([], 0)
  | Some dir ->
    List.fold_left
      (fun (ok, bad) path ->
        match census_entry ~tool:t.ptool path with
        | Some pair -> (pair :: ok, bad)
        | None -> (ok, bad + 1))
      ([], 0) (db_files dir)
    |> fun (ok, bad) ->
    ( List.sort (fun (a, _) (b, _) -> compare a.e_fingerprint b.e_fingerprint) ok,
      bad )

let entries t =
  let ok, bad = scan t in
  (List.map fst ok, bad)

let export ?fingerprint t =
  let ok, _ = scan t in
  let picked =
    match fingerprint with
    | None -> ok
    | Some fp -> List.filter (fun (e, _) -> e.e_fingerprint = fp) ok
  in
  List.fold_left
    (fun acc (_, store) -> Store.merge acc store)
    (Store.empty ()) picked

let gc ?max_entries t =
  match t.pdir with
  | None -> (0, 0)
  | Some dir ->
    let bound =
      match max_entries with Some _ as b -> b | None -> t.max_entries
    in
    let res =
      Lockfile.with_lock (lock_file dir) (fun () ->
          let invalid =
            List.fold_left
              (fun n path ->
                match census_entry ~tool:t.ptool path with
                | Some _ -> n
                | None ->
                  (try Sys.remove path with _ -> ());
                  n + 1)
              0 (db_files dir)
          in
          let before = t.evictions in
          (match bound with
          | Some b -> enforce_bound ~bound:b t dir
          | None -> ());
          (invalid, t.evictions - before))
    in
    Option.value ~default:(0, 0) res

let stats_json t =
  let ok, bad = entries t in
  let bytes = List.fold_left (fun n e -> n + e.e_bytes) 0 ok in
  let top_gen = List.fold_left (fun g e -> max g e.e_generation) 0 ok in
  Mutex.lock t.mu;
  let counters =
    [
      ("lookups", Json.Int t.lookups);
      ("hits", Json.Int t.hits);
      ("misses", Json.Int t.misses);
      ("ingests", Json.Int t.ingests);
      ("publishes", Json.Int t.publishes);
      ("evictions", Json.Int t.evictions);
      ("rejected", Json.Int t.rejected);
    ]
  in
  Mutex.unlock t.mu;
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("enabled", Json.Bool (enabled t));
       ("dir", match t.pdir with Some d -> Json.Str d | None -> Json.Null);
       ("tool", Json.Str t.ptool);
       ("decay", Json.Float t.pdecay);
       ( "max_entries",
         match t.max_entries with Some n -> Json.Int n | None -> Json.Null );
       ("entries", Json.Int (List.length ok));
       ("invalid", Json.Int bad);
       ("bytes", Json.Int bytes);
       ("max_generation", Json.Int top_gen);
     ]
    @ counters
    @ [
        ( "profiles",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("fingerprint", Json.Str e.e_fingerprint);
                     ("generation", Json.Int e.e_generation);
                     ("loops", Json.Int e.e_loops);
                     ("bytes", Json.Int e.e_bytes);
                     ("updated_s", Json.Float e.e_updated);
                     ("digest", Json.Str e.e_digest);
                   ])
               ok) );
      ])
