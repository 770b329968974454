(** Sharded, size-bounded content-addressed artifact store — see
    artifact_cache.mli. *)

module Json = Spt_obs.Json

let schema = "spt-cache-v2"
let index_schema = "spt-cache-index-v1"

(* process-wide counters (no-ops unless metrics are enabled); per-cache
   counts live in [t] so hit rates survive a disabled registry *)
let m_hits = Spt_obs.Metrics.counter "service.cache.hits"
let m_misses = Spt_obs.Metrics.counter "service.cache.misses"
let m_stores = Spt_obs.Metrics.counter "service.cache.stores"
let m_evictions = Spt_obs.Metrics.counter "service.cache.evictions"
let m_disk_errors = Spt_obs.Metrics.counter "service.cache.disk_errors"

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(* one on-disk entry as the index tracks it: its size and a logical
   last-use tick (monotonic per cache instance) for LRU ordering *)
type dentry = { mutable d_bytes : int; mutable d_used : int }

type t = {
  cdir : string option;  (** [None] iff the cache is disabled *)
  shards : int;
  max_bytes : int option;
  max_entries : int option;
  mem : (string, Json.t) Hashtbl.t;
  disk : (string, dentry) Hashtbl.t;  (** the in-memory index image *)
  mutable disk_loaded : bool;
  mutable total_bytes : int;
  mutable tick : int;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
}

let default_dir () =
  match Sys.getenv_opt "SPT_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
    let base =
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> d
      | _ ->
        Filename.concat
          (Option.value ~default:"." (Sys.getenv_opt "HOME"))
          ".cache"
    in
    Filename.concat base "spt"

let default_shards = 16

let make ?(shards = default_shards) ?max_bytes ?max_entries cdir =
  {
    cdir;
    shards = max 1 shards;
    max_bytes;
    max_entries;
    mem = Hashtbl.create 64;
    disk = Hashtbl.create 64;
    disk_loaded = false;
    total_bytes = 0;
    tick = 0;
    mu = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
  }

let create ?dir ?shards ?max_bytes ?max_entries () =
  make ?shards ?max_bytes ?max_entries
    (Some (match dir with Some d -> d | None -> default_dir ()))

let no_cache () = make None
let enabled t = t.cdir <> None
let dir t = t.cdir
let shards t = t.shards

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* Disk layer *)

(* every on-disk write in this module is write-temp-then-rename
   ([atomic_write]), so a reader never sees a half-written file; keys
   are hex digests, but sanitized anyway ([safe_key]) *)
open Spt_obs.Disk

(* shard fan-out: the key's leading hex byte modulo the shard count, so
   a given key lands in the same shard directory in every process *)
let shard_of t key =
  let k = safe_key key in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | c -> Char.code c land 0xf
  in
  let b =
    match String.length k with
    | 0 -> 0
    | 1 -> hex k.[0]
    | _ -> (hex k.[0] * 16) + hex k.[1]
  in
  b mod t.shards

let root t = Option.map (fun d -> Filename.concat d schema) t.cdir

let file_of t key =
  match root t with
  | None -> None
  | Some r ->
    Some
      (Filename.concat
         (Filename.concat r (Printf.sprintf "%02x" (shard_of t key)))
         (safe_key key ^ ".json"))

let file_path = file_of
let index_path t = Option.map (fun r -> Filename.concat r "index.json") t


(* content digest over the canonical minified payload rendering: stored
   next to the payload and recomputed on load, so silent corruption that
   still parses as JSON (a flipped byte inside a value, a truncated
   list spliced back together, manual edits) degrades to a miss instead
   of replaying a wrong artifact *)
let text_digest text = Digest.to_hex (Digest.string text)
let payload_digest payload = text_digest (Json.to_string ~minify:true payload)

(* the payload is rendered once: its text is both digested and spliced
   into the entry *)
let render_entry key payload =
  let text = Json.to_string ~minify:true payload in
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("key", Json.Str key);
         ("digest", Json.Str (text_digest text));
         ("payload", Json.Raw text);
       ])

(* a miss on *any* malfunction: absent, unreadable, unparsable, wrong
   schema, wrong key (hash collision or tampering), or a payload whose
   recomputed content digest disagrees with the stored one *)
let disk_find t key =
  match file_of t key with
  | None -> None
  | Some path -> (
    match Json.of_string (read_file path) with
    | Ok entry
      when Json.member "schema" entry = Some (Json.Str schema)
           && Json.member "key" entry = Some (Json.Str key) -> (
      match (Json.member "payload" entry, Json.member "digest" entry) with
      | (Some payload as found), Some (Json.Str d)
        when String.equal d (payload_digest payload) ->
        found
      | _ -> None)
    | Ok _ | Error _ -> None
    | exception _ -> None)

(* ------------------------------------------------------------------ *)
(* Index: one JSON file per cache root recording every entry's size and
   last-use tick.  The index is a *performance* structure, never a
   source of truth — entries it lists are still verified on read, and a
   corrupt or missing index is rebuilt by scanning the shard
   directories (sizes from [stat], recency from mtime order). *)

let index_json disk =
  let entries =
    Hashtbl.fold
      (fun key e acc ->
        Json.Obj
          [
            ("key", Json.Str key);
            ("bytes", Json.Int e.d_bytes);
            ("used", Json.Int e.d_used);
          ]
        :: acc)
      disk []
  in
  Json.Obj
    [ ("schema", Json.Str index_schema); ("entries", Json.List entries) ]

(* persisted on store and evict (not on every find: recency bumps are
   flushed with the next write).  Best-effort: a failed write leaves
   the previous index, which rebuild-on-mismatch tolerates.

   Two processes sharing the root (two serve instances on one cache
   dir) race this write, and the index is whole-file replace — so the
   write happens under a cross-process lock file and merges first:
   entries only the on-disk index knows (the other process stored
   them) are kept, our own image wins per key.  If the lock cannot be
   taken promptly the old clobbering write is still better than no
   index at all. *)
let persist_index t =
  match index_path (root t) with
  | None -> ()
  | Some path ->
    let write () =
      let merged = Hashtbl.copy t.disk in
      (match Json.of_string (read_file path) with
      | Ok j when Json.member "schema" j = Some (Json.Str index_schema) -> (
        match Json.member "entries" j with
        | Some (Json.List es) ->
          List.iter
            (fun e ->
              match
                ( Json.member "key" e,
                  Json.member "bytes" e,
                  Json.member "used" e )
              with
              | Some (Json.Str key), Some (Json.Int bytes), Some (Json.Int used)
                when not (Hashtbl.mem merged key) ->
                Hashtbl.replace merged key { d_bytes = bytes; d_used = used }
              | _ -> ())
            es
        | _ -> ())
      | Ok _ | Error _ -> ()
      | exception _ -> ());
      atomic_write path (Json.to_string ~minify:true (index_json merged))
    in
    let lock = Filename.concat (Filename.dirname path) "index.lock" in
    (try
       match Spt_profdb.Lockfile.with_lock ~timeout_s:0.5 lock write with
       | Some () -> ()
       | None ->
         (* lock starvation: the old clobbering write still beats
            leaving a stale index behind *)
         write ()
     with _ -> Spt_obs.Metrics.inc m_disk_errors)

let scan_rebuild t r =
  Hashtbl.reset t.disk;
  t.total_bytes <- 0;
  let files = ref [] in
  Array.iter
    (fun shard ->
      let sdir = Filename.concat r shard in
      if Sys.file_exists sdir && Sys.is_directory sdir then
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".json" then begin
              let path = Filename.concat sdir f in
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                files :=
                  (st_mtime, Filename.chop_suffix f ".json", st_size) :: !files
              | _ | (exception _) -> ()
            end)
          (try Sys.readdir sdir with _ -> [||]))
    (try Sys.readdir r with _ -> [||]);
  (* oldest first, so ticks reconstruct mtime order *)
  List.iter
    (fun (_, key, bytes) ->
      t.tick <- t.tick + 1;
      Hashtbl.replace t.disk key { d_bytes = bytes; d_used = t.tick };
      t.total_bytes <- t.total_bytes + bytes)
    (List.sort compare !files)

let load_index t r =
  let from_file () =
    match index_path (Some r) with
    | None -> false
    | Some path -> (
      match Json.of_string (read_file path) with
      | Ok j when Json.member "schema" j = Some (Json.Str index_schema) -> (
        match Json.member "entries" j with
        | Some (Json.List es) ->
          List.iter
            (fun e ->
              match
                ( Json.member "key" e,
                  Json.member "bytes" e,
                  Json.member "used" e )
              with
              | Some (Json.Str key), Some (Json.Int bytes), Some (Json.Int used)
                ->
                Hashtbl.replace t.disk key { d_bytes = bytes; d_used = used };
                t.total_bytes <- t.total_bytes + bytes;
                if used > t.tick then t.tick <- used
              | _ -> ())
            es;
          true
        | _ -> false)
      | Ok _ | Error _ -> false
      | exception _ -> false)
  in
  if not (from_file ()) then scan_rebuild t r

(* called with [t.mu] held before any disk bookkeeping *)
let ensure_loaded t =
  if (not t.disk_loaded) && enabled t then begin
    t.disk_loaded <- true;
    match root t with None -> () | Some r -> (try load_index t r with _ -> ())
  end

let touch t key =
  match Hashtbl.find_opt t.disk key with
  | Some e ->
    t.tick <- t.tick + 1;
    e.d_used <- t.tick
  | None -> ()

let drop_entry t key =
  (match Hashtbl.find_opt t.disk key with
  | Some e ->
    t.total_bytes <- t.total_bytes - e.d_bytes;
    Hashtbl.remove t.disk key
  | None -> ());
  Hashtbl.remove t.mem key;
  match file_of t key with
  | None -> ()
  | Some path -> ( try Sys.remove path with _ -> ())

let lru_key t =
  Hashtbl.fold
    (fun key e acc ->
      match acc with
      | Some (_, used) when used <= e.d_used -> acc
      | _ -> Some (key, e.d_used))
    t.disk None

(* evict least-recently-used entries until [incoming] more bytes and
   one more entry fit under the configured bounds.  Eviction happens
   *before* the new entry is written, so the on-disk total never
   exceeds the bound, even transiently. *)
let evict_for t ~incoming ~fresh_key =
  let over () =
    let need_entry = if Hashtbl.mem t.disk fresh_key then 0 else 1 in
    let over_bytes =
      match t.max_bytes with
      | Some b -> t.total_bytes + incoming > b
      | None -> false
    in
    let over_entries =
      match t.max_entries with
      | Some n -> Hashtbl.length t.disk + need_entry > n
      | None -> false
    in
    over_bytes || over_entries
  in
  let rec loop () =
    if over () then
      match lru_key t with
      | Some (key, _) ->
        drop_entry t key;
        t.evictions <- t.evictions + 1;
        Spt_obs.Metrics.inc m_evictions;
        loop ()
      | None -> ()
  in
  loop ()

let disk_store t key payload =
  match file_of t key with
  | None -> ()
  | Some path -> (
    try
      let text = render_entry key payload in
      (* +1 for the trailing newline [atomic_write] appends *)
      let incoming = String.length text + 1 in
      (* an entry that alone exceeds the byte bound is not written at
         all (it would evict everything and still break the bound);
         the artifact stays served from memory for this process *)
      let fits =
        match t.max_bytes with Some b -> incoming <= b | None -> true
      in
      if fits then begin
        (* replacing an entry: its old bytes leave the total first *)
        (match Hashtbl.find_opt t.disk key with
        | Some e ->
          t.total_bytes <- t.total_bytes - e.d_bytes;
          Hashtbl.remove t.disk key
        | None -> ());
        evict_for t ~incoming ~fresh_key:key;
        atomic_write path text;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.disk key { d_bytes = incoming; d_used = t.tick };
        t.total_bytes <- t.total_bytes + incoming;
        persist_index t
      end
    with _ -> Spt_obs.Metrics.inc m_disk_errors)

(* ------------------------------------------------------------------ *)

let find t key =
  if not (enabled t) then None
  else
    locked t (fun () ->
        ensure_loaded t;
        let found =
          match Hashtbl.find_opt t.mem key with
          | Some payload ->
            touch t key;
            Some payload
          | None -> (
            match disk_find t key with
            | Some payload ->
              Hashtbl.replace t.mem key payload;
              (* a hit from disk the index never saw (another process
                 wrote it) joins the index so eviction can see it *)
              if not (Hashtbl.mem t.disk key) then begin
                let bytes =
                  match file_of t key with
                  | Some p -> ( try (Unix.stat p).Unix.st_size with _ -> 0)
                  | None -> 0
                in
                Hashtbl.replace t.disk key { d_bytes = bytes; d_used = 0 };
                t.total_bytes <- t.total_bytes + bytes
              end;
              touch t key;
              Some payload
            | None ->
              (* a listed entry that fails verification is dead weight:
                 drop it from the index and the disk so its bytes stop
                 counting against the bound *)
              if Hashtbl.mem t.disk key then drop_entry t key;
              None)
        in
        (match found with
        | Some _ ->
          t.hits <- t.hits + 1;
          Spt_obs.Metrics.inc m_hits
        | None ->
          t.misses <- t.misses + 1;
          Spt_obs.Metrics.inc m_misses);
        found)

let store t key payload =
  if enabled t then
    locked t (fun () ->
        ensure_loaded t;
        Hashtbl.replace t.mem key payload;
        t.stores <- t.stores + 1;
        Spt_obs.Metrics.inc m_stores;
        disk_store t key payload)

let stats t =
  locked t (fun () ->
      ensure_loaded t;
      {
        hits = t.hits;
        misses = t.misses;
        stores = t.stores;
        evictions = t.evictions;
        entries = Hashtbl.length t.disk;
        bytes = t.total_bytes;
      })

let stats_json t =
  let s = stats t in
  let looked_up = s.hits + s.misses in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("dir", match t.cdir with Some d -> Json.Str d | None -> Json.Null);
      ("shards", Json.Int t.shards);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("stores", Json.Int s.stores);
      ("evictions", Json.Int s.evictions);
      ("entries", Json.Int s.entries);
      ("bytes", Json.Int s.bytes);
      ( "max_bytes",
        match t.max_bytes with Some b -> Json.Int b | None -> Json.Null );
      ( "max_entries",
        match t.max_entries with Some n -> Json.Int n | None -> Json.Null );
      ( "hit_rate",
        Json.Float
          (if looked_up = 0 then 0.0
           else float_of_int s.hits /. float_of_int looked_up) );
    ]
