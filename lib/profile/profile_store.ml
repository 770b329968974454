(** Persistent profile + telemetry store — see profile_store.mli. *)

module Json = Spt_obs.Json

let schema = "spt-profile-v1"
let m_loaded = Spt_obs.Metrics.counter "feedback.profiles_loaded"
let m_merged = Spt_obs.Metrics.counter "feedback.profiles_merged"

type obs = {
  o_iters : int;
  o_forks : int;
  o_commits : int;
  o_violations : int;
  o_faults : int;
  o_kills : int;
  o_despecs : int;
  o_serial_reexecs : int;
  o_stale_other : int;
  o_stale_regions : (int * int) list;
  o_svp : (int * (int * int * int)) list;
}

type t = {
  blocks : (string * int, int) Hashtbl.t;
  edges : (string * int * int, int) Hashtbl.t;
  entries : (string, int) Hashtbl.t;
  deps : ((string * int) * int * int * Dep_profile.dep_kind, int) Hashtbl.t;
  writes : ((string * int) * int, int) Hashtbl.t;
  strides : (string * int * int64, int) Hashtbl.t;
  telem : (string * int, obs) Hashtbl.t;
}

let empty () =
  {
    blocks = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    entries = Hashtbl.create 16;
    deps = Hashtbl.create 64;
    writes = Hashtbl.create 64;
    strides = Hashtbl.create 32;
    telem = Hashtbl.create 8;
  }

let has_profiles t =
  Hashtbl.length t.blocks > 0
  || Hashtbl.length t.edges > 0
  || Hashtbl.length t.entries > 0
  || Hashtbl.length t.deps > 0
  || Hashtbl.length t.writes > 0
  || Hashtbl.length t.strides > 0

let is_empty t = (not (has_profiles t)) && Hashtbl.length t.telem = 0

let bump tbl key n =
  if n > 0 then
    Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* ------------------------------------------------------------------ *)
(* Profiler conversions *)

let absorb_profiles t ep dp vp =
  let ed = Edge_profile.export ep in
  List.iter (fun (k, n) -> bump t.blocks k n) ed.Edge_profile.d_blocks;
  List.iter (fun (k, n) -> bump t.edges k n) ed.Edge_profile.d_edges;
  List.iter (fun (k, n) -> bump t.entries k n) ed.Edge_profile.d_entries;
  let dd = Dep_profile.export dp in
  List.iter
    (fun ((lk, w, r, k), n) -> bump t.deps (lk, w, r, k) n)
    dd.Dep_profile.d_deps;
  List.iter (fun (k, n) -> bump t.writes k n) dd.Dep_profile.d_writes;
  let vd = Value_profile.export vp in
  List.iter
    (fun ((f, iid), strides) ->
      List.iter (fun (s, n) -> bump t.strides (f, iid, s) n) strides)
    vd.Value_profile.d_strides

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let seed t ep dp vp =
  Edge_profile.absorb ep
    {
      Edge_profile.d_blocks = sorted_bindings t.blocks;
      d_edges = sorted_bindings t.edges;
      d_entries = sorted_bindings t.entries;
    };
  Dep_profile.absorb dp
    {
      Dep_profile.d_deps =
        List.map
          (fun ((lk, w, r, k), n) -> ((lk, w, r, k), n))
          (sorted_bindings t.deps);
      d_writes = sorted_bindings t.writes;
    };
  (* regroup the flat stride counters per value-profile target *)
  let per_target = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (f, iid, s) n ->
      Hashtbl.replace per_target (f, iid)
        ((s, n)
        :: Option.value ~default:[] (Hashtbl.find_opt per_target (f, iid))))
    t.strides;
  Value_profile.absorb vp
    {
      Value_profile.d_strides =
        List.map
          (fun (k, strides) -> (k, List.sort compare strides))
          (sorted_bindings per_target);
    }

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let merge_counts a b =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (sid, n) -> bump tbl sid n) a;
  List.iter (fun (sid, n) -> bump tbl sid n) b;
  sorted_bindings tbl

(* per-variable SVP triples add componentwise under the same vid *)
let merge_svp a b =
  let tbl = Hashtbl.create 8 in
  let add (vid, (p, h, m)) =
    let p0, h0, m0 =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl vid)
    in
    Hashtbl.replace tbl vid (p0 + p, h0 + h, m0 + m)
  in
  List.iter add a;
  List.iter add b;
  sorted_bindings tbl

let add_obs a b =
  {
    o_iters = a.o_iters + b.o_iters;
    o_forks = a.o_forks + b.o_forks;
    o_commits = a.o_commits + b.o_commits;
    o_violations = a.o_violations + b.o_violations;
    o_faults = a.o_faults + b.o_faults;
    o_kills = a.o_kills + b.o_kills;
    o_despecs = a.o_despecs + b.o_despecs;
    o_serial_reexecs = a.o_serial_reexecs + b.o_serial_reexecs;
    o_stale_other = a.o_stale_other + b.o_stale_other;
    o_stale_regions = merge_counts a.o_stale_regions b.o_stale_regions;
    o_svp = merge_svp a.o_svp b.o_svp;
  }

let add_observation t ~func ~header ob =
  let ob =
    {
      ob with
      o_stale_regions = List.sort compare ob.o_stale_regions;
      o_svp = List.sort compare ob.o_svp;
    }
  in
  Hashtbl.replace t.telem (func, header)
    (match Hashtbl.find_opt t.telem (func, header) with
    | Some prev -> add_obs prev ob
    | None -> ob)

let observations t = sorted_bindings t.telem

(* ------------------------------------------------------------------ *)
(* Merge *)

let absorb_store dst src =
  Hashtbl.iter (fun k n -> bump dst.blocks k n) src.blocks;
  Hashtbl.iter (fun k n -> bump dst.edges k n) src.edges;
  Hashtbl.iter (fun k n -> bump dst.entries k n) src.entries;
  Hashtbl.iter (fun k n -> bump dst.deps k n) src.deps;
  Hashtbl.iter (fun k n -> bump dst.writes k n) src.writes;
  Hashtbl.iter (fun k n -> bump dst.strides k n) src.strides;
  Hashtbl.iter
    (fun (func, header) ob -> add_observation dst ~func ~header ob)
    src.telem

let merge a b =
  Spt_obs.Metrics.inc m_merged;
  let t = empty () in
  absorb_store t a;
  absorb_store t b;
  t

(* ------------------------------------------------------------------ *)
(* Decay *)

let obs_is_zero o =
  o.o_iters = 0 && o.o_forks = 0 && o.o_commits = 0 && o.o_violations = 0
  && o.o_faults = 0 && o.o_kills = 0 && o.o_despecs = 0
  && o.o_serial_reexecs = 0 && o.o_stale_other = 0 && o.o_stale_regions = []
  && o.o_svp = []

let scaled t f =
  (* floor, never round: decay must be monotone and must reach zero,
     otherwise a count of 1 at factor 0.5 would survive forever *)
  let s n = if n <= 0 then 0 else int_of_float (floor (float_of_int n *. f)) in
  let dst = empty () in
  if f > 0.0 then begin
    Hashtbl.iter (fun k n -> bump dst.blocks k (s n)) t.blocks;
    Hashtbl.iter (fun k n -> bump dst.edges k (s n)) t.edges;
    Hashtbl.iter (fun k n -> bump dst.entries k (s n)) t.entries;
    Hashtbl.iter (fun k n -> bump dst.deps k (s n)) t.deps;
    Hashtbl.iter (fun k n -> bump dst.writes k (s n)) t.writes;
    Hashtbl.iter (fun k n -> bump dst.strides k (s n)) t.strides;
    Hashtbl.iter
      (fun (func, header) o ->
        let o' =
          {
            o_iters = s o.o_iters;
            o_forks = s o.o_forks;
            o_commits = s o.o_commits;
            o_violations = s o.o_violations;
            o_faults = s o.o_faults;
            o_kills = s o.o_kills;
            o_despecs = s o.o_despecs;
            o_serial_reexecs = s o.o_serial_reexecs;
            o_stale_other = s o.o_stale_other;
            o_stale_regions =
              List.filter_map
                (fun (sid, n) ->
                  let n = s n in
                  if n > 0 then Some (sid, n) else None)
                o.o_stale_regions;
            o_svp =
              List.filter_map
                (fun (vid, (p, h, m)) ->
                  let p = s p and h = s h and m = s m in
                  if p > 0 || h > 0 || m > 0 then Some (vid, (p, h, m))
                  else None)
                o.o_svp;
          }
        in
        if not (obs_is_zero o') then add_observation dst ~func ~header o')
      t.telem
  end;
  dst

(* ------------------------------------------------------------------ *)
(* Canonical JSON *)

let to_json t =
  let blocks =
    List.map
      (fun ((f, b), n) ->
        Json.Obj [ ("func", Json.Str f); ("block", Json.Int b); ("count", Json.Int n) ])
      (sorted_bindings t.blocks)
  in
  let edges =
    List.map
      (fun ((f, s, d), n) ->
        Json.Obj
          [
            ("func", Json.Str f); ("src", Json.Int s); ("dst", Json.Int d);
            ("count", Json.Int n);
          ])
      (sorted_bindings t.edges)
  in
  let entries =
    List.map
      (fun (f, n) -> Json.Obj [ ("func", Json.Str f); ("count", Json.Int n) ])
      (sorted_bindings t.entries)
  in
  let deps =
    List.map
      (fun (((f, h), w, r, k), n) ->
        Json.Obj
          [
            ("func", Json.Str f); ("header", Json.Int h);
            ("writer", Json.Int w); ("reader", Json.Int r);
            ("kind", Json.Str (Dep_profile.string_of_kind k));
            ("count", Json.Int n);
          ])
      (sorted_bindings t.deps)
  in
  let writes =
    List.map
      (fun (((f, h), w), n) ->
        Json.Obj
          [
            ("func", Json.Str f); ("header", Json.Int h);
            ("writer", Json.Int w); ("count", Json.Int n);
          ])
      (sorted_bindings t.writes)
  in
  let values =
    List.map
      (fun ((f, iid, s), n) ->
        Json.Obj
          [
            ("func", Json.Str f); ("iid", Json.Int iid);
            (* int64 strides travel as strings: Json.Int is an OCaml int *)
            ("stride", Json.Str (Int64.to_string s));
            ("count", Json.Int n);
          ])
      (sorted_bindings t.strides)
  in
  let telemetry =
    List.map
      (fun ((f, h), o) ->
        Json.Obj
          [
            ("func", Json.Str f); ("header", Json.Int h);
            ("iters", Json.Int o.o_iters); ("forks", Json.Int o.o_forks);
            ("commits", Json.Int o.o_commits);
            ("violations", Json.Int o.o_violations);
            ("faults", Json.Int o.o_faults); ("kills", Json.Int o.o_kills);
            ("despecs", Json.Int o.o_despecs);
            ("serial_reexecs", Json.Int o.o_serial_reexecs);
            ("stale_other", Json.Int o.o_stale_other);
            ( "stale_regions",
              Json.List
                (List.map
                   (fun (sid, n) ->
                     Json.Obj [ ("sid", Json.Int sid); ("count", Json.Int n) ])
                   o.o_stale_regions) );
            ( "svp",
              Json.List
                (List.map
                   (fun (vid, (p, h, m)) ->
                     Json.Obj
                       [
                         ("vid", Json.Int vid); ("predicts", Json.Int p);
                         ("hits", Json.Int h); ("mispredicts", Json.Int m);
                       ])
                   o.o_svp) );
          ])
      (sorted_bindings t.telem)
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("blocks", Json.List blocks);
      ("edges", Json.List edges);
      ("entries", Json.List entries);
      ("deps", Json.List deps);
      ("writes", Json.List writes);
      ("values", Json.List values);
      ("telemetry", Json.List telemetry);
    ]

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let str key j =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | _ -> fail "missing string %S" key

let int key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | _ -> fail "missing int %S" key

let arr key j =
  match Json.member key j with
  | Some (Json.List l) -> l
  | _ -> fail "missing array %S" key

let of_json j =
  try
    (match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> ()
    | _ -> fail "schema mismatch");
    let t = empty () in
    List.iter
      (fun e -> bump t.blocks (str "func" e, int "block" e) (int "count" e))
      (arr "blocks" j);
    List.iter
      (fun e ->
        bump t.edges (str "func" e, int "src" e, int "dst" e) (int "count" e))
      (arr "edges" j);
    List.iter
      (fun e -> bump t.entries (str "func" e) (int "count" e))
      (arr "entries" j);
    List.iter
      (fun e ->
        let kind =
          match Dep_profile.kind_of_string (str "kind" e) with
          | Some k -> k
          | None -> fail "bad dep kind"
        in
        bump t.deps
          ((str "func" e, int "header" e), int "writer" e, int "reader" e, kind)
          (int "count" e))
      (arr "deps" j);
    List.iter
      (fun e ->
        bump t.writes
          ((str "func" e, int "header" e), int "writer" e)
          (int "count" e))
      (arr "writes" j);
    List.iter
      (fun e ->
        let stride =
          match Int64.of_string_opt (str "stride" e) with
          | Some s -> s
          | None -> fail "bad stride"
        in
        bump t.strides (str "func" e, int "iid" e, stride) (int "count" e))
      (arr "values" j);
    List.iter
      (fun e ->
        add_observation t ~func:(str "func" e) ~header:(int "header" e)
          {
            o_iters = int "iters" e;
            o_forks = int "forks" e;
            o_commits = int "commits" e;
            o_violations = int "violations" e;
            o_faults = int "faults" e;
            o_kills = int "kills" e;
            o_despecs = int "despecs" e;
            o_serial_reexecs = int "serial_reexecs" e;
            o_stale_other = int "stale_other" e;
            o_stale_regions =
              List.map
                (fun r -> (int "sid" r, int "count" r))
                (arr "stale_regions" e);
            o_svp =
              (* absent in pre-1.6 stores: default to no predictions *)
              (match Json.member "svp" e with
              | Some (Json.List l) ->
                List.map
                  (fun r ->
                    ( int "vid" r,
                      (int "predicts" r, int "hits" r, int "mispredicts" r) ))
                  l
              | Some _ -> fail "bad svp"
              | None -> []);
          })
      (arr "telemetry" j);
    Ok t
  with Malformed m -> Error m

let digest t =
  Digest.to_hex (Digest.string (Json.to_string ~minify:true (to_json t)))

let save t path = Spt_obs.Disk.atomic_write path (Json.to_string (to_json t))

let load path =
  if not (Sys.file_exists path) then empty ()
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception _ -> empty ()
    | text -> (
      match Json.of_string text with
      | Error e ->
        Spt_obs.Log.warn "[feedback] %s: unreadable profile store (%s)" path e;
        empty ()
      | Ok j -> (
        match of_json j with
        | Ok t ->
          Spt_obs.Metrics.inc m_loaded;
          t
        | Error e ->
          Spt_obs.Log.warn "[feedback] %s: malformed profile store (%s)" path
            e;
          empty ()))

let load_explicit path =
  if Sys.file_exists path && not (Sys.is_directory path) then Ok (load path)
  else Error (path ^ ": no such profile store")
