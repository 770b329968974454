(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around calls into the
   program's public functions; the program's existing phase spans
   (Spt_obs.Trace) and speculation timelines (Spt_obs.Timeline) are
   imported under the span that made the call.  A span has a name, a
   start, an end, a parent and an optional request id; lane 0 is the
   benchmark's own thread, lanes > 0 are runtime worker domains (their
   spans run in parallel with lane 0 and are left out of self times).
   Single-threaded: record only from the thread driving the workload. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  req : int;  (* request id, -1 outside serve requests *)
  lane : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current () = match !stack with id :: _ -> id | [] -> -1
let now = Unix.gettimeofday

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let add ?(req = -1) ?(lane = 0) ~parent name t0 t1 =
  let id = fresh () in
  recorded := { id; name; parent; req; lane; t0; t1 } :: !recorded;
  id

(* [with_id name f] runs [f id] inside span [id]; a no-op wrapper when
   recording is off (f then receives -1) *)
let with_id ?(req = -1) ?parent name f =
  if not !on then f (-1)
  else begin
    let parent = match parent with Some p -> p | None -> current () in
    let id = fresh () in
    let t0 = now () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        recorded := { id; name; parent; req; lane = 0; t0; t1 = now () } :: !recorded)
      (fun () -> f id)
  end

let span ?req ?parent name f = with_id ?req ?parent name (fun _ -> f ())

(* Adopt the program's Spt_obs.Trace phase spans (recorded since the
   last reset) as descendants of [parent], then clear them. *)
let import_trace ~req ~parent =
  let epoch = Spt_obs.Trace.epoch_s () in
  let num k fields =
    match List.assoc_opt k fields with
    | Some (Spt_obs.Json.Float x) -> x
    | Some (Spt_obs.Json.Int n) -> float_of_int n
    | _ -> 0.0
  in
  (* events arrive sorted by start, parents before children: the last
     span opened at depth d - 1 is the parent of a depth-d span *)
  let at_depth = Hashtbl.create 8 in
  List.iter
    (function
      | Spt_obs.Json.Obj fields when List.assoc_opt "ph" fields = Some (Spt_obs.Json.Str "X") ->
        let name = match List.assoc_opt "name" fields with Some (Spt_obs.Json.Str s) -> s | _ -> "?" in
        let depth =
          match List.assoc_opt "args" fields with
          | Some (Spt_obs.Json.Obj a) -> int_of_float (num "depth" a)
          | _ -> 0
        in
        let t0 = epoch +. (num "ts" fields /. 1e6) in
        let t1 = t0 +. (num "dur" fields /. 1e6) in
        let p =
          if depth = 0 then parent
          else Option.value ~default:parent (Hashtbl.find_opt at_depth (depth - 1))
        in
        Hashtbl.replace at_depth depth (add ~req ~parent:p name t0 t1)
      | _ -> ())
    (Spt_obs.Trace.events ());
  Spt_obs.Trace.reset ()

(* Adopt a speculation timeline: master-lane events become children of
   [parent]; worker-lane events are kept on their own lanes. *)
let import_timeline ~parent tl =
  Spt_obs.Timeline.iter_events tl (fun kind ~lane ~lid:_ ~t0 ~t1 ->
      ignore
        (add ~lane ~parent
           ("runtime." ^ Spt_obs.Timeline.kind_name kind)
           t0 t1))

let all () = List.rev !recorded

let reset () =
  recorded := [];
  stack := []

(* Self time per span name over lane 0: duration minus the durations
   of its lane-0 children. *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.lane = 0 && s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.t1 -. s.t0)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.lane = 0 then begin
        let self =
          s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
        in
        Hashtbl.replace by_name s.name
          (Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) +. self)
      end)
    spans;
  by_name

(* total duration and count of the spans named [name] *)
let total spans name =
  List.fold_left
    (fun (t, n) s -> if String.equal s.name name then (t +. (s.t1 -. s.t0), n + 1) else (t, n))
    (0.0, 0) spans

(* Chrome trace_events rendering, one row per lane *)
let to_json spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  Spt_obs.Json.Obj
    [
      ( "traceEvents",
        Spt_obs.Json.List
          (List.map
             (fun s ->
               Spt_obs.Json.Obj
                 [
                   ("name", Spt_obs.Json.Str s.name);
                   ("ph", Spt_obs.Json.Str "X");
                   ("ts", Spt_obs.Json.Float ((s.t0 -. base) *. 1e6));
                   ("dur", Spt_obs.Json.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", Spt_obs.Json.Int 1);
                   ("tid", Spt_obs.Json.Int (s.lane + 1));
                   ( "args",
                     Spt_obs.Json.Obj
                       [
                         ("id", Spt_obs.Json.Int s.id);
                         ("parent", Spt_obs.Json.Int s.parent);
                         ("req", Spt_obs.Json.Int s.req);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Spt_obs.Json.Str "ms");
    ]

(* The ledger: over the lane-0 trees under the "op." roots, the wall
   time (sum of root durations) and the part of it the layer spans'
   self times explain.  Self time of the roots and of [containers]
   (spans whose own time no layer accounts for) is unexplained. *)
let ledger ?(containers = []) spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  let is_op s = String.length s.name > 3 && String.sub s.name 0 3 = "op." in
  let under_op = List.filter (fun s -> s.lane = 0 && is_op (root s)) spans in
  let wall, n =
    List.fold_left
      (fun (w, n) s -> if s.parent < 0 then (w +. (s.t1 -. s.t0), n + 1) else (w, n))
      (0.0, 0) under_op
  in
  let self = self_times under_op in
  let explained =
    Hashtbl.fold
      (fun name t acc ->
        if (String.length name > 3 && String.sub name 0 3 = "op.") || List.mem name containers
        then acc
        else acc +. t)
      self 0.0
  in
  (wall, explained, n)
