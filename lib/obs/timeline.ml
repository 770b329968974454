(** Per-domain speculation timelines — see timeline.mli. *)

type kind =
  | Fork
  | Exec
  | Validate
  | Commit
  | Rollback
  | Reexec
  | Kill
  | Chunk
  | Compile
  | Svp
  | Inline

let n_kinds = 11

let kind_index = function
  | Fork -> 0
  | Exec -> 1
  | Validate -> 2
  | Commit -> 3
  | Rollback -> 4
  | Reexec -> 5
  | Kill -> 6
  | Chunk -> 7
  | Compile -> 8
  | Svp -> 9
  | Inline -> 10

let kind_of_index =
  [|
    Fork; Exec; Validate; Commit; Rollback; Reexec; Kill; Chunk; Compile; Svp;
    Inline;
  |]

let kind_name = function
  | Fork -> "fork"
  | Exec -> "exec"
  | Validate -> "validate"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Reexec -> "reexec"
  | Kill -> "kill"
  | Chunk -> "chunk"
  | Compile -> "compile"
  | Svp -> "svp"
  | Inline -> "inline"

(* One ring per recording domain, owned exclusively by that domain:
   the hot path touches no lock and no shared structure.  Per-kind
   duration sums are exact regardless of capacity; the event detail
   (for the trace export and latency quantiles) drops past capacity
   with an honest [dropped] count. *)
type ring = {
  lane : int;
  sums : float array; (* seconds, per kind *)
  counts : int array;
  ev_kind : int array;
  ev_lid : int array;
  ev_t0 : float array;
  ev_t1 : float array;
  mutable n : int;
  mutable dropped : int;
  capacity : int;
}

type t = {
  mu : Mutex.t;
  mutable rings : ring list; (* newest-registered first *)
  capacity : int;
  slot : ring option ref Domain.DLS.key;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  {
    mu = Mutex.create ();
    rings = [];
    capacity = max 16 capacity;
    slot = Domain.DLS.new_key (fun () -> ref None);
  }

let now () = Unix.gettimeofday ()

let make_ring ~capacity lane =
  {
    lane;
    sums = Array.make n_kinds 0.0;
    counts = Array.make n_kinds 0;
    ev_kind = Array.make capacity 0;
    ev_lid = Array.make capacity 0;
    ev_t0 = Array.make capacity 0.0;
    ev_t1 = Array.make capacity 0.0;
    n = 0;
    dropped = 0;
    capacity;
  }

(* fast path: one DLS load and a ref dereference *)
let ring_for t =
  let slot = Domain.DLS.get t.slot in
  match !slot with
  | Some r -> r
  | None ->
    Mutex.lock t.mu;
    let r = make_ring ~capacity:t.capacity (List.length t.rings) in
    t.rings <- r :: t.rings;
    Mutex.unlock t.mu;
    slot := Some r;
    r

let touch t = ignore (ring_for t)

let record t kind ~lid ~t0 ~t1 =
  let r = ring_for t in
  let k = kind_index kind in
  r.sums.(k) <- r.sums.(k) +. (t1 -. t0);
  r.counts.(k) <- r.counts.(k) + 1;
  if r.n < r.capacity then begin
    r.ev_kind.(r.n) <- k;
    r.ev_lid.(r.n) <- lid;
    r.ev_t0.(r.n) <- t0;
    r.ev_t1.(r.n) <- t1;
    r.n <- r.n + 1
  end
  else r.dropped <- r.dropped + 1

(* ------------------------------------------------------------------ *)
(* Draining — only meaningful once recording domains have joined *)

let sorted_rings t =
  Mutex.lock t.mu;
  let rings = t.rings in
  Mutex.unlock t.mu;
  List.sort (fun a b -> compare a.lane b.lane) rings

type lane_summary = {
  ls_lane : int;
  ls_busy_s : float;
  ls_by_kind : (kind * float * int) list; (* (kind, seconds, events) *)
  ls_events : int;
  ls_dropped : int;
}

let summary t =
  List.map
    (fun r ->
      {
        ls_lane = r.lane;
        ls_busy_s = Array.fold_left ( +. ) 0.0 r.sums;
        ls_by_kind =
          List.init n_kinds (fun k ->
              (kind_of_index.(k), r.sums.(k), r.counts.(k)));
        ls_events = Array.fold_left ( + ) 0 r.counts;
        ls_dropped = r.dropped;
      })
    (sorted_rings t)

let events t =
  List.fold_left
    (fun acc r -> acc + Array.fold_left ( + ) 0 r.counts)
    0 (sorted_rings t)

let dropped t =
  List.fold_left (fun acc r -> acc + r.dropped) 0 (sorted_rings t)

let iter_events t f =
  List.iter
    (fun r ->
      for i = 0 to r.n - 1 do
        f kind_of_index.(r.ev_kind.(i)) ~lane:r.lane ~lid:r.ev_lid.(i)
          ~t0:r.ev_t0.(i) ~t1:r.ev_t1.(i)
      done)
    (sorted_rings t)

(* ------------------------------------------------------------------ *)
(* Self-calibrated overhead: time the full per-event cost (the two
   clock reads the instrumentation site pays plus the record itself)
   against a scratch timeline, once per process.  [overhead_s] is then
   an honest per-run estimate: per-event cost x events recorded. *)

let per_event_cost =
  lazy
    (let scratch = create ~capacity:1024 () in
     let n = 20_000 in
     let t0 = Unix.gettimeofday () in
     for _ = 1 to n do
       let a = Unix.gettimeofday () in
       let b = Unix.gettimeofday () in
       record scratch Exec ~lid:0 ~t0:a ~t1:b
     done;
     (Unix.gettimeofday () -. t0) /. float_of_int n)

(* [events] already includes drops — every record call pays the cost
   whether or not its detail was kept *)
let overhead_s t = Lazy.force per_event_cost *. float_of_int (events t)

(* ------------------------------------------------------------------ *)
(* Chrome trace_events export: one thread row per lane (tid 2 + lane —
   the pipeline's own spans sit on tid 1), timestamps rebased to the
   caller's epoch in microseconds.  Instants (zero-duration kills)
   export as "i" events, everything else as complete "X" spans. *)

let trace_event ~epoch ~lane ~kind ~lid ~t0 ~t1 =
  let ts = (t0 -. epoch) *. 1e6 in
  let dur = (t1 -. t0) *. 1e6 in
  let base =
    [
      ("name", Json.Str (kind_name kind));
      ("cat", Json.Str "runtime");
      ("ts", Json.Float ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int (2 + lane));
      ("args", Json.Obj [ ("loop", Json.Int lid) ]);
    ]
  in
  if dur <= 0.0 then
    Json.Obj (base @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ])
  else Json.Obj (base @ [ ("ph", Json.Str "X"); ("dur", Json.Float dur) ])

let to_trace_events ~epoch t =
  let acc = ref [] in
  iter_events t (fun kind ~lane ~lid ~t0 ~t1 ->
      acc := trace_event ~epoch ~lane ~kind ~lid ~t0 ~t1 :: !acc);
  List.stable_sort
    (fun a b ->
      let ts = function
        | Json.Obj fields -> (
          match List.assoc_opt "ts" fields with
          | Some (Json.Float t) -> t
          | _ -> 0.0)
        | _ -> 0.0
      in
      compare (ts a) (ts b))
    !acc
