(** Data-dependence profiling (§7.3).

    A shadow memory records, for every element address, the last write
    together with its attribution to every loop active at the time: the
    loop instance, the iteration number, and the *owner* instruction —
    the loop-body instruction responsible for the access at that loop's
    nesting level (the access itself, or the call instruction through
    which it happened, so dependences flowing through callees surface
    at the call site exactly as in ORC's summary view).

    On every load, matching records yield dependence events classified
    as intra-iteration, cross-iteration at distance 1, or farther.  The
    probability attached to a W→R edge is
    [events(W→R) / executions(W)], the paper's definition: "for every N
    writes at W, only pN reads will access the same memory location at
    R" (§4.1). *)

open Spt_ir
module Engine = Spt_exec.Engine
module Layout = Spt_interp.Layout

type loop_key = string * int  (** function name, loop header bid *)

type dep_kind = Intra | Cross1 | Cross_far

type t = {
  loops_of : (string, (int, Loops.Iset.t) Hashtbl.t) Hashtbl.t;
      (** function -> header bid -> body set *)
  instance_gen : (loop_key, int) Hashtbl.t;  (** loop -> instances run *)
  dep_counts : (loop_key * int * int * dep_kind, int) Hashtbl.t;
      (** (loop, writer owner, reader owner, kind) -> events *)
  w_execs : (loop_key * int, int) Hashtbl.t;
      (** (loop, owner) -> write executions *)
}

let create (program : Ir.program) =
  let loops_of = Hashtbl.create 16 in
  List.iter
    (fun (name, f) ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (l : Loops.loop) -> Hashtbl.replace tbl l.Loops.header l.Loops.body)
        (Loops.find f);
      Hashtbl.replace loops_of name tbl)
    program.Ir.funcs;
  {
    loops_of;
    instance_gen = Hashtbl.create 64;
    dep_counts = Hashtbl.create 1024;
    w_execs = Hashtbl.create 256;
  }

let add tbl key n =
  if n > 0 then
    Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* ------------------------------------------------------------------ *)
(* Probe handlers.  Loops are interned to ids; a loop frame's body is a
   bool array over block ids; the shadow memory is an array over
   element addresses; event counts are keyed by packed ints.  All of it
   lives for one run and is added into the tables when it finishes. *)

type loop_frame = {
  lid : int;
  instance : int;
  mutable iteration : int;
  body : bool array;
}

type call_frame = {
  mutable pending_call : int;
      (** iid of the call instruction currently executing in this
          frame, or -1 *)
  mutable loop_frames : loop_frame list;  (** innermost first *)
}

type write_record = {
  wr_lid : int;
  wr_instance : int;
  wr_iteration : int;
  wr_owner : int;  (** owner instruction iid at that loop's level *)
}

module Itbl = Hashtbl.Make (Int)

let incr_at tbl key =
  match Itbl.find_opt tbl key with
  | Some n -> incr n
  | None -> Itbl.add tbl key (ref 1)

let kinds = [| Intra; Cross1; Cross_far |]

let in_body bid body = bid < Array.length body && body.(bid)

(* every frame stays: a block entry keeps the loop list as it is *)
let rec all_in bid = function
  | [] -> true
  | lf :: tl -> in_body bid lf.body && all_in bid tl

let probes t (prog : Ir.program) =
  let funcs = Engine.functions prog in
  (* loop ids, by (function name, header) *)
  let keys = ref [] and nloops = ref 0 in
  let headers =
    Array.map
      (fun (f : Ir.func) ->
        let nb = 1 + List.fold_left max (-1) (Ir.block_ids f) in
        let hs = Array.make nb (-1, [||]) in
        (match Hashtbl.find_opt t.loops_of f.Ir.fname with
        | None -> ()
        | Some tbl ->
          Hashtbl.iter
            (fun h body ->
              if h >= 0 && h < nb then begin
                let size = 1 + Loops.Iset.fold max body (-1) in
                let mask = Array.make size false in
                Loops.Iset.iter (fun b -> mask.(b) <- true) body;
                hs.(h) <- (!nloops, mask);
                keys := (f.Ir.fname, h) :: !keys;
                incr nloops
              end)
            tbl);
        hs)
      funcs
  in
  let keys = Array.of_list (List.rev !keys) in
  let instances = Array.make !nloops 0 in
  (* owners are iids or -1; packed keys shift them by one *)
  let span =
    2
    + Array.fold_left
        (fun m (f : Ir.func) -> max m (Spt_util.Idgen.peek f.Ir.instr_gen))
        0 funcs
  in
  let deps = Itbl.create 1024 and writes = Itbl.create 256 in
  let shadow =
    Array.make (Layout.total_elements (Layout.build prog.Ir.globals)) []
  in
  let stack = ref [] in
  let on_block fid bid _prev =
    match !stack with
    | [] -> ()
    | frame :: _ -> (
      if not (all_in bid frame.loop_frames) then
        frame.loop_frames <-
          List.filter (fun lf -> in_body bid lf.body) frame.loop_frames;
      let lid, body = headers.(fid).(bid) in
      if lid >= 0 then
        match frame.loop_frames with
        | lf :: _ when lf.lid = lid -> lf.iteration <- lf.iteration + 1
        | lfs ->
          instances.(lid) <- instances.(lid) + 1;
          frame.loop_frames <-
            { lid; instance = instances.(lid); iteration = 0; body } :: lfs)
  in
  (* the owner chain: every active loop frame across the call stack,
     paired with the instruction that represents the event at that
     loop's level — the access itself in the top frame, the pending
     call below it *)
  let iter_chain iid f =
    match !stack with
    | [] -> ()
    | top :: deeper ->
      List.iter (fun lf -> f lf iid) top.loop_frames;
      List.iter
        (fun frame ->
          List.iter (fun lf -> f lf frame.pending_call) frame.loop_frames)
        deeper
  in
  let on_load iid addr =
    match shadow.(addr) with
    | [] -> ()
    | records ->
      iter_chain iid (fun lf owner ->
          match
            List.find_opt
              (fun wr -> wr.wr_lid = lf.lid && wr.wr_instance = lf.instance)
              records
          with
          | None -> ()
          | Some wr ->
            let kind =
              if wr.wr_iteration = lf.iteration then 0
              else if lf.iteration - wr.wr_iteration = 1 then 1
              else 2
            in
            incr_at deps
              ((((((lf.lid * span) + wr.wr_owner + 1) * span) + owner + 1) * 3)
              + kind))
  in
  let on_store iid addr =
    let records = ref [] in
    iter_chain iid (fun lf owner ->
        incr_at writes ((lf.lid * span) + owner + 1);
        records :=
          {
            wr_lid = lf.lid;
            wr_instance = lf.instance;
            wr_iteration = lf.iteration;
            wr_owner = owner;
          }
          :: !records);
    shadow.(addr) <- !records
  in
  let finish () =
    Array.iteri (fun lid n -> add t.instance_gen keys.(lid) n) instances;
    Itbl.iter
      (fun k n ->
        let k, kind = (k / 3, kinds.(k mod 3)) in
        let k, r = (k / span, (k mod span) - 1) in
        let lid, w = (k / span, (k mod span) - 1) in
        add t.dep_counts (keys.(lid), w, r, kind) !n)
      deps;
    Itbl.iter
      (fun k n -> add t.w_execs (keys.(k / span), (k mod span) - 1) !n)
      writes
  in
  {
    Engine.no_probes with
    Engine.on_enter =
      Some
        (fun _ -> stack := { pending_call = -1; loop_frames = [] } :: !stack);
    on_exit =
      Some (fun _ -> match !stack with [] -> () | _ :: rest -> stack := rest);
    on_block = Some on_block;
    on_call =
      Some
        (fun iid ->
          match !stack with [] -> () | frame :: _ -> frame.pending_call <- iid);
    on_load = Some on_load;
    on_store = Some on_store;
    on_finish = Some finish;
  }

(* ------------------------------------------------------------------ *)
(* Queries *)

let dep_events t key ~w ~r kind =
  Option.value ~default:0 (Hashtbl.find_opt t.dep_counts (key, w, r, kind))

let write_executions t key ~w =
  Option.value ~default:0 (Hashtbl.find_opt t.w_execs (key, w))

(** Profiled probability of the dependence edge [w -> r] of the given
    kind, or [None] when [w] was never seen writing in this loop. *)
let dep_prob t key ~w ~r kind =
  let execs = write_executions t key ~w in
  if execs = 0 then None
  else Some (min 1.0 (float_of_int (dep_events t key ~w ~r kind) /. float_of_int execs))

(** All (writer, reader, probability) triples observed in [key] for the
    given kind, writer/reader as owner instruction iids, sorted. *)
let pairs t key kind =
  Hashtbl.fold
    (fun (k, w, r, kd) count acc ->
      if k = key && kd = kind && count > 0 then
        let execs = write_executions t key ~w in
        if execs > 0 then
          (w, r, min 1.0 (float_of_int count /. float_of_int execs)) :: acc
        else acc
      else acc)
    t.dep_counts []
  |> List.sort compare

(** True when [key] was observed executing at all. *)
let observed t key = Hashtbl.mem t.instance_gen key

(* ------------------------------------------------------------------ *)
(* Persistence (the feedback loop's profile store).  Only the count
   tables travel: the shadow memory and loop/call stacks are live run
   state and meaningless across runs. *)

let string_of_kind = function
  | Intra -> "intra"
  | Cross1 -> "cross1"
  | Cross_far -> "crossfar"

let kind_of_string = function
  | "intra" -> Some Intra
  | "cross1" -> Some Cross1
  | "crossfar" -> Some Cross_far
  | _ -> None

type dump = {
  d_deps : ((loop_key * int * int * dep_kind) * int) list;
  d_writes : ((loop_key * int) * int) list;
}

let export t =
  let pairs tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    d_deps = List.sort compare (pairs t.dep_counts);
    d_writes = List.sort compare (pairs t.w_execs);
  }

let absorb t (d : dump) =
  (* mark every loop in the dump as observed, so {!observed} (which
     gates the profiled-probability path in the dependence graph)
     honours absorbed data even when this run never reached the loop *)
  let mark key =
    if not (Hashtbl.mem t.instance_gen key) then
      Hashtbl.replace t.instance_gen key 1
  in
  List.iter
    (fun (((key, _, _, _) as k), n) ->
      mark key;
      add t.dep_counts k n)
    d.d_deps;
  List.iter
    (fun (((key, _) as k), n) ->
      mark key;
      add t.w_execs k n)
    d.d_writes
