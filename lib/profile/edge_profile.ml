(** Control-flow edge profiling (§4.1, §8: "the basic compilation used
    only control flow edge profiling").

    Counts block executions and taken edges per function.  From these
    the cost model derives per-iteration block execution probabilities
    (the violation probabilities of §4.2.3 step 1 and the reaching
    probabilities that scale cost-graph edges), and the loop selector
    derives average trip counts (§6.1 criterion 4). *)

open Spt_ir
module Engine = Spt_exec.Engine

type key = string * int  (* function name, block id *)
type ekey = string * int * int

type t = {
  blocks : (key, int) Hashtbl.t;
  edges : (ekey, int) Hashtbl.t;
  entries : (string, int) Hashtbl.t;  (** function call counts *)
}

let create () =
  { blocks = Hashtbl.create 256; edges = Hashtbl.create 256; entries = Hashtbl.create 32 }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add tbl key n =
  if n > 0 then
    Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* ------------------------------------------------------------------ *)
(* Persistence (the feedback loop's profile store) *)

type dump = {
  d_blocks : ((string * int) * int) list;
  d_edges : ((string * int * int) * int) list;
  d_entries : (string * int) list;
}

let export t =
  let pairs tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    d_blocks = List.sort compare (pairs t.blocks);
    d_edges = List.sort compare (pairs t.edges);
    d_entries = List.sort compare (pairs t.entries);
  }

let absorb t (d : dump) =
  List.iter (fun (k, n) -> add t.blocks k n) d.d_blocks;
  List.iter (fun (k, n) -> add t.edges k n) d.d_edges;
  List.iter (fun (k, n) -> add t.entries k n) d.d_entries

(* Probe handlers: counts accumulate in arrays indexed by function
   index and block id (edges by the destination's static predecessors)
   and are added into the tables when the run finishes. *)
let probes t (prog : Ir.program) =
  let funcs = Engine.functions prog in
  let nblocks (f : Ir.func) = 1 + List.fold_left max (-1) (Ir.block_ids f) in
  let blocks = Array.map (fun f -> Array.make (nblocks f) 0) funcs in
  let preds =
    Array.map
      (fun (f : Ir.func) ->
        let ps = Array.make (nblocks f) [] in
        List.iter
          (fun bid ->
            List.iter
              (fun s -> if s < Array.length ps then ps.(s) <- bid :: ps.(s))
              (List.sort_uniq compare (Ir.term_succs (Ir.block f bid).Ir.term)))
          (Ir.block_ids f);
        Array.map Array.of_list ps)
      funcs
  in
  let edges =
    Array.map (Array.map (fun ps -> Array.make (Array.length ps) 0)) preds
  in
  let entries = Array.make (Array.length funcs) 0 in
  let on_block fid bid prev =
    let b = blocks.(fid) in
    b.(bid) <- b.(bid) + 1;
    if prev >= 0 then begin
      let ps = preds.(fid).(bid) in
      let rec find k =
        if k = Array.length ps then
          (* not a static predecessor: count it straight into the table *)
          bump t.edges (funcs.(fid).Ir.fname, prev, bid)
        else if ps.(k) = prev then
          let c = edges.(fid).(bid) in
          c.(k) <- c.(k) + 1
        else find (k + 1)
      in
      find 0
    end
  in
  let finish () =
    Array.iteri
      (fun fid (f : Ir.func) ->
        let name = f.Ir.fname in
        add t.entries name entries.(fid);
        Array.iteri (fun bid n -> add t.blocks (name, bid) n) blocks.(fid);
        Array.iteri
          (fun dst ps ->
            Array.iteri
              (fun k src -> add t.edges (name, src, dst) edges.(fid).(dst).(k))
              ps)
          preds.(fid))
      funcs
  in
  {
    Engine.no_probes with
    Engine.on_enter = Some (fun fid -> entries.(fid) <- entries.(fid) + 1);
    on_block = Some on_block;
    on_finish = Some finish;
  }

let block_count t (f : Ir.func) bid =
  Option.value ~default:0 (Hashtbl.find_opt t.blocks (f.Ir.fname, bid))

let edge_count t (f : Ir.func) ~src ~dst =
  Option.value ~default:0 (Hashtbl.find_opt t.edges (f.Ir.fname, src, dst))

let call_count t (f : Ir.func) =
  Option.value ~default:0 (Hashtbl.find_opt t.entries f.Ir.fname)

(** Probability that [bid] executes in an iteration of [loop]
    (executions of [bid] per execution of the loop header).  1.0 when
    no profile data is available (static fallback). *)
let exec_prob_in_loop t (f : Ir.func) (loop : Loops.loop) bid =
  let h = block_count t f loop.Loops.header in
  if h = 0 then 1.0
  else
    let c = block_count t f bid in
    min 1.0 (float_of_int c /. float_of_int h)

(** Number of times [loop] was entered from outside. *)
let loop_entries t (f : Ir.func) (loop : Loops.loop) =
  let cfg = Cfg.of_func f in
  List.fold_left
    (fun acc p ->
      if Loops.in_loop loop p then acc
      else acc + edge_count t f ~src:p ~dst:loop.Loops.header)
    (* a loop whose header is the function entry is entered on call *)
    (if loop.Loops.header = f.Ir.entry then call_count t f else 0)
    (Cfg.predecessors cfg loop.Loops.header)

(** Average number of header executions per entry — the profile-based
    iteration count of §6.1 criterion 4.  Falls back to [default] with
    no data. *)
let avg_trip_count ?(default = 10.0) t (f : Ir.func) (loop : Loops.loop) =
  let entries = loop_entries t f loop in
  if entries = 0 then default
  else float_of_int (block_count t f loop.Loops.header) /. float_of_int entries

(** Fraction of all profiled block executions (weighted by static block
    size) spent inside [loop] — a cheap static-dynamic coverage proxy
    used in reports. *)
let weight_of_loop t (f : Ir.func) (loop : Loops.loop) =
  Loops.Iset.fold
    (fun bid acc ->
      acc + (block_count t f bid * Ir.block_size (Ir.block f bid)))
    loop.Loops.body 0
