(** Software-value-prediction profiling (§7.2).

    Pass 1 identifies critical violation candidates whose cost is
    unacceptably high; this profiler then watches the values those
    instructions define, one observation per execution, and fits a
    stride predictor: value(n+1) = value(n) + c.  A stride of 0 is a
    last-value predictor.  The SPT transformation inserts prediction
    code only when the best stride's hit rate clears the [min_hit_rate]
    bar, mirroring the paper's "if the values are found to be
    predictable, and both the corresponding value-prediction overhead
    and the mis-prediction cost are acceptably low". *)

open Spt_ir
module Engine = Spt_exec.Engine

type target = { tfunc : string; tiid : int }

(* A target's series.  Equal consecutive strides are counted as one run
   and added to [strides] when the stride changes or the profiling run
   finishes; a stride's first run still enters [strides] before any
   later stride, so the table's iteration order (which breaks ties in
   [best_prediction]) matches one bump per transition. *)
type series = {
  mutable last : int64;
  mutable has_last : bool;
  mutable instance_mark : int;  (** reset marker: new loop instance *)
  strides : (int64, int) Hashtbl.t;
  mutable transitions : int;
  mutable run_stride : int64;
  mutable run_len : int;
}

type t = {
  targets : (string * int, series) Hashtbl.t;
  marks : (string, int) Hashtbl.t;
      (** function -> generation counter bumped on function entry, used
          to cut series across separate activations *)
}

let new_series () =
  {
    last = 0L;
    has_last = false;
    instance_mark = -1;
    strides = Hashtbl.create 8;
    transitions = 0;
    run_stride = 0L;
    run_len = 0;
  }

let create targets =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun { tfunc; tiid } -> Hashtbl.replace tbl (tfunc, tiid) (new_series ()))
    targets;
  { targets = tbl; marks = Hashtbl.create 16 }

let add_stride s stride n =
  Hashtbl.replace s.strides stride
    (n + Option.value ~default:0 (Hashtbl.find_opt s.strides stride))

let end_run s =
  if s.run_len > 0 then begin
    add_stride s s.run_stride s.run_len;
    s.run_len <- 0
  end

let observe s mark v =
  if s.has_last && s.instance_mark = mark then begin
    let stride = Int64.sub v s.last in
    if s.run_len > 0 && Int64.equal stride s.run_stride then
      s.run_len <- s.run_len + 1
    else begin
      end_run s;
      s.run_stride <- stride;
      s.run_len <- 1
    end;
    s.transitions <- s.transitions + 1
  end;
  s.last <- v;
  s.has_last <- true;
  s.instance_mark <- mark

(* Probe handlers: targets resolve to per-function arrays indexed by
   iid, and entry marks to an array by function index. *)
let probes t (prog : Ir.program) =
  let funcs = Engine.functions prog in
  let name fid = funcs.(fid).Ir.fname in
  let mark_of fid =
    Option.value ~default:0 (Hashtbl.find_opt t.marks (name fid))
  in
  let marks = Array.init (Array.length funcs) mark_of in
  let series =
    Array.map
      (fun (f : Ir.func) ->
        let tbl = Array.make (Spt_util.Idgen.peek f.Ir.instr_gen) None in
        Hashtbl.iter
          (fun (fn, iid) s ->
            if fn = f.Ir.fname && iid >= 0 && iid < Array.length tbl then
              tbl.(iid) <- Some s)
          t.targets;
        tbl)
      funcs
  in
  let target fid iid =
    let tbl = series.(fid) in
    if iid >= 0 && iid < Array.length tbl then tbl.(iid) else None
  in
  let on_value fid iid v =
    match (target fid iid, v) with
    | Some s, Eval.Vi v -> observe s marks.(fid) v
    | _ -> ()
  in
  let finish () =
    Array.iteri
      (fun fid m ->
        if m <> mark_of fid then Hashtbl.replace t.marks (name fid) m)
      marks;
    Hashtbl.iter (fun _ s -> end_run s) t.targets
  in
  {
    Engine.no_probes with
    Engine.on_enter = Some (fun fid -> marks.(fid) <- marks.(fid) + 1);
    watch = (fun fid iid -> target fid iid <> None);
    on_value = Some on_value;
    on_finish = Some finish;
  }

(* ------------------------------------------------------------------ *)
(* Persistence (the feedback loop's profile store).  Stride counts are
   the whole story: [transitions] is their sum, and [last] /
   [instance_mark] are live run state. *)

type dump = { d_strides : ((string * int) * (int64 * int) list) list }

let export t =
  Hashtbl.fold
    (fun key s acc ->
      let strides =
        Hashtbl.fold (fun st n acc -> (st, n) :: acc) s.strides []
      in
      match List.filter (fun (_, n) -> n > 0) strides with
      | [] -> acc
      | strides -> ((key, List.sort compare strides) :: acc))
    t.targets []
  |> List.sort compare
  |> fun d_strides -> { d_strides }

let absorb t (d : dump) =
  List.iter
    (fun ((tfunc, tiid), strides) ->
      let s =
        match Hashtbl.find_opt t.targets (tfunc, tiid) with
        | Some s -> s
        | None ->
          let s = new_series () in
          Hashtbl.replace t.targets (tfunc, tiid) s;
          s
      in
      List.iter
        (fun (stride, n) ->
          if n > 0 then begin
            add_stride s stride n;
            s.transitions <- s.transitions + n
          end)
        strides)
    d.d_strides

type prediction = {
  stride : int64;
  hit_rate : float;
  observations : int;
}

(** Best stride predictor for a target, if any observations exist. *)
let best_prediction t ~func ~iid =
  match Hashtbl.find_opt t.targets (func, iid) with
  | None -> None
  | Some s ->
    if s.transitions = 0 then None
    else
      let stride, count =
        Hashtbl.fold
          (fun stride count (bs, bc) ->
            if count > bc then (stride, count) else (bs, bc))
          s.strides (0L, 0)
      in
      Some
        {
          stride;
          hit_rate = float_of_int count /. float_of_int s.transitions;
          observations = s.transitions;
        }

(** Default acceptance bar for inserting prediction code. *)
let min_hit_rate = 0.9

let predictable ?(threshold = min_hit_rate) t ~func ~iid =
  match best_prediction t ~func ~iid with
  | Some p when p.hit_rate >= threshold && p.observations >= 8 -> Some p
  | _ -> None
