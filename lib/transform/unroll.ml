(** Loop unrolling (§7.1).

    The SPT compilation unrolls loops whose bodies are too small to
    amortize the thread-fork overhead.  Unrolling happens on the
    *pre-SSA* IR (mirroring ORC, where LNO unrolls before WOPT): the
    whole loop body — header and exit tests included — is cloned
    [factor-1] times and the copies are chained through the back edge.
    Keeping every exit test makes the transformation legal for any
    iteration count and any loop shape, with no remainder loop needed.

    Policy mirrors the paper: ORC's LNO "can only unroll DO loops", so
    the `basic` and `best` configurations unroll only loops whose
    header carries a [`For] origin tag; while-loop unrolling is one of
    the manually-applied techniques of the `anticipated best`
    configuration (§8), enabled here with [unroll_while:true]. *)

open Spt_ir
module Imap = Map.Make (Int)

type policy = {
  min_body_size : int;  (** unroll until the body reaches this size *)
  max_factor : int;
  unroll_while : bool;  (** also unroll While/Do loops (anticipated) *)
}

let default_policy = { min_body_size = 120; max_factor = 8; unroll_while = false }

(* static size of a loop body in elementary ops *)
let loop_body_size (f : Ir.func) (l : Loops.loop) =
  Loops.Iset.fold (fun bid acc -> acc + Ir.block_size (Ir.block f bid)) l.Loops.body 0

(** Clone the loop body once; returns the mapping old-bid -> new-bid.
    Clones jump among themselves; edges leaving the body keep their
    original (outside) targets; the back edge is left pointing at a
    placeholder resolved by the caller. *)
let clone_body (f : Ir.func) (l : Loops.loop) =
  let mapping =
    Loops.Iset.fold
      (fun bid acc -> Imap.add bid (Ir.add_block f).Ir.bid acc)
      l.Loops.body Imap.empty
  in
  Loops.Iset.iter
    (fun bid ->
      let src = Ir.block f bid in
      let dst = Ir.block f (Imap.find bid mapping) in
      dst.Ir.instrs <-
        List.map (fun (i : Ir.instr) -> Ir.mk_instr f i.Ir.kind) src.Ir.instrs;
      let sub t = match Imap.find_opt t mapping with Some t' -> t' | None -> t in
      dst.Ir.term <-
        (match src.Ir.term with
        | Ir.Jump t -> Ir.Jump (sub t)
        | Ir.Br (c, t, e) -> Ir.Br (c, sub t, sub e)
        | Ir.Ret _ as t -> t))
    l.Loops.body;
  mapping

(** Unroll [l] by [factor] (>= 2).  The function must not be in SSA
    form.  Back edges of copy [k] are redirected to the header copy of
    [k+1]; the last copy's back edges return to the original header. *)
let unroll_loop (f : Ir.func) (l : Loops.loop) ~factor =
  if factor < 2 then invalid_arg "Unroll.unroll_loop: factor must be >= 2";
  (* check: no instruction in the body is a phi *)
  Loops.Iset.iter
    (fun bid ->
      List.iter
        (fun (i : Ir.instr) ->
          if Ir.is_phi i.Ir.kind then
            invalid_arg "Unroll.unroll_loop: function is in SSA form")
        (Ir.block f bid).Ir.instrs)
    l.Loops.body;
  let copies = List.init (factor - 1) (fun _ -> clone_body f l) in
  (* chain: original -> copy0 -> copy1 -> ... -> original *)
  let next_header_of = function
    | [] -> l.Loops.header
    | mapping :: _ -> Imap.find l.Loops.header mapping
  in
  let redirect_back_edges in_mapping to_header =
    List.iter
      (fun latch ->
        let lbid =
          match in_mapping with
          | None -> latch
          | Some m -> Imap.find latch m
        in
        let lb = Ir.block f lbid in
        Cfg.retarget_term lb
          ~old_dst:(match in_mapping with
                   | None -> l.Loops.header
                   | Some m -> Imap.find l.Loops.header m)
          ~new_dst:to_header)
      l.Loops.latches
  in
  (* original's latches go to the first copy *)
  redirect_back_edges None (next_header_of copies);
  (* copy k's latches go to copy k+1's header (or back to the original) *)
  let rec chain = function
    | [] -> ()
    | [ last ] -> redirect_back_edges (Some last) l.Loops.header
    | m :: (next :: _ as rest) ->
      redirect_back_edges (Some m) (Imap.find l.Loops.header next);
      chain rest
  in
  chain copies;
  (* cloned headers are not headers of the (single) unrolled loop *)
  List.iter
    (fun m ->
      (Ir.block f (Imap.find l.Loops.header m)).Ir.loop_origin <- None)
    copies

(** Decide a factor for [l] under [policy]: smallest power of two that
    lifts the body above [min_body_size], capped at [max_factor];
    1 means "do not unroll". *)
let factor_for (f : Ir.func) (l : Loops.loop) policy =
  let eligible =
    match l.Loops.origin with
    | Some `For -> true
    | Some `While | Some `Do -> policy.unroll_while
    | None -> false
  in
  if not eligible then 1
  else
    let size = loop_body_size f l in
    if size <= 0 then 1
    else
      let rec grow factor =
        if factor >= policy.max_factor then policy.max_factor
        else if size * factor >= policy.min_body_size then factor
        else grow (factor * 2)
      in
      grow 1

(** Unroll every eligible innermost loop of [f] under [policy]; returns
    the number of loops unrolled.  The loops are discovered once:
    unrolling an innermost loop adds blocks to it alone, so every other
    innermost loop keeps its blocks, header and latches, and the
    not-yet-unrolled loops keep their relative order. *)
let run (f : Ir.func) policy =
  List.fold_left
    (fun unrolled l ->
      let factor = factor_for f l policy in
      if factor > 1 then begin
        unroll_loop f l ~factor;
        unrolled + 1
      end
      else unrolled)
    0
    (Loops.innermost (Loops.find f))
