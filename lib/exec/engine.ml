(** Flat-bytecode execution engine — see engine.mli.

    Design: each function compiles once into a contiguous [inst array];
    blocks become index ranges, operands are pre-resolved (immediates
    boxed once, regions carrying their precomputed element base,
    callees resolved to their function or builtin), and phis become
    per-edge parallel-move tables.  The dispatch loop indexes the code
    array with [Array.unsafe_get]: every [pc] it can reach is either a
    compiled block start (jump targets come from the function's own
    terminators, and every compiled block ends in a terminator that
    transfers control or returns) or the successor of a non-terminator
    instruction, so it is always in bounds — see DESIGN.md §3f for the
    full safety argument.

    Semantics are kept bit-for-bit equal to the tree interpreter: the
    same step/block-entry accounting (buffered in a context record and
    flushed into the machine's own counters around handler dispatch and
    at segment boundaries), the same budget-check placement (at block
    terminators), the same error messages, the same marker and
    [stop_block] protocol, and the same [memio]/[regio] backends. *)

open Spt_ir
module I = Spt_interp.Interp
module Layout = Spt_interp.Layout
module Interp = Spt_interp.Interp

type value = I.value

(* ------------------------------------------------------------------ *)
(* Bytecode *)

type operand = O_reg of Ir.var | O_imm of value

(* [R_sym] carries the element base resolved at compile time, turning
   every direct access into [base + idx]; array parameters still
   resolve per access against the frame (exactly like the tree). *)
type region = R_sym of Ir.sym * int | R_param of int * string

type callee = C_func of Ir.func | C_builtin of string

type inst =
  | I_move of Ir.var * operand
  | I_unop of Ir.var * Ir.unop * operand
  | I_binop of Ir.var * Ir.binop * operand * operand
  | I_load of Ir.var * region * operand
  | I_store of region * operand * operand
  | I_call of Ir.var option * callee * operand array * region array
  | I_marker of I.marker
  | T_jump of int
  | T_br of operand * int * int
  | T_ret of operand option

(* Per incoming edge: the block's phis as one parallel move.
   [Ph_partial] marks an edge some phi lacks — the reads that the tree
   interpreter performs before discovering the hole, then the same
   error. *)
type phi_edge =
  | Ph_all of (Ir.var * operand) array
  | Ph_partial of operand array

type block_phis = Phi_none | Phi_edges of (int * phi_edge) array

type block_code = { bc_start : int; bc_phis : block_phis }

type fcode = {
  fc_func : Ir.func;
  fc_code : inst array;
  fc_blocks : block_code array; (* indexed by bid; bc_start = -1 gaps *)
}

type t = {
  t_program : Ir.program;
  t_layout : Layout.t;
  t_funcs : (string, fcode) Hashtbl.t;
}

let code_size t =
  Hashtbl.fold (fun _ fc acc -> acc + Array.length fc.fc_code) t.t_funcs 0

(* ------------------------------------------------------------------ *)
(* Compilation *)

let compile_operand = function
  | Ir.Reg v -> O_reg v
  | Ir.Imm_i n -> O_imm (Eval.Vi n)
  | Ir.Imm_f f -> O_imm (Eval.Vf f)

let compile_region layout = function
  | Ir.Rsym s -> R_sym (s, Layout.element_address layout s 0)
  | Ir.Rparam (slot, name) -> R_param (slot, name)

let compile_phis (phis : Ir.instr list) : block_phis =
  match phis with
  | [] -> Phi_none
  | _ ->
    let entries =
      List.map
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Phi (d, ins) -> (d, ins)
          | _ -> assert false)
        phis
    in
    let preds =
      List.sort_uniq compare
        (List.concat_map (fun (_, ins) -> List.map fst ins) entries)
    in
    let edge p =
      (* mirror the tree: operands are read phi-by-phi, so an edge a
         later phi lacks still performs the earlier phis' reads before
         failing *)
      let rec go acc = function
        | [] -> Ph_all (Array.of_list (List.rev acc))
        | (d, ins) :: tl -> (
          match List.assoc_opt p ins with
          | Some o -> go ((d, compile_operand o) :: acc) tl
          | None ->
            Ph_partial (Array.of_list (List.rev_map (fun (_, o) -> o) acc)))
      in
      go [] entries
    in
    Phi_edges (Array.of_list (List.map (fun p -> (p, edge p)) preds))

let compile_instr layout (program : Ir.program) (k : Ir.kind) : inst =
  match k with
  | Ir.Move (d, o) -> I_move (d, compile_operand o)
  | Ir.Unop (d, op, o) -> I_unop (d, op, compile_operand o)
  | Ir.Binop (d, op, a, b) ->
    I_binop (d, op, compile_operand a, compile_operand b)
  | Ir.Load (d, r, idx) ->
    I_load (d, compile_region layout r, compile_operand idx)
  | Ir.Store (r, idx, src) ->
    I_store (compile_region layout r, compile_operand idx, compile_operand src)
  | Ir.Call (dst, name, args) ->
    let sargs =
      List.filter_map
        (function Ir.Aop o -> Some (compile_operand o) | Ir.Aarr _ -> None)
        args
    in
    let rargs =
      List.filter_map
        (function
          | Ir.Aarr r -> Some (compile_region layout r)
          | Ir.Aop _ -> None)
        args
    in
    let callee =
      match List.assoc_opt name program.Ir.funcs with
      | Some f -> C_func f
      | None -> C_builtin name
    in
    I_call (dst, callee, Array.of_list sargs, Array.of_list rargs)
  | Ir.Phi _ -> assert false (* partitioned into the block head *)
  | Ir.Spt_fork id -> I_marker (`Fork id)
  | Ir.Spt_kill id -> I_marker (`Kill id)

let compile_term = function
  | Ir.Jump n -> T_jump n
  | Ir.Br (c, t, e) -> T_br (compile_operand c, t, e)
  | Ir.Ret o -> T_ret (Option.map compile_operand o)

let compile_func layout (program : Ir.program) (f : Ir.func) : fcode =
  let bids = Ir.block_ids f in
  let maxbid = List.fold_left max (-1) bids in
  let blocks =
    Array.make (maxbid + 1) { bc_start = -1; bc_phis = Phi_none }
  in
  let rev_code = ref [] and n = ref 0 in
  let emit i =
    rev_code := i :: !rev_code;
    incr n
  in
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      let phis, rest =
        List.partition (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind) b.Ir.instrs
      in
      blocks.(bid) <- { bc_start = !n; bc_phis = compile_phis phis };
      List.iter
        (fun (i : Ir.instr) -> emit (compile_instr layout program i.Ir.kind))
        rest;
      emit (compile_term b.Ir.term))
    bids;
  { fc_func = f; fc_code = Array.of_list (List.rev !rev_code); fc_blocks = blocks }

let compile (st : I.state) : t =
  let program = I.program_of st in
  let layout = I.layout st in
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (name, f) ->
      (* first binding wins, like the tree's [List.assoc_opt] *)
      if not (Hashtbl.mem funcs name) then
        Hashtbl.add funcs name (compile_func layout program f))
    program.Ir.funcs;
  { t_program = program; t_layout = layout; t_funcs = funcs }

(* ------------------------------------------------------------------ *)
(* Execution *)

exception Runtime_error = I.Runtime_error

let err fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* Step/entry counters are buffered here and flushed into the machine's
   own counters around every point where foreign code can observe them
   (marker handlers, tree delegation) and at segment boundaries, so the
   machine's [steps]/budget semantics are indistinguishable from the
   tree interpreter's. *)
type ctx = {
  st : I.state;
  prog : t;
  layout : Layout.t;
  memio : I.memio;
  max_steps : int;
  mutable steps : int;
  mutable entries : int;
}

let make_ctx t st =
  let steps, entries = I.counts st in
  {
    st;
    prog = t;
    layout = t.t_layout;
    memio = I.memio_of st;
    max_steps = I.max_steps_of st;
    steps;
    entries;
  }

let flush ctx = I.set_counts ctx.st ~steps:ctx.steps ~block_entries:ctx.entries

let reload ctx =
  let s, e = I.counts ctx.st in
  ctx.steps <- s;
  ctx.entries <- e

let uninit frame (v : Ir.var) =
  err "read of uninitialized register %s.%d in %s" v.Ir.vname v.Ir.vid
    frame.I.func.Ir.fname

let read_reg frame (v : Ir.var) =
  match frame.I.frio with
  | None -> (
    match frame.I.regs.(v.Ir.vid) with
    | Some x -> x
    | None -> uninit frame v)
  | Some r -> (
    match r.I.rio_get v with Some x -> x | None -> uninit frame v)

let write_reg frame (v : Ir.var) x =
  match frame.I.frio with
  | None -> frame.I.regs.(v.Ir.vid) <- Some x
  | Some r -> r.I.rio_set v x

let read_operand frame = function
  | O_reg v -> read_reg frame v
  | O_imm x -> x

let as_int = function
  | Eval.Vi n -> Int64.to_int n
  | Eval.Vf _ -> err "expected integer value"

let resolve_param frame slot name =
  if slot < Array.length frame.I.arr_args then frame.I.arr_args.(slot)
  else err "unbound array parameter %s" name

let load_addr ctx frame r idx =
  match r with
  | R_sym (s, base) ->
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds read %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    base + idx
  | R_param (slot, name) ->
    let s = resolve_param frame slot name in
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds read %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    Layout.element_address ctx.layout s idx

let store_addr ctx frame r idx =
  match r with
  | R_sym (s, base) ->
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds write %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    base + idx
  | R_param (slot, name) ->
    let s = resolve_param frame slot name in
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds write %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    Layout.element_address ctx.layout s idx

let resolve_rarg ctx frame = function
  | R_sym (s, _) ->
    ignore ctx;
    s
  | R_param (slot, name) -> resolve_param frame slot name

let check_budget ctx =
  if ctx.steps + ctx.entries > ctx.max_steps then
    err "step limit exceeded (%d)" ctx.max_steps

let run_phis ctx frame bid prev = function
  | Phi_none -> ()
  | Phi_edges edges ->
    let n = Array.length edges in
    let rec find i =
      if i = n then
        err "phi in bb%d has no operand for predecessor bb%d" bid prev
      else
        let p, e = edges.(i) in
        if p = prev then e else find (i + 1)
    in
    (match find 0 with
    | Ph_partial reads ->
      Array.iter (fun o -> ignore (read_operand frame o)) reads;
      err "phi in bb%d has no operand for predecessor bb%d" bid prev
    | Ph_all moves ->
      (* parallel: all reads precede all writes *)
      let k = Array.length moves in
      let vals = Array.make k (Eval.Vi 0L) in
      for i = 0 to k - 1 do
        vals.(i) <- read_operand frame (snd moves.(i))
      done;
      for i = 0 to k - 1 do
        write_reg frame (fst moves.(i)) vals.(i)
      done;
      ctx.steps <- ctx.steps + k)

let bind_params frame (callee : Ir.func) (scalars : value array) =
  let n = Array.length scalars in
  let rec bind i = function
    | [] -> if i <> n then err "arity mismatch calling %s" callee.Ir.fname
    | Ir.Pscalar v :: ps ->
      if i >= n then err "arity mismatch calling %s" callee.Ir.fname;
      write_reg frame v scalars.(i);
      bind (i + 1) ps
    | Ir.Parray _ :: ps -> bind i ps
  in
  bind 0 callee.Ir.fparams

let block_of fc bid =
  let bad () =
    (* raise the interpreter's own unknown-block error *)
    ignore (Ir.block fc.fc_func bid);
    assert false
  in
  if bid < 0 || bid >= Array.length fc.fc_blocks then bad ()
  else
    let bc = Array.unsafe_get fc.fc_blocks bid in
    if bc.bc_start < 0 then bad () else bc

(* The dispatch loop.  [seg_exec] is the engine's [exec_segment];
   [call_fn] its [exec_call]; [drive] its [run_frame]. *)
let rec seg_exec ctx frame fc (stop_block : int option) watch
    (cur : I.cursor) : I.seg_stop =
  let code = fc.fc_code in
  let bc0 = block_of fc cur.I.cbid in
  if cur.I.cpos = 0 then begin
    ctx.entries <- ctx.entries + 1;
    run_phis ctx frame cur.I.cbid cur.I.cprev bc0.bc_phis
  end;
  let rec loop bid prev start pc : I.seg_stop =
    match Array.unsafe_get code pc with
    | I_move (d, o) ->
      ctx.steps <- ctx.steps + 1;
      write_reg frame d (read_operand frame o);
      loop bid prev start (pc + 1)
    | I_unop (d, op, o) ->
      ctx.steps <- ctx.steps + 1;
      write_reg frame d (Eval.eval_unop op (read_operand frame o));
      loop bid prev start (pc + 1)
    | I_binop (d, op, oa, ob) ->
      ctx.steps <- ctx.steps + 1;
      let a = read_operand frame oa in
      let b = read_operand frame ob in
      let v =
        try Eval.eval_binop op a b
        with Eval.Division_by_zero -> err "division by zero"
      in
      write_reg frame d v;
      loop bid prev start (pc + 1)
    | I_load (d, r, idx_op) ->
      ctx.steps <- ctx.steps + 1;
      let idx = as_int (read_operand frame idx_op) in
      let addr = load_addr ctx frame r idx in
      write_reg frame d (ctx.memio.I.mio_load addr);
      loop bid prev start (pc + 1)
    | I_store (r, idx_op, src) ->
      ctx.steps <- ctx.steps + 1;
      let idx = as_int (read_operand frame idx_op) in
      let v = read_operand frame src in
      let addr = store_addr ctx frame r idx in
      ctx.memio.I.mio_store addr v;
      loop bid prev start (pc + 1)
    | I_call (dst, callee, sargs, rargs) ->
      ctx.steps <- ctx.steps + 1;
      let ns = Array.length sargs in
      let scalars = Array.make ns (Eval.Vi 0L) in
      for i = 0 to ns - 1 do
        scalars.(i) <- read_operand frame sargs.(i)
      done;
      let na = Array.length rargs in
      let arrays =
        if na = 0 then [||]
        else begin
          let a0 = resolve_rarg ctx frame rargs.(0) in
          let arr = Array.make na a0 in
          for i = 1 to na - 1 do
            arr.(i) <- resolve_rarg ctx frame rargs.(i)
          done;
          arr
        end
      in
      (match callee with
      | C_builtin name -> (
        let ret = I.exec_builtin ctx.st name (Array.to_list scalars) in
        match (dst, ret) with
        | Some d, Some v -> write_reg frame d v
        | Some _, None -> err "builtin %s returned no value" name
        | None, _ -> ())
      | C_func f -> (
        let ret = call_fn ctx f scalars arrays in
        match (dst, ret) with
        | Some d, Some v -> write_reg frame d v
        | Some _, None -> err "call to %s returned no value" f.Ir.fname
        | None, _ -> ()));
      loop bid prev start (pc + 1)
    | I_marker m ->
      ctx.steps <- ctx.steps + 1;
      if watch then
        I.Seg_marker (m, { I.cbid = bid; cprev = prev; cpos = pc + 1 - start })
      else loop bid prev start (pc + 1)
    | T_jump next ->
      check_budget ctx;
      continue bid next
    | T_br (c, bt, be) ->
      check_budget ctx;
      continue bid (if Eval.is_truthy (read_operand frame c) then bt else be)
    | T_ret o ->
      check_budget ctx;
      I.Seg_return
        (match o with None -> None | Some o -> Some (read_operand frame o))
  and continue bid next =
    match stop_block with
    | Some sb when next = sb ->
      I.Seg_stop_block { I.cbid = next; cprev = bid; cpos = 0 }
    | _ ->
      let bc = block_of fc next in
      ctx.entries <- ctx.entries + 1;
      run_phis ctx frame next bid bc.bc_phis;
      loop next bid bc.bc_start bc.bc_start
  in
  loop cur.I.cbid cur.I.cprev bc0.bc_start (bc0.bc_start + cur.I.cpos)

and call_fn ctx (f : Ir.func) (scalars : value array) (arrays : Ir.sym array) :
    value option =
  match Hashtbl.find_opt ctx.prog.t_funcs f.Ir.fname with
  | Some fc when fc.fc_func == f ->
    let frame =
      {
        I.func = f;
        regs = Array.make (Spt_util.Idgen.peek f.Ir.var_gen) None;
        arr_args = arrays;
        frio = None;
      }
    in
    bind_params frame f scalars;
    drive ctx frame fc f.Ir.entry
  | _ ->
    (* shadowed or foreign function: delegate the whole call tree *)
    flush ctx;
    Fun.protect
      ~finally:(fun () -> reload ctx)
      (fun () -> I.call ctx.st f (Array.to_list scalars) (Array.to_list arrays))

and drive ctx frame fc entry : value option =
  let watch = I.marker_handler_of ctx.st <> None in
  let rec go cur =
    match seg_exec ctx frame fc None watch cur with
    | I.Seg_return v -> v
    | I.Seg_stop_block _ -> assert false (* no stop_block was given *)
    | I.Seg_marker (m, after) -> (
      match I.marker_handler_of ctx.st with
      | None -> go after
      | Some handler -> (
        flush ctx;
        let act = handler ctx.st frame m after in
        reload ctx;
        match act with
        | I.Proceed -> go after
        | I.Jump_to c -> go c
        | I.Return_now v -> v))
  in
  go { I.cbid = entry; cprev = -1; cpos = 0 }

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let fcode_for t (f : Ir.func) =
  match Hashtbl.find_opt t.t_funcs f.Ir.fname with
  | Some fc when fc.fc_func == f -> Some fc
  | _ -> None

let exec_segment t st frame ?stop_block ~watch_markers cur =
  if (not (I.hooks_are_null st)) || I.program_of st != t.t_program then
    I.exec_segment st frame ?stop_block ~watch_markers cur
  else
    match fcode_for t frame.I.func with
    | None -> I.exec_segment st frame ?stop_block ~watch_markers cur
    | Some fc ->
      let ctx = make_ctx t st in
      Fun.protect
        ~finally:(fun () -> flush ctx)
        (fun () -> seg_exec ctx frame fc stop_block watch_markers cur)

let call t st (f : Ir.func) (scalars : value list) (arrays : Ir.sym list) =
  if (not (I.hooks_are_null st)) || I.program_of st != t.t_program then
    I.call st f scalars arrays
  else
    match fcode_for t f with
    | None -> I.call st f scalars arrays
    | Some _ ->
      let ctx = make_ctx t st in
      Fun.protect
        ~finally:(fun () -> flush ctx)
        (fun () ->
          call_fn ctx f (Array.of_list scalars) (Array.of_list arrays))

let m_runs = Spt_obs.Metrics.counter "exec.runs"
let m_steps = Spt_obs.Metrics.counter "exec.steps"

let run ?(max_steps = 200_000_000) (program : Ir.program) : I.result =
  let layout = Layout.build program.Ir.globals in
  let store = I.new_store layout program in
  let st = I.make ~max_steps ~memio:(I.store_memio store) program in
  let t = compile st in
  let mainf = Ir.func_of_program program "main" in
  let return_value = call t st mainf [] [] in
  Spt_obs.Metrics.inc m_runs;
  Spt_obs.Metrics.add m_steps (I.steps st);
  {
    I.return_value;
    output = Buffer.contents store.I.sout;
    dynamic_instrs = I.steps st;
  }
