(** Flat-bytecode execution engine — see engine.mli.

    Design: each function compiles once into a contiguous [inst array];
    blocks become index ranges, operands are pre-resolved (immediates
    boxed once, regions carrying their precomputed element base,
    callees resolved to their function index or builtin), and phis
    become per-edge parallel-move tables.  The dispatch loop indexes
    the code array with [Array.unsafe_get]: every [pc] it can reach is
    either a compiled block start (jump targets come from the
    function's own terminators, and every compiled block ends in a
    terminator that transfers control or returns) or the successor of
    a non-terminator instruction, so it is always in bounds — see
    DESIGN.md §3f for the full safety argument.

    Semantics are kept bit-for-bit equal to the tree interpreter: the
    same step/block-entry accounting (in the machine record), the same
    budget-check placement (at block terminators), the same error
    messages and the same [memio] backends. *)

open Spt_ir
module Interp = Spt_interp.Interp
module I = Interp
module Layout = Spt_interp.Layout

type value = I.value

(* ------------------------------------------------------------------ *)
(* Frames and the segment protocol *)

type frame = {
  func : Ir.func;
  regs : value option array;  (** indexed by vid; [None] = uninitialized *)
  arr_args : Ir.sym array;  (** array-parameter slots resolved to regions *)
  frio : I.regio option;
      (** register indirection; when set, [regs] is never touched *)
}

(* Position within a frame: block, incoming edge, and the index of the
   next instruction among the block's non-phi instructions; [cpos = 0]
   is a fresh block entry (phis pending). *)
type cursor = { cbid : int; cprev : int; cpos : int }

type marker = [ `Fork of int | `Kill of int ]

type seg_stop =
  | Seg_marker of marker * cursor
  | Seg_stop_block of cursor
  | Seg_return of value option

type marker_action =
  | Proceed
  | Jump_to of cursor
  | Return_now of value option

let mk_frame func ~arr_args ~regio =
  { func; regs = [||]; arr_args; frio = Some regio }

(* ------------------------------------------------------------------ *)
(* Bytecode *)

type operand = O_reg of Ir.var | O_imm of value

(* [R_sym] carries the element base resolved at compile time, turning
   every direct access into [base + idx]; array parameters still
   resolve per access against the frame (exactly like the tree). *)
type region = R_sym of Ir.sym * int | R_param of int * string

(* a program callee by its function index (see {!functions}) *)
type callee = C_func of int | C_builtin of string

type inst =
  | I_move of Ir.var * operand
  | I_unop of Ir.var * Ir.unop * operand
  | I_binop of Ir.var * Ir.binop * operand * operand
  | I_load of Ir.var * region * operand
  | I_store of region * operand * operand
  | I_call of Ir.var option * callee * operand array * region array
  | I_marker of marker
  | T_jump of int
  | T_br of operand * int * int
  | T_ret of operand option
  | I_probe of probe  (** only in a profiling run's code *)

(* Probe points, compiled only into the code of a profiling run
   ({!profile}).  Each fires its event after the instruction's own
   effect; [P_value] follows a watched defining instruction and reports
   the register it just wrote.  A profiling run has no marker handler,
   so its code is never resumed from a cursor and the extra [P_value]
   slots cannot skew a [cpos]. *)
and probe =
  | P_load of int * Ir.var * region * operand  (** iid first *)
  | P_store of int * region * operand * operand
  | P_call of {
      iid : int;
      dst : Ir.var option;
      callee : callee;
      sargs : operand array;
      rargs : region array;
    }
  | P_value of int * int * Ir.var  (** fid, iid, defined register *)

(* Per incoming edge: the block's phis as one parallel move.
   [Ph_partial] marks an edge some phi lacks — the reads that the tree
   interpreter performs before discovering the hole, then the same
   error. *)
type phi_edge =
  | Ph_all of (Ir.var * operand) array
  | Ph_partial of operand array

(* What runs on block entry, before the block's first instruction.
   [H_probe] exists only in a profiling run's code: it fires the block
   probe, runs the inner head, then reports each watched phi's value
   as (iid, destination). *)
type block_head =
  | H_none
  | H_phis of (int * phi_edge) array
  | H_probe of int * block_head * (int * Ir.var) array  (** fid first *)

type block_code = { bc_start : int; bc_head : block_head }

type fcode = {
  fc_func : Ir.func;
  fc_code : inst array;
  fc_blocks : block_code array; (* indexed by bid; bc_start = -1 gaps *)
}

type t = {
  t_layout : Layout.t;
  t_code : fcode array;  (** by function index (see {!functions}) *)
}

(* ------------------------------------------------------------------ *)
(* Probes *)

type probes = {
  on_enter : (int -> unit) option;
  on_exit : (int -> unit) option;
  on_block : (int -> int -> int -> unit) option;
  on_call : (int -> unit) option;
  on_load : (int -> int -> unit) option;
  on_store : (int -> int -> unit) option;
  watch : int -> int -> bool;
  on_value : (int -> int -> value -> unit) option;
  on_finish : (unit -> unit) option;
}

let no_probes =
  {
    on_enter = None;
    on_exit = None;
    on_block = None;
    on_call = None;
    on_load = None;
    on_store = None;
    watch = (fun _ _ -> false);
    on_value = None;
    on_finish = None;
  }

(* fan one event out to every probe set that handles it; a single
   handler is passed through unwrapped *)
let combine (ps : probes list) =
  let fan get each =
    match List.filter_map get ps with
    | [] -> None
    | [ h ] -> Some h
    | hs -> Some (each hs)
  in
  let fan1 get = fan get (fun hs a -> List.iter (fun h -> h a) hs) in
  let fan2 get = fan get (fun hs a b -> List.iter (fun h -> h a b) hs) in
  let valued = List.filter (fun p -> p.on_value <> None) ps in
  {
    on_enter = fan1 (fun p -> p.on_enter);
    on_exit = fan1 (fun p -> p.on_exit);
    on_block =
      fan
        (fun p -> p.on_block)
        (fun hs a b c -> List.iter (fun h -> h a b c) hs);
    on_call = fan1 (fun p -> p.on_call);
    on_load = fan2 (fun p -> p.on_load);
    on_store = fan2 (fun p -> p.on_store);
    watch = (fun fid iid -> List.exists (fun p -> p.watch fid iid) valued);
    on_value =
      (match valued with
      | [] -> None
      | [ p ] -> p.on_value
      | _ ->
        (* each set sees only the instructions it watches *)
        Some
          (fun fid iid v ->
            List.iter
              (fun p ->
                match p.on_value with
                | Some h when p.watch fid iid -> h fid iid v
                | _ -> ())
              valued));
    on_finish =
      fan (fun p -> p.on_finish) (fun hs () -> List.iter (fun h -> h ()) hs);
  }

(* the first binding of each name, in program order — the function the
   tree interpreter's call resolution finds *)
let functions (program : Ir.program) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (name, f) ->
      if Hashtbl.mem seen name then None
      else begin
        Hashtbl.add seen name ();
        Some f
      end)
    program.Ir.funcs
  |> Array.of_list

let code_size t =
  Array.fold_left (fun acc fc -> acc + Array.length fc.fc_code) 0 t.t_code

let layout t = t.t_layout

(* ------------------------------------------------------------------ *)
(* Compilation *)

let compile_operand = function
  | Ir.Reg v -> O_reg v
  | Ir.Imm_i n -> O_imm (Eval.Vi n)
  | Ir.Imm_f f -> O_imm (Eval.Vf f)

let compile_region layout = function
  | Ir.Rsym s -> R_sym (s, Layout.element_address layout s 0)
  | Ir.Rparam (slot, name) -> R_param (slot, name)

let compile_phis (phis : Ir.instr list) : block_head =
  match phis with
  | [] -> H_none
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
    H_phis (Array.of_list (List.map (fun p -> (p, edge p)) preds))

(* [fid_of] resolves a callee name to its function index, if any *)
let compile_instr layout fid_of (k : Ir.kind) : inst =
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
      match fid_of name with Some fid -> C_func fid | None -> C_builtin name
    in
    I_call (dst, callee, Array.of_list sargs, Array.of_list rargs)
  | Ir.Phi _ -> assert false (* partitioned into the block head *)
  | Ir.Spt_fork id -> I_marker (`Fork id)
  | Ir.Spt_kill id -> I_marker (`Kill id)

let compile_term = function
  | Ir.Jump n -> T_jump n
  | Ir.Br (c, t, e) -> T_br (compile_operand c, t, e)
  | Ir.Ret o -> T_ret (Option.map compile_operand o)

(* A profiling run's compile context: the probes and the compiled
   function's index. *)
type probe_ctx = { pr : probes; fid : int }

let watched pc iid = pc.pr.on_value <> None && pc.pr.watch pc.fid iid

(* The block probe wraps the head when a block or phi value is probed. *)
let probe_head pc phis head =
  let values =
    List.filter_map
      (fun (i : Ir.instr) ->
        match i.Ir.kind with
        | Ir.Phi (d, _) when watched pc i.Ir.iid -> Some (i.Ir.iid, d)
        | _ -> None)
      phis
  in
  if pc.pr.on_block = None && values = [] then head
  else H_probe (pc.fid, head, Array.of_list values)

(* One instruction's code in a profiling run: the probed form of the
   instruction, then [P_value] when it defines a watched value.  Every
   program call goes through [P_call], which enters the callee by index
   and fires its entry and exit. *)
let probe_instr pc (i : Ir.instr) inst =
  let iid = i.Ir.iid in
  let inst =
    match inst with
    | I_load (d, r, idx) when pc.pr.on_load <> None ->
      I_probe (P_load (iid, d, r, idx))
    | I_store (r, idx, src) when pc.pr.on_store <> None ->
      I_probe (P_store (iid, r, idx, src))
    | I_call (dst, callee, sargs, rargs) ->
      I_probe (P_call { iid; dst; callee; sargs; rargs })
    | inst -> inst
  in
  let value d = [ inst; I_probe (P_value (pc.fid, iid, d)) ] in
  match inst with
  | (I_move (d, _) | I_unop (d, _, _) | I_binop (d, _, _, _) | I_load (d, _, _))
    when watched pc iid ->
    value d
  | I_probe (P_load (_, d, _, _)) when watched pc iid -> value d
  | I_probe (P_call { callee = C_builtin _; dst = Some d; _ })
    when watched pc iid ->
    value d
  | inst -> [ inst ]

let compile_func ?probe layout fid_of (f : Ir.func) : fcode =
  let bids = Ir.block_ids f in
  let maxbid = List.fold_left max (-1) bids in
  let blocks = Array.make (maxbid + 1) { bc_start = -1; bc_head = H_none } in
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
      let head = compile_phis phis in
      let head =
        match probe with None -> head | Some pc -> probe_head pc phis head
      in
      blocks.(bid) <- { bc_start = !n; bc_head = head };
      List.iter
        (fun (i : Ir.instr) ->
          let inst = compile_instr layout fid_of i.Ir.kind in
          match probe with
          | None -> emit inst
          | Some pc -> List.iter emit (probe_instr pc i inst))
        rest;
      emit (compile_term b.Ir.term))
    bids;
  { fc_func = f; fc_code = Array.of_list (List.rev !rev_code); fc_blocks = blocks }

let compile_code ?probes (program : Ir.program) : t =
  let layout = Layout.build program.Ir.globals in
  let fs = functions program in
  let fids = Hashtbl.create 16 in
  Array.iteri (fun fid (f : Ir.func) -> Hashtbl.add fids f.Ir.fname fid) fs;
  let fid_of = Hashtbl.find_opt fids in
  let code =
    Array.mapi
      (fun fid f ->
        let probe = Option.map (fun pr -> { pr; fid }) probes in
        compile_func ?probe layout fid_of f)
      fs
  in
  { t_layout = layout; t_code = code }

let compile program = compile_code program

(* ------------------------------------------------------------------ *)
(* Machines *)

exception Runtime_error = I.Runtime_error

let err fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* The machine record is also the dispatch loop's context: its step and
   block-entry counters are the ones the budget checks, [steps] reports
   and a marker handler sees, so no segment copies them in or out. *)
type machine = {
  code : t;
  memio : I.memio;
  max_steps : int;
  mutable steps : int;
  mutable entries : int;
  mutable on_marker : (frame -> marker -> cursor -> marker_action) option;
  pr : probes;  (** read only by probe code *)
}

let make ?(max_steps = 200_000_000) ~memio code =
  {
    code;
    memio;
    max_steps;
    steps = 0;
    entries = 0;
    on_marker = None;
    pr = no_probes;
  }

let steps m = m.steps
let set_marker_handler m h = m.on_marker <- h

(* the index of a compiled function: only first bindings compile *)
let fid_of_func t (f : Ir.func) =
  let n = Array.length t.t_code in
  let rec find i =
    if i = n then
      invalid_arg
        (Printf.sprintf
           "Engine: function %s was not compiled (a shadowed binding or \
            another program's)"
           f.Ir.fname)
    else if t.t_code.(i).fc_func == f then i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Execution *)

let uninit frame (v : Ir.var) =
  err "read of uninitialized register %s.%d in %s" v.Ir.vname v.Ir.vid
    frame.func.Ir.fname

let read_reg frame (v : Ir.var) =
  match frame.frio with
  | None -> (
    match frame.regs.(v.Ir.vid) with
    | Some x -> x
    | None -> uninit frame v)
  | Some r -> (
    match r.I.rio_get v with Some x -> x | None -> uninit frame v)

let write_reg frame (v : Ir.var) x =
  match frame.frio with
  | None -> frame.regs.(v.Ir.vid) <- Some x
  | Some r -> r.I.rio_set v x

let read_operand frame = function
  | O_reg v -> read_reg frame v
  | O_imm x -> x

let as_int = function
  | Eval.Vi n -> Int64.to_int n
  | Eval.Vf _ -> err "expected integer value"

let resolve_param frame slot name =
  if slot < Array.length frame.arr_args then frame.arr_args.(slot)
  else err "unbound array parameter %s" name

let load_addr m frame r idx =
  match r with
  | R_sym (s, base) ->
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds read %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    base + idx
  | R_param (slot, name) ->
    let s = resolve_param frame slot name in
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds read %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    Layout.element_address m.code.t_layout s idx

let store_addr m frame r idx =
  match r with
  | R_sym (s, base) ->
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds write %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    base + idx
  | R_param (slot, name) ->
    let s = resolve_param frame slot name in
    if idx < 0 || idx >= s.Ir.ssize then
      err "out-of-bounds write %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
    Layout.element_address m.code.t_layout s idx

let resolve_rarg frame = function
  | R_sym (s, _) -> s
  | R_param (slot, name) -> resolve_param frame slot name

let check_budget m =
  if m.steps + m.entries > m.max_steps then
    err "step limit exceeded (%d)" m.max_steps

let run_phis m frame bid prev edges =
  let n = Array.length edges in
  let rec find i =
    if i = n then
      err "phi in bb%d has no operand for predecessor bb%d" bid prev
    else
      let p, e = edges.(i) in
      if p = prev then e else find (i + 1)
  in
  match find 0 with
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
    m.steps <- m.steps + k

let run_head m frame bid prev = function
  | H_none -> ()
  | H_phis edges -> run_phis m frame bid prev edges
  | H_probe (fid, head, values) -> (
    (match m.pr.on_block with Some h -> h fid bid prev | None -> ());
    (match head with
    | H_phis edges -> run_phis m frame bid prev edges
    | H_none | H_probe _ -> ());
    match m.pr.on_value with
    | Some h -> Array.iter (fun (iid, d) -> h fid iid (read_reg frame d)) values
    | None -> ())

let eval_scalars frame sargs =
  let ns = Array.length sargs in
  let scalars = Array.make ns (Eval.Vi 0L) in
  for i = 0 to ns - 1 do
    scalars.(i) <- read_operand frame sargs.(i)
  done;
  scalars

let resolve_rargs frame rargs =
  let na = Array.length rargs in
  if na = 0 then [||]
  else begin
    let a0 = resolve_rarg frame rargs.(0) in
    let arr = Array.make na a0 in
    for i = 1 to na - 1 do
      arr.(i) <- resolve_rarg frame rargs.(i)
    done;
    arr
  end

let call_builtin m frame dst name scalars =
  let ret = I.exec_builtin m.memio name (Array.to_list scalars) in
  match (dst, ret) with
  | Some d, Some v -> write_reg frame d v
  | Some _, None -> err "builtin %s returned no value" name
  | None, _ -> ()

let set_result frame dst (f : Ir.func) ret =
  match (dst, ret) with
  | Some d, Some v -> write_reg frame d v
  | Some _, None -> err "call to %s returned no value" f.Ir.fname
  | None, _ -> ()

let new_frame (f : Ir.func) arrays =
  {
    func = f;
    regs = Array.make (Spt_util.Idgen.peek f.Ir.var_gen) None;
    arr_args = arrays;
    frio = None;
  }

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

(* The dispatch loop: run [frame] from [cur] until a marker executes
   (when [watch]), control is about to enter [stop_block], or the frame
   returns. *)
let rec seg_exec m frame fc (stop_block : int option) watch (cur : cursor) :
    seg_stop =
  let code = fc.fc_code in
  let bc0 = block_of fc cur.cbid in
  if cur.cpos = 0 then begin
    m.entries <- m.entries + 1;
    run_head m frame cur.cbid cur.cprev bc0.bc_head
  end
  else if cur.cpos < 0 || bc0.bc_start + cur.cpos >= Array.length code then
    (* a resumed cursor comes from a caller: keep the fetch in bounds *)
    invalid_arg
      (Printf.sprintf "Engine: cursor bb%d+%d is outside %s" cur.cbid cur.cpos
         frame.func.Ir.fname);
  let rec loop bid prev start pc : seg_stop =
    match Array.unsafe_get code pc with
    | I_move (d, o) ->
      m.steps <- m.steps + 1;
      write_reg frame d (read_operand frame o);
      loop bid prev start (pc + 1)
    | I_unop (d, op, o) ->
      m.steps <- m.steps + 1;
      write_reg frame d (Eval.eval_unop op (read_operand frame o));
      loop bid prev start (pc + 1)
    | I_binop (d, op, oa, ob) ->
      m.steps <- m.steps + 1;
      let a = read_operand frame oa in
      let b = read_operand frame ob in
      let v =
        try Eval.eval_binop op a b
        with Eval.Division_by_zero -> err "division by zero"
      in
      write_reg frame d v;
      loop bid prev start (pc + 1)
    | I_load (d, r, idx_op) ->
      m.steps <- m.steps + 1;
      let idx = as_int (read_operand frame idx_op) in
      let addr = load_addr m frame r idx in
      write_reg frame d (m.memio.I.mio_load addr);
      loop bid prev start (pc + 1)
    | I_store (r, idx_op, src) ->
      m.steps <- m.steps + 1;
      let idx = as_int (read_operand frame idx_op) in
      let v = read_operand frame src in
      let addr = store_addr m frame r idx in
      m.memio.I.mio_store addr v;
      loop bid prev start (pc + 1)
    | I_call (dst, callee, sargs, rargs) ->
      m.steps <- m.steps + 1;
      let scalars = eval_scalars frame sargs in
      let arrays = resolve_rargs frame rargs in
      (match callee with
      | C_builtin name -> call_builtin m frame dst name scalars
      | C_func fid ->
        set_result frame dst m.code.t_code.(fid).fc_func
          (call_fn m fid scalars arrays));
      loop bid prev start (pc + 1)
    | I_marker mk ->
      m.steps <- m.steps + 1;
      if watch then
        Seg_marker (mk, { cbid = bid; cprev = prev; cpos = pc + 1 - start })
      else loop bid prev start (pc + 1)
    | T_jump next ->
      check_budget m;
      continue bid next
    | T_br (c, bt, be) ->
      check_budget m;
      continue bid (if Eval.is_truthy (read_operand frame c) then bt else be)
    | T_ret o ->
      check_budget m;
      Seg_return
        (match o with None -> None | Some o -> Some (read_operand frame o))
    | I_probe probe ->
      probe_step m frame probe;
      loop bid prev start (pc + 1)
  and continue bid next =
    match stop_block with
    | Some sb when next = sb ->
      Seg_stop_block { cbid = next; cprev = bid; cpos = 0 }
    | _ ->
      let bc = block_of fc next in
      m.entries <- m.entries + 1;
      run_head m frame next bid bc.bc_head;
      loop next bid bc.bc_start bc.bc_start
  in
  loop cur.cbid cur.cprev bc0.bc_start (bc0.bc_start + cur.cpos)

(* A program call, entered by function index; a profiling run fires the
   callee's entry and exit around it. *)
and call_fn m fid (scalars : value array) (arrays : Ir.sym array) :
    value option =
  let fc = m.code.t_code.(fid) in
  let f = fc.fc_func in
  let frame = new_frame f arrays in
  bind_params frame f scalars;
  (match m.pr.on_enter with Some h -> h fid | None -> ());
  let ret = drive m frame fc f.Ir.entry in
  (match m.pr.on_exit with Some h -> h fid | None -> ());
  ret

(* The probe opcodes of a profiling run, apart from the dispatch loop so
   that the loop unprofiled runs execute is the one without them. *)
and probe_step m frame = function
  | P_load (iid, d, r, idx_op) ->
    m.steps <- m.steps + 1;
    let idx = as_int (read_operand frame idx_op) in
    let addr = load_addr m frame r idx in
    write_reg frame d (m.memio.I.mio_load addr);
    (match m.pr.on_load with Some h -> h iid addr | None -> ())
  | P_store (iid, r, idx_op, src) ->
    m.steps <- m.steps + 1;
    let idx = as_int (read_operand frame idx_op) in
    let v = read_operand frame src in
    let addr = store_addr m frame r idx in
    m.memio.I.mio_store addr v;
    (match m.pr.on_store with Some h -> h iid addr | None -> ())
  | P_call { iid; dst; callee; sargs; rargs } ->
    m.steps <- m.steps + 1;
    let scalars = eval_scalars frame sargs in
    let arrays = resolve_rargs frame rargs in
    let site () = match m.pr.on_call with Some h -> h iid | None -> () in
    (* the tree's order: a program call's site precedes its callee's
       entry; a builtin's follows the builtin *)
    (match callee with
    | C_builtin name ->
      call_builtin m frame dst name scalars;
      site ()
    | C_func fid ->
      site ();
      set_result frame dst m.code.t_code.(fid).fc_func
        (call_fn m fid scalars arrays))
  | P_value (fid, iid, d) ->
    (match m.pr.on_value with
    | Some h -> h fid iid (read_reg frame d)
    | None -> ())

(* Run a frame from [entry] to its return, dispatching SPT markers to
   the machine's handler (markers are no-ops when there is none). *)
and drive m frame fc entry : value option =
  let rec go cur =
    match seg_exec m frame fc None (m.on_marker <> None) cur with
    | Seg_return v -> v
    | Seg_stop_block _ -> assert false (* no stop_block was given *)
    | Seg_marker (mk, after) -> (
      match m.on_marker with
      | None -> go after
      | Some handler -> (
        match handler frame mk after with
        | Proceed -> go after
        | Jump_to c -> go c
        | Return_now v -> v))
  in
  go { cbid = entry; cprev = -1; cpos = 0 }

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let exec_segment m frame ?stop_block ~watch_markers cur =
  let fc = m.code.t_code.(fid_of_func m.code frame.func) in
  seg_exec m frame fc stop_block watch_markers cur

let call m (f : Ir.func) (scalars : value list) (arrays : Ir.sym list) =
  call_fn m (fid_of_func m.code f) (Array.of_list scalars)
    (Array.of_list arrays)

let m_runs = Spt_obs.Metrics.counter "exec.runs"
let m_steps = Spt_obs.Metrics.counter "exec.steps"

let run ?max_steps (program : Ir.program) : I.result =
  let code = compile program in
  let store = I.new_store code.t_layout program in
  let m = make ?max_steps ~memio:(I.store_memio store) code in
  let return_value = call m (Ir.func_of_program program "main") [] [] in
  Spt_obs.Metrics.inc m_runs;
  Spt_obs.Metrics.add m_steps m.steps;
  {
    I.return_value;
    output = Buffer.contents store.I.sout;
    dynamic_instrs = m.steps;
  }

let profile ?max_steps probes (program : Ir.program) : I.result =
  Fun.protect
    ~finally:(fun () -> Option.iter (fun h -> h ()) probes.on_finish)
    (fun () ->
      let code = compile_code ~probes program in
      let store = I.new_store code.t_layout program in
      let m =
        { (make ?max_steps ~memio:(I.store_memio store) code) with pr = probes }
      in
      let main = fid_of_func code (Ir.func_of_program program "main") in
      let return_value = call_fn m main [||] [||] in
      Spt_obs.Metrics.inc m_runs;
      Spt_obs.Metrics.add m_steps m.steps;
      {
        I.return_value;
        output = Buffer.contents store.I.sout;
        dynamic_instrs = m.steps;
      })
