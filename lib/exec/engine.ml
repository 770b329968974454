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
      fid : int;  (** the callee's function index; -1 for builtins *)
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
  t_program : Ir.program;
  t_layout : Layout.t;
  t_funcs : (string, fcode) Hashtbl.t;
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

(* A profiling run's compile context: the probes, the compiled
   function's index, and callee names resolved to function indices. *)
type probe_ctx = { pr : probes; fid : int; fid_of : string -> int }

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
      let fid =
        match callee with C_func f -> pc.fid_of f.Ir.fname | C_builtin _ -> -1
      in
      I_probe (P_call { iid; fid; dst; callee; sargs; rargs })
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

let compile_func ?probe layout (program : Ir.program) (f : Ir.func) : fcode =
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
          let inst = compile_instr layout program i.Ir.kind in
          match probe with
          | None -> emit inst
          | Some pc -> List.iter emit (probe_instr pc i inst))
        rest;
      emit (compile_term b.Ir.term))
    bids;
  { fc_func = f; fc_code = Array.of_list (List.rev !rev_code); fc_blocks = blocks }

let compile_code ?probes (st : I.state) : t =
  let program = I.program_of st in
  let layout = I.layout st in
  let fs = functions program in
  let fids = Hashtbl.create 16 in
  Array.iteri (fun fid (f : Ir.func) -> Hashtbl.add fids f.Ir.fname fid) fs;
  let code =
    Array.mapi
      (fun fid f ->
        let probe =
          Option.map (fun pr -> { pr; fid; fid_of = Hashtbl.find fids }) probes
        in
        compile_func ?probe layout program f)
      fs
  in
  let funcs = Hashtbl.create 16 in
  Array.iter (fun fc -> Hashtbl.add funcs fc.fc_func.Ir.fname fc) code;
  { t_program = program; t_layout = layout; t_funcs = funcs; t_code = code }

let compile st = compile_code st

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
  pr : probes;  (** read only by probe code *)
}

let make_ctx ?(probes = no_probes) t st =
  let steps, entries = I.counts st in
  {
    st;
    prog = t;
    layout = t.t_layout;
    memio = I.memio_of st;
    max_steps = I.max_steps_of st;
    steps;
    entries;
    pr = probes;
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

let run_phis ctx frame bid prev edges =
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
    ctx.steps <- ctx.steps + k

let run_head ctx frame bid prev = function
  | H_none -> ()
  | H_phis edges -> run_phis ctx frame bid prev edges
  | H_probe (fid, head, values) -> (
    (match ctx.pr.on_block with Some h -> h fid bid prev | None -> ());
    (match head with
    | H_phis edges -> run_phis ctx frame bid prev edges
    | H_none | H_probe _ -> ());
    match ctx.pr.on_value with
    | Some h -> Array.iter (fun (iid, d) -> h fid iid (read_reg frame d)) values
    | None -> ())

let eval_scalars frame sargs =
  let ns = Array.length sargs in
  let scalars = Array.make ns (Eval.Vi 0L) in
  for i = 0 to ns - 1 do
    scalars.(i) <- read_operand frame sargs.(i)
  done;
  scalars

let resolve_rargs ctx frame rargs =
  let na = Array.length rargs in
  if na = 0 then [||]
  else begin
    let a0 = resolve_rarg ctx frame rargs.(0) in
    let arr = Array.make na a0 in
    for i = 1 to na - 1 do
      arr.(i) <- resolve_rarg ctx frame rargs.(i)
    done;
    arr
  end

let call_builtin ctx frame dst name scalars =
  let ret = I.exec_builtin ctx.st name (Array.to_list scalars) in
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
    I.func = f;
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

(* The dispatch loop.  [seg_exec] is the engine's [exec_segment];
   [call_fn] its [exec_call]; [drive] its [run_frame]. *)
let rec seg_exec ctx frame fc (stop_block : int option) watch
    (cur : I.cursor) : I.seg_stop =
  let code = fc.fc_code in
  let bc0 = block_of fc cur.I.cbid in
  if cur.I.cpos = 0 then begin
    ctx.entries <- ctx.entries + 1;
    run_head ctx frame cur.I.cbid cur.I.cprev bc0.bc_head
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
      let scalars = eval_scalars frame sargs in
      let arrays = resolve_rargs ctx frame rargs in
      (match callee with
      | C_builtin name -> call_builtin ctx frame dst name scalars
      | C_func f -> set_result frame dst f (call_fn ctx f scalars arrays));
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
    | I_probe probe ->
      probe_step ctx frame probe;
      loop bid prev start (pc + 1)
  and continue bid next =
    match stop_block with
    | Some sb when next = sb ->
      I.Seg_stop_block { I.cbid = next; cprev = bid; cpos = 0 }
    | _ ->
      let bc = block_of fc next in
      ctx.entries <- ctx.entries + 1;
      run_head ctx frame next bid bc.bc_head;
      loop next bid bc.bc_start bc.bc_start
  in
  loop cur.I.cbid cur.I.cprev bc0.bc_start (bc0.bc_start + cur.I.cpos)

and call_fn ctx (f : Ir.func) (scalars : value array) (arrays : Ir.sym array) :
    value option =
  match Hashtbl.find_opt ctx.prog.t_funcs f.Ir.fname with
  | Some fc when fc.fc_func == f ->
    let frame = new_frame f arrays in
    bind_params frame f scalars;
    drive ctx frame fc f.Ir.entry
  | _ ->
    (* shadowed or foreign function: delegate the whole call tree *)
    flush ctx;
    Fun.protect
      ~finally:(fun () -> reload ctx)
      (fun () -> I.call ctx.st f (Array.to_list scalars) (Array.to_list arrays))

(* The probe opcodes of a profiling run, apart from the dispatch loop so
   that the loop unprofiled runs execute is the one without them. *)
and probe_step ctx frame = function
  | P_load (iid, d, r, idx_op) ->
    ctx.steps <- ctx.steps + 1;
    let idx = as_int (read_operand frame idx_op) in
    let addr = load_addr ctx frame r idx in
    write_reg frame d (ctx.memio.I.mio_load addr);
    (match ctx.pr.on_load with Some h -> h iid addr | None -> ())
  | P_store (iid, r, idx_op, src) ->
    ctx.steps <- ctx.steps + 1;
    let idx = as_int (read_operand frame idx_op) in
    let v = read_operand frame src in
    let addr = store_addr ctx frame r idx in
    ctx.memio.I.mio_store addr v;
    (match ctx.pr.on_store with Some h -> h iid addr | None -> ())
  | P_call { iid; fid; dst; callee; sargs; rargs } ->
    ctx.steps <- ctx.steps + 1;
    let scalars = eval_scalars frame sargs in
    let arrays = resolve_rargs ctx frame rargs in
    let site () = match ctx.pr.on_call with Some h -> h iid | None -> () in
    (* the tree's order: a program call's site precedes its callee's
       entry; a builtin's follows the builtin *)
    (match callee with
    | C_builtin name ->
      call_builtin ctx frame dst name scalars;
      site ()
    | C_func f ->
      site ();
      set_result frame dst f (call_probed ctx fid scalars arrays))
  | P_value (fid, iid, d) ->
    (match ctx.pr.on_value with
    | Some h -> h fid iid (read_reg frame d)
    | None -> ())

(* A profiling run's call: the callee is entered by index, so no call
   is ever handed to the tree interpreter (which fires no probes). *)
and call_probed ctx fid scalars arrays =
  let fc = ctx.prog.t_code.(fid) in
  let f = fc.fc_func in
  let frame = new_frame f arrays in
  bind_params frame f scalars;
  (match ctx.pr.on_enter with Some h -> h fid | None -> ());
  let ret = drive ctx frame fc f.Ir.entry in
  (match ctx.pr.on_exit with Some h -> h fid | None -> ());
  ret

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

let profile ?(max_steps = 200_000_000) probes (program : Ir.program) :
    I.result =
  Fun.protect
    ~finally:(fun () -> Option.iter (fun h -> h ()) probes.on_finish)
    (fun () ->
      let layout = Layout.build program.Ir.globals in
      let store = I.new_store layout program in
      let st = I.make ~max_steps ~memio:(I.store_memio store) program in
      let t = compile_code ~probes st in
      let mainf = Ir.func_of_program program "main" in
      let rec index i =
        if t.t_code.(i).fc_func == mainf then i else index (i + 1)
      in
      let ctx = make_ctx ~probes t st in
      let return_value = call_probed ctx (index 0) [||] [||] in
      Spt_obs.Metrics.inc m_runs;
      Spt_obs.Metrics.add m_steps ctx.steps;
      {
        I.return_value;
        output = Buffer.contents store.I.sout;
        dynamic_instrs = ctx.steps;
      })
