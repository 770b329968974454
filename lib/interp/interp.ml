(** Reference interpreter for the IR, with instrumentation hooks.

    The interpreter is the ground truth for program semantics: the
    SPT-transformed program must print the same output and return the
    same value as the original (SPT_FORK/SPT_KILL are sequential
    no-ops), which the test-suite checks for every workload.

    The hooks expose the full dynamic event stream — executed
    instructions with their register/memory effects, block entries and
    taken control-flow edges — on which the trace-driven TLS timing
    simulator and the profilers' reference model are built.

    The state backends ([memio], [regio], [store]) and the builtins are
    shared with the bytecode engine ({!Spt_exec}), which runs the
    speculative runtime's segments against versioned state. *)

open Spt_ir

type value = Eval.value

(** Register and memory effects of one executed instruction.  Addresses
    are element-granular (see {!Layout.element_address}). *)
type effects = {
  loads : (int * value) list;  (** (address, value read) *)
  stores : (int * value) list;  (** (address, value written) *)
  defs : (Ir.var * value) list;
  uses : (Ir.var * value) list;
}

let no_effects = { loads = []; stores = []; defs = []; uses = [] }

type hooks = {
  on_instr : Ir.func -> int -> Ir.instr -> effects -> unit;
      (** [on_instr f bid i eff] fires after [i] (in block [bid] of [f])
          executes.  Instructions inside callees fire with their own
          function/blocks. *)
  on_block : Ir.func -> int -> unit;  (** block entry *)
  on_edge : Ir.func -> src:int -> dst:int -> unit;  (** taken CFG edge *)
  on_branch : Ir.func -> int -> taken:bool -> unit;
      (** conditional branch outcome in block [bid] *)
  on_enter : Ir.func -> unit;  (** function entry (after the caller's
      [on_instr] for the call instruction) *)
  on_exit : Ir.func -> unit;  (** function return *)
}

let null_hooks =
  {
    on_instr = (fun _ _ _ _ -> ());
    on_block = (fun _ _ -> ());
    on_edge = (fun _ ~src:_ ~dst:_ -> ());
    on_branch = (fun _ _ ~taken:_ -> ());
    on_enter = (fun _ -> ());
    on_exit = (fun _ -> ());
  }

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Pluggable state backends *)

(** Memory, RNG and output backend of a machine.  The default backend
    ([store_memio]) operates on a flat array, an LCG cell and a buffer;
    the speculative runtime substitutes versioned views. *)
type memio = {
  mio_load : int -> value;  (** element-granular address *)
  mio_store : int -> value -> unit;
  mio_rng : unit -> int64;  (** current LCG state *)
  mio_set_rng : int64 -> unit;
  mio_print : string -> unit;  (** output of the print builtins *)
}

(** Register backend for a single frame.  [rio_get] returns [None] for
    uninitialized registers. *)
type regio = {
  rio_get : Ir.var -> value option;
  rio_set : Ir.var -> value -> unit;
}

(** The concrete default backend: flat element-granular memory, the
    fixed-seed LCG and the output buffer. *)
type store = { smem : value array; mutable srng : int64; sout : Buffer.t }

let init_memory layout (globals : Ir.sym list) =
  let mem = Array.make (Layout.total_elements layout) (Eval.Vi 0L) in
  List.iter
    (fun (s : Ir.sym) ->
      let base = Layout.element_address layout s 0 in
      for i = 0 to s.Ir.ssize - 1 do
        mem.(base + i) <- Eval.zero_of_ty s.Ir.selt
      done;
      match s.Ir.sinit with
      | Some vals ->
        List.iteri
          (fun i n ->
            if i < s.Ir.ssize then
              mem.(base + i) <-
                (match s.Ir.selt with
                | Ir.I64 -> Eval.Vi n
                | Ir.F64 -> Eval.Vf (Int64.to_float n)))
          vals
      | None -> ())
    globals;
  mem

let initial_rng = 88172645463325252L

let new_store layout (program : Ir.program) =
  {
    smem = init_memory layout program.Ir.globals;
    srng = initial_rng;
    sout = Buffer.create 256;
  }

let store_memio st =
  {
    mio_load = (fun a -> st.smem.(a));
    mio_store = (fun a v -> st.smem.(a) <- v);
    mio_rng = (fun () -> st.srng);
    mio_set_rng = (fun r -> st.srng <- r);
    mio_print = Buffer.add_string st.sout;
  }

(* ------------------------------------------------------------------ *)
(* Builtins *)

let lcg_next memio =
  (* Numerical Recipes LCG; deterministic across runs *)
  let r =
    Int64.add
      (Int64.mul (memio.mio_rng ()) 6364136223846793005L)
      1442695040888963407L
  in
  memio.mio_set_rng r;
  Int64.shift_right_logical r 33

let exec_builtin memio name (args : value list) : value option =
  match (name, args) with
  | "abs", [ Eval.Vi a ] -> Some (Eval.Vi (Int64.abs a))
  | "min", [ Eval.Vi a; Eval.Vi b ] -> Some (Eval.Vi (min a b))
  | "max", [ Eval.Vi a; Eval.Vi b ] -> Some (Eval.Vi (max a b))
  | "fmin", [ Eval.Vf a; Eval.Vf b ] -> Some (Eval.Vf (Float.min a b))
  | "fmax", [ Eval.Vf a; Eval.Vf b ] -> Some (Eval.Vf (Float.max a b))
  | "rand", [] -> Some (Eval.Vi (lcg_next memio))
  | "srand", [ Eval.Vi seed ] ->
    memio.mio_set_rng seed;
    None
  | "print_int", [ Eval.Vi n ] ->
    memio.mio_print (Int64.to_string n ^ "\n");
    None
  | "print_float", [ Eval.Vf f ] ->
    memio.mio_print (Printf.sprintf "%.6g\n" f);
    None
  | _ -> error "bad builtin call %s/%d" name (List.length args)

(* ------------------------------------------------------------------ *)
(* Machine state *)

type frame = {
  func : Ir.func;
  regs : value option array;  (** indexed by vid; [None] = uninitialized *)
  arr_args : Ir.sym array;  (** array-parameter slots resolved to regions *)
}

(* Per-machine caches of what the tree re-derives on every block entry
   and call: a block's phis and its other instructions as an array, per
   function, filled as blocks are entered; and each callee name's
   function.  Both assume the program does not change under a running
   machine. *)
type block_cache = {
  bk_block : Ir.block;
  bk_phis : Ir.instr list;
  bk_rest : Ir.instr array;
}

type func_cache = { fk_func : Ir.func; fk_blocks : block_cache option array }

type state = {
  program : Ir.program;
  layout : Layout.t;
  memio : memio;
  mutable steps : int;
  mutable block_entries : int;
  max_steps : int;
  hooks : hooks;
  hooked : bool;  (** [hooks] is not [null_hooks]: fire them, with effects *)
  mutable func_caches : func_cache list;
  mutable callees : (string, Ir.func) Hashtbl.t option;
      (** the first binding of each name; built on the first call *)
}

type result = {
  return_value : value option;
  output : string;
  dynamic_instrs : int;
}

let func_cache st (f : Ir.func) =
  let rec find = function
    | [] ->
      let fk =
        {
          fk_func = f;
          fk_blocks = Array.make (Spt_util.Idgen.peek f.Ir.blk_gen) None;
        }
      in
      st.func_caches <- fk :: st.func_caches;
      fk
    | fk :: tl -> if fk.fk_func == f then fk else find tl
  in
  find st.func_caches

let block_cache fk bid =
  let build () =
    (* [Ir.block] raises the usual error for an unknown id *)
    let b = Ir.block fk.fk_func bid in
    let phis, rest =
      List.partition (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind) b.Ir.instrs
    in
    { bk_block = b; bk_phis = phis; bk_rest = Array.of_list rest }
  in
  if bid >= 0 && bid < Array.length fk.fk_blocks then (
    match Array.unsafe_get fk.fk_blocks bid with
    | Some bk -> bk
    | None ->
      let bk = build () in
      fk.fk_blocks.(bid) <- Some bk;
      bk)
  else build ()

let callee st name =
  let tbl =
    match st.callees with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (n, f) -> if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n f)
        st.program.Ir.funcs;
      st.callees <- Some tbl;
      tbl
  in
  Hashtbl.find_opt tbl name

(* resolve a region to the concrete global it denotes in this frame *)
let resolve_region frame = function
  | Ir.Rsym s -> s
  | Ir.Rparam (slot, name) ->
    if slot < Array.length frame.arr_args then frame.arr_args.(slot)
    else error "unbound array parameter %s" name

let read_reg frame v =
  match frame.regs.(v.Ir.vid) with
  | Some x -> x
  | None ->
    error "read of uninitialized register %s.%d in %s" v.Ir.vname v.Ir.vid
      frame.func.Ir.fname

let write_reg frame v x = frame.regs.(v.Ir.vid) <- Some x

let read_operand frame = function
  | Ir.Reg v -> read_reg frame v
  | Ir.Imm_i n -> Eval.Vi n
  | Ir.Imm_f f -> Eval.Vf f

let mem_read st frame region idx =
  let s = resolve_region frame region in
  if idx < 0 || idx >= s.Ir.ssize then
    error "out-of-bounds read %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
  let a = Layout.element_address st.layout s idx in
  (a, st.memio.mio_load a)

let mem_write st frame region idx v =
  let s = resolve_region frame region in
  if idx < 0 || idx >= s.Ir.ssize then
    error "out-of-bounds write %s[%d] (size %d)" s.Ir.sname idx s.Ir.ssize;
  let a = Layout.element_address st.layout s idx in
  st.memio.mio_store a v;
  a

let as_int = function
  | Eval.Vi n -> Int64.to_int n
  | Eval.Vf _ -> error "expected integer value"

(* ------------------------------------------------------------------ *)
(* Execution *)

let rec exec_call st (callee : Ir.func) (scalar_args : value list)
    (array_args : Ir.sym list) : value option =
  let frame =
    {
      func = callee;
      regs = Array.make (Spt_util.Idgen.peek callee.Ir.var_gen) None;
      arr_args = Array.of_list array_args;
    }
  in
  (* bind scalar parameters *)
  let rec bind params args =
    match (params, args) with
    | [], [] -> ()
    | Ir.Pscalar v :: ps, a :: rest ->
      write_reg frame v a;
      bind ps rest
    | Ir.Parray _ :: ps, args -> bind ps args
    | _ -> error "arity mismatch calling %s" callee.Ir.fname
  in
  bind callee.Ir.fparams scalar_args;
  if st.hooked then st.hooks.on_enter callee;
  let ret = exec_block st frame (func_cache st callee) callee.Ir.entry (-1) in
  if st.hooked then st.hooks.on_exit callee;
  ret

(** Enter block [bid] from [prev] ([-1] at function entry) and run the
    frame from there to its return.  Calls run to completion inside
    the instruction that makes them. *)
and exec_block st frame fk bid prev : value option =
  let b = block_cache fk bid in
  st.block_entries <- st.block_entries + 1;
  if st.hooked then begin
    st.hooks.on_block frame.func bid;
    if prev >= 0 then st.hooks.on_edge frame.func ~src:prev ~dst:bid
  end;
  (* phis evaluate in parallel against the incoming edge *)
  (match b.bk_phis with
  | [] -> ()
  | phis ->
    let phi_values =
      List.map
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Phi (d, ins) -> (
            match List.assoc_opt prev ins with
            | Some o -> (i, d, o, read_operand frame o)
            | None ->
              error "phi in bb%d has no operand for predecessor bb%d" bid prev)
          | _ -> assert false)
        phis
    in
    List.iter
      (fun ((i : Ir.instr), d, o, v) ->
        write_reg frame d v;
        st.steps <- st.steps + 1;
        if st.hooked then
          st.hooks.on_instr frame.func bid i
            {
              no_effects with
              defs = [ (d, v) ];
              uses = (match o with Ir.Reg u -> [ (u, v) ] | _ -> []);
            })
      phi_values);
  let rest = b.bk_rest in
  for k = 0 to Array.length rest - 1 do
    exec_instr st frame bid (Array.unsafe_get rest k)
  done;
  if st.steps + st.block_entries > st.max_steps then
    error "step limit exceeded (%d)" st.max_steps;
  match b.bk_block.Ir.term with
  | Ir.Jump next -> exec_block st frame fk next bid
  | Ir.Br (c, t, e) ->
    let cv = read_operand frame c in
    let taken = Eval.is_truthy cv in
    if st.hooked then st.hooks.on_branch frame.func bid ~taken;
    exec_block st frame fk (if taken then t else e) bid
  | Ir.Ret None -> None
  | Ir.Ret (Some o) -> Some (read_operand frame o)

(* Unhooked machines build no effects: every [fire] below sits behind
   [st.hooked]. *)
and exec_instr st frame bid (i : Ir.instr) =
  st.steps <- st.steps + 1;
  let fire eff = st.hooks.on_instr frame.func bid i eff in
  let reg_use o x = match o with Ir.Reg u -> [ (u, x) ] | _ -> [] in
  match i.Ir.kind with
  | Ir.Move (d, o) ->
    let v = read_operand frame o in
    write_reg frame d v;
    if st.hooked then
      fire { no_effects with defs = [ (d, v) ]; uses = reg_use o v }
  | Ir.Unop (d, op, o) ->
    let a = read_operand frame o in
    let v = Eval.eval_unop op a in
    write_reg frame d v;
    if st.hooked then
      fire { no_effects with defs = [ (d, v) ]; uses = reg_use o a }
  | Ir.Binop (d, op, oa, ob) ->
    let a = read_operand frame oa and b = read_operand frame ob in
    let v =
      try Eval.eval_binop op a b
      with Eval.Division_by_zero -> error "division by zero"
    in
    write_reg frame d v;
    if st.hooked then
      fire
        {
          no_effects with
          defs = [ (d, v) ];
          uses = reg_use oa a @ reg_use ob b;
        }
  | Ir.Load (d, region, idx_op) ->
    let idx = as_int (read_operand frame idx_op) in
    let addr, v = mem_read st frame region idx in
    write_reg frame d v;
    if st.hooked then
      fire
        {
          no_effects with
          loads = [ (addr, v) ];
          defs = [ (d, v) ];
          uses = reg_use idx_op (Eval.Vi (Int64.of_int idx));
        }
  | Ir.Store (region, idx_op, src) ->
    let idx = as_int (read_operand frame idx_op) in
    let v = read_operand frame src in
    let addr = mem_write st frame region idx v in
    if st.hooked then
      fire
        {
          no_effects with
          stores = [ (addr, v) ];
          uses = reg_use idx_op (Eval.Vi (Int64.of_int idx)) @ reg_use src v;
        }
  | Ir.Call (dst, name, args) -> (
    let scalar_args =
      List.filter_map
        (function Ir.Aop o -> Some (read_operand frame o) | Ir.Aarr _ -> None)
        args
    in
    let array_args =
      List.filter_map
        (function
          | Ir.Aarr r -> Some (resolve_region frame r)
          | Ir.Aop _ -> None)
        args
    in
    let uses =
      if not st.hooked then []
      else
        List.filter_map
          (function
            | Ir.Aop (Ir.Reg u) -> Some (u, read_reg frame u)
            | _ -> None)
          args
    in
    match callee st name with
    | Some callee ->
      (* fire the call event before the callee's own events *)
      if st.hooked then fire { no_effects with uses };
      let ret = exec_call st callee scalar_args array_args in
      (match (dst, ret) with
      | Some d, Some v -> write_reg frame d v
      | Some _, None -> error "call to %s returned no value" name
      | None, _ -> ())
    | None -> (
      let ret = exec_builtin st.memio name scalar_args in
      match (dst, ret) with
      | Some d, Some v ->
        write_reg frame d v;
        if st.hooked then fire { no_effects with defs = [ (d, v) ]; uses }
      | Some _, None -> error "builtin %s returned no value" name
      | None, _ -> if st.hooked then fire { no_effects with uses }))
  | Ir.Phi _ -> error "phi outside block head"
  (* SPT markers are sequential no-ops *)
  | Ir.Spt_fork _ | Ir.Spt_kill _ -> if st.hooked then fire no_effects

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* observability counters (no-ops unless metrics are enabled); charged
   once per run so the interpreter loop itself stays untouched *)
let m_runs = Spt_obs.Metrics.counter "interp.runs"
let m_steps = Spt_obs.Metrics.counter "interp.steps"

let run ?(hooks = null_hooks) ?(max_steps = 200_000_000) ?store
    (program : Ir.program) =
  let layout = Layout.build program.Ir.globals in
  let store =
    match store with Some s -> s | None -> new_store layout program
  in
  let st =
    {
      program;
      layout;
      memio = store_memio store;
      steps = 0;
      block_entries = 0;
      max_steps;
      hooks;
      hooked = hooks != null_hooks;
      func_caches = [];
      callees = None;
    }
  in
  let mainf = Ir.func_of_program program "main" in
  let return_value = exec_call st mainf [] [] in
  Spt_obs.Metrics.inc m_runs;
  Spt_obs.Metrics.add m_steps st.steps;
  {
    return_value;
    output = Buffer.contents store.sout;
    dynamic_instrs = st.steps;
  }

(** Compile MiniC source all the way and run it (no optimization). *)
let run_source ?hooks ?max_steps src =
  let ast = Spt_srclang.Typecheck.parse_and_check src in
  let prog = Lower.lower_program ast in
  run ?hooks ?max_steps prog
