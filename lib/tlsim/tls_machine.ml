(** The synthetic two-core TLS machine (§8).

    A trace-driven timing simulator: program *semantics* always come
    from the sequential interpreter (so SPT-transformed code is
    guaranteed functionally correct), and this machine consumes the
    dynamic event stream to compute *cycles* under the paper's
    execution model — one main core plus one speculative core, in-order
    issue, shared L2/L3 under private L1s, a bimodal branch predictor
    (5-cycle mispredict), 6-cycle fork and 5-cycle commit overheads.

    Inside a speculatively parallelized loop, consecutive iterations
    form (main, speculative) pairs: the main core runs iteration [i],
    spawning the speculative core at the SPT_FORK with a copy of the
    register context; the speculative core runs iteration [i+1] from
    the fork-completion time.  Violations are detected exactly as the
    hardware would:

    - a register read of the forked context is violated when the value
      at fork time differs from the value the read needs (value-based
      validation — which is also what makes software value prediction
      effective: a correctly predicted carried register is written
      before the fork and post-fork writes are value-identical);
    - a speculative load is violated when the main core stores to the
      same line element *after* the speculative core loaded it
      (address/time-based), unless the speculative thread had already
      buffered its own store to that address.

    Misspeculation propagates forward through the speculative
    iteration's register and store-buffer dataflow; at validation the
    main core commits (5 cycles) and re-executes the misspeculated
    slice serially, exactly the cost the paper's model estimates. *)

open Spt_ir
open Spt_interp
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* observability counters (no-ops unless metrics are enabled) *)
let m_instances = Spt_obs.Metrics.counter "tlsim.instances"
let m_iterations = Spt_obs.Metrics.counter "tlsim.iterations"
let m_forks = Spt_obs.Metrics.counter "tlsim.forks"
let m_misspeculations = Spt_obs.Metrics.counter "tlsim.misspeculations"
let m_kills = Spt_obs.Metrics.counter "tlsim.kills"
let m_reg_violations = Spt_obs.Metrics.counter "tlsim.reg_violations"
let m_mem_violations = Spt_obs.Metrics.counter "tlsim.mem_violations"

type config = {
  fork_overhead : float;
  commit_overhead : float;
  issue_width : float;
  cache : Cache.config;
  max_eligible_body : int;
      (** loop-size bound for the "maximum coverage" metric (paper: 1000) *)
  min_eligible_body : int;
}

let default_config =
  {
    fork_overhead = 6.0;
    commit_overhead = 5.0;
    issue_width = 2.0;
    cache = Cache.itanium2_config;
    max_eligible_body = 1000;
    min_eligible_body = 20;
  }

(** A speculatively parallelized loop, as registered by the driver. *)
type spt_loop = { sl_id : int; sl_fname : string; sl_header : int; sl_body : Iset.t }

(* ------------------------------------------------------------------ *)
(* Per-event cost model *)

let base_cost cfg (k : Ir.kind) =
  let unit = 1.0 /. cfg.issue_width in
  match k with
  | Ir.Move _ | Ir.Phi _ -> unit
  | Ir.Unop (_, (Ir.Neg | Ir.Bnot | Ir.I2f | Ir.F2i | Ir.Fabs), _) -> unit
  | Ir.Unop (_, Ir.Fsqrt, _) -> 15.0
  | Ir.Binop (d, ((Ir.Mul | Ir.Div | Ir.Rem) as op), _, _) -> (
    match (d.Ir.vty, op) with
    | Ir.I64, Ir.Mul -> 2.0
    | Ir.I64, _ -> 8.0
    | Ir.F64, Ir.Mul -> 1.0
    | Ir.F64, _ -> 15.0)
  | Ir.Binop (d, _, _, _) -> if d.Ir.vty = Ir.F64 then 0.75 else unit
  | Ir.Load _ -> unit  (* cache latency added separately *)
  | Ir.Store _ -> unit  (* store buffer hides the write *)
  | Ir.Call _ -> 1.5
  | Ir.Spt_fork _ | Ir.Spt_kill _ -> unit

let load_extra lat = 0.8 *. float_of_int (lat - 1)

(* ------------------------------------------------------------------ *)
(* Buffered events of speculative-loop iterations *)

type ev =
  | Ev_instr of {
      base : float;
      op_units : int;
      frame : int;
      loads : int list;  (** element addresses *)
      stores : int list;
      uses : (int * Eval.value) list;  (** (vid, value) *)
      defs : (int * Eval.value) list;
      is_fork : bool;
      feeds_branch : bool;
          (** the defined value is used by some conditional branch: a
              misspeculated definition here sends the speculative thread
              down a wrong path, poisoning everything after it *)
    }
  | Ev_branch of { site : int; taken : bool }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type loop_metrics = {
  mutable lm_instances : int;
  mutable lm_iterations : int;
  mutable lm_pairs : int;
  mutable lm_violated_pairs : int;
  mutable lm_reexec_units : float;
  mutable lm_spec_units : float;
  mutable lm_spt_cycles : float;
  mutable lm_serial_est : float;
  mutable lm_forks : int;
  mutable lm_reg_violations : int;
  mutable lm_mem_violations : int;
}

let fresh_loop_metrics () =
  {
    lm_instances = 0;
    lm_iterations = 0;
    lm_pairs = 0;
    lm_violated_pairs = 0;
    lm_reexec_units = 0.0;
    lm_spec_units = 0.0;
    lm_spt_cycles = 0.0;
    lm_serial_est = 0.0;
    lm_forks = 0;
    lm_reg_violations = 0;
    lm_mem_violations = 0;
  }

type result = {
  cycles : float;
  instrs : int;
  ipc : float;
  cache_stats : Cache.stats;
  branch_mispredict_rate : float;
  loop_metrics : (int * loop_metrics) list;  (** per SPT loop id *)
  spt_cycles_total : float;  (** cycles inside SPT loop instances *)
  eligible_loop_cycles : float;
      (** base-run metric: cycles attributable to loops within the
          eligible size bounds (Fig. 16's maximum coverage) *)
  static_loop_cycles : ((string * int) * float) list;
      (** cycles per static loop (function, header) *)
  output : string;
}

(* ------------------------------------------------------------------ *)
(* Machine state *)

type spt_state = {
  sl : spt_loop;
  s_frame : int;
  s_metrics : loop_metrics;
  s_entry_clock : float;
  mutable cur : ev list;  (** reversed events of the current iteration *)
  mutable cur_nonempty : bool;
  mutable pending : ev array option;  (** buffered main iteration *)
  mutable regfile : Eval.value Imap.t;
      (** loop-frame registers, persistent for cheap fork snapshots *)
}

type mode = Seq | Spt of spt_state

(* one active loop on the coverage stack: eligibility starts from the
   static size bound and is revoked at runtime once the measured
   per-iteration cycles exceed the hardware buffering limit — the
   "maximum loop size" of Fig. 16 is about the dynamic thread size *)
type cover_frame = {
  cv_header : int;
  cv_body : Iset.t;
  mutable cv_eligible : bool;
  mutable cv_cycles : float;
  mutable cv_iters : int;
}

type machine = {
  cfg : config;
  cache : Cache.t;
  bp_main : Branch_pred.t;
  bp_spec : Branch_pred.t;
  mutable clock : float;
  mutable instrs : int;
  mutable mode : mode;
  mutable frame_serial : int;
  mutable frame_stack : int list;
  spt_by_site : (string * int, spt_loop) Hashtbl.t;
  metrics : (int, loop_metrics) Hashtbl.t;
  mutable spt_cycles_total : float;
  (* base-run loop-coverage tracking *)
  loops_of : (string, (int * Iset.t * int) list) Hashtbl.t;
      (** function -> (header, body, static size) list *)
  mutable cover_stack : cover_frame list list;
      (** per call frame: active loops, outermost first *)
  mutable eligible_cycles : float;
  loop_cycles : (string * int, float) Hashtbl.t;
      (** wall cycles per static loop (outermost active) *)
  br_conds : (string, Iset.t) Hashtbl.t;
      (** per function: vids read by conditional branches *)
}

let current_frame m = match m.frame_stack with [] -> 0 | f :: _ -> f

let site_hash fname bid = (Hashtbl.hash fname * 8191) + bid

(* ------------------------------------------------------------------ *)
(* Sequential-mode cost of one event, charged to a core *)

let instr_cost m ~core ~base ~loads =
  List.fold_left
    (fun acc addr -> acc +. load_extra (Cache.access m.cache ~core (addr * 8)))
    base loads

let store_touch m ~core stores =
  List.iter (fun addr -> ignore (Cache.access m.cache ~core (addr * 8))) stores

(* ------------------------------------------------------------------ *)
(* Pair timing: main iteration [mi], speculative iteration [si].
   Updates the machine clock and the loop metrics. *)

let ev_units = function Ev_instr e -> float_of_int e.op_units | Ev_branch _ -> 0.0

let run_pair m (st : spt_state) (mi : ev array) (si : ev array option) =
  let cfg = m.cfg in
  let lm = st.s_metrics in
  (* --- main core executes mi --- *)
  let fork_time = ref None in
  let fork_snapshot = ref st.regfile in
  let post_stores : (int, float) Hashtbl.t = Hashtbl.create 64 in
  (* real work cycles charged on either core, excluding fork/commit/
     re-execution overheads — the serial-equivalent time of the pair,
     used by the Fig. 18 per-loop speedup metric *)
  let work = ref 0.0 in
  Array.iter
    (fun ev ->
      match ev with
      | Ev_branch { site; taken } ->
        let p = float_of_int (Branch_pred.access m.bp_main ~site ~taken) in
        work := !work +. p;
        m.clock <- m.clock +. p
      | Ev_instr e ->
        if e.is_fork then begin
          m.clock <- m.clock +. cfg.fork_overhead;
          fork_time := Some m.clock;
          fork_snapshot := st.regfile;
          lm.lm_forks <- lm.lm_forks + 1;
          Spt_obs.Metrics.inc m_forks
        end
        else begin
          let c = instr_cost m ~core:0 ~base:e.base ~loads:e.loads in
          work := !work +. c;
          m.clock <- m.clock +. c;
          store_touch m ~core:0 e.stores;
          if !fork_time <> None then
            List.iter
              (fun addr ->
                match Hashtbl.find_opt post_stores addr with
                | Some t when t >= m.clock -> ()
                | _ -> Hashtbl.replace post_stores addr m.clock)
              e.stores
        end;
        (* sequential register state advances with the main iteration *)
        if e.frame = st.s_frame then
          List.iter
            (fun (vid, v) -> st.regfile <- Imap.add vid v st.regfile)
            e.defs)
    mi;
  let m_end = m.clock in
  (* --- speculative core executes si from the fork point --- *)
  match (si, !fork_time) with
  | None, _ | _, None ->
    (* no partner or no fork: any buffered partner runs serially — the
       speculative thread, if any, is killed at the loop boundary *)
    (match si with
    | Some si ->
      Spt_obs.Metrics.inc m_kills;
      Array.iter
        (fun ev ->
          match ev with
          | Ev_branch { site; taken } ->
            let p = float_of_int (Branch_pred.access m.bp_main ~site ~taken) in
            work := !work +. p;
            m.clock <- m.clock +. p
          | Ev_instr e ->
            let c = instr_cost m ~core:0 ~base:e.base ~loads:e.loads in
            work := !work +. c;
            m.clock <- m.clock +. c;
            store_touch m ~core:0 e.stores;
            if e.frame = st.s_frame then
              List.iter
                (fun (vid, v) -> st.regfile <- Imap.add vid v st.regfile)
                e.defs)
        si
    | None -> ());
    lm.lm_serial_est <- lm.lm_serial_est +. !work
  | Some si, Some ft ->
    lm.lm_pairs <- lm.lm_pairs + 1;
    let snapshot = !fork_snapshot in
    let s_clock = ref ft in
    let spec_defs : (int, bool) Hashtbl.t = Hashtbl.create 64 in
    (* vid -> defining event misspeculated? *)
    let spec_stores : (int, bool) Hashtbl.t = Hashtbl.create 64 in
    let reexec = ref 0.0 and reexec_units = ref 0.0 in
    let violated = ref false in
    let wrong_path = ref false in
    Array.iter
      (fun ev ->
        match ev with
        | Ev_branch { site; taken } ->
          let p = float_of_int (Branch_pred.access m.bp_spec ~site ~taken) in
          work := !work +. p;
          s_clock := !s_clock +. p
        | Ev_instr e ->
          (* the cores are tightly coupled and share the whole cache
             hierarchy (§8), so speculative accesses hit the same L1 *)
          let cost = instr_cost m ~core:0 ~base:e.base ~loads:e.loads in
          work := !work +. cost;
          store_touch m ~core:0 e.stores;
          let mis = ref !wrong_path in
          (* register live-in validation (value-based) *)
          if e.frame = st.s_frame then
            List.iter
              (fun (vid, v) ->
                match Hashtbl.find_opt spec_defs vid with
                | Some def_mis -> if def_mis then mis := true
                | None -> (
                  match Imap.find_opt vid snapshot with
                  | Some fork_v ->
                    if fork_v <> v then begin
                      mis := true;
                      lm.lm_reg_violations <- lm.lm_reg_violations + 1;
                      Spt_obs.Metrics.inc m_reg_violations
                    end
                  | None -> ()))
              e.uses
          else
            (* callee-frame instruction: misspeculation flows through the
               call's own registers only via memory and the call's
               arguments; we approximate by memory and the propagation
               below *)
            ();
          (* memory validation: main stored after we loaded *)
          List.iter
            (fun addr ->
              match Hashtbl.find_opt spec_stores addr with
              | Some st_mis -> if st_mis then mis := true
              | None -> (
                match Hashtbl.find_opt post_stores addr with
                | Some t_store when t_store > !s_clock ->
                  mis := true;
                  lm.lm_mem_violations <- lm.lm_mem_violations + 1;
                  Spt_obs.Metrics.inc m_mem_violations
                | _ -> ()))
            e.loads;
          if !mis then begin
            violated := true;
            (* the main core re-executes this instruction, paying its
               full latency including the memory system *)
            reexec := !reexec +. cost;
            reexec_units := !reexec_units +. float_of_int e.op_units;
            if e.feeds_branch then wrong_path := true
          end;
          List.iter (fun (vid, _) -> Hashtbl.replace spec_defs vid !mis) e.defs;
          List.iter (fun addr -> Hashtbl.replace spec_stores addr !mis) e.stores;
          s_clock := !s_clock +. cost;
          (* sequential register state also advances with the spec
             iteration (it commits) *)
          if e.frame = st.s_frame then
            List.iter
              (fun (vid, v) -> st.regfile <- Imap.add vid v st.regfile)
              e.defs)
      si;
    let s_end = !s_clock in
    if !violated then begin
      lm.lm_violated_pairs <- lm.lm_violated_pairs + 1;
      Spt_obs.Metrics.inc m_misspeculations
    end;
    lm.lm_reexec_units <- lm.lm_reexec_units +. !reexec_units;
    lm.lm_spec_units <-
      lm.lm_spec_units +. Array.fold_left (fun acc ev -> acc +. ev_units ev) 0.0 si;
    lm.lm_serial_est <- lm.lm_serial_est +. !work;
    m.clock <- Float.max m_end s_end +. cfg.commit_overhead +. !reexec

(* ------------------------------------------------------------------ *)
(* Iteration boundary handling *)

let finish_iteration m st =
  if st.cur_nonempty then begin
    let it = Array.of_list (List.rev st.cur) in
    st.cur <- [];
    st.cur_nonempty <- false;
    st.s_metrics.lm_iterations <- st.s_metrics.lm_iterations + 1;
    Spt_obs.Metrics.inc m_iterations;
    match st.pending with
    | None -> st.pending <- Some it
    | Some mi ->
      st.pending <- None;
      run_pair m st mi (Some it)
  end

let flush_instance m st =
  finish_iteration m st;
  (match st.pending with
  | Some mi ->
    st.pending <- None;
    run_pair m st mi None
  | None -> ());
  let spent = m.clock -. st.s_entry_clock in
  st.s_metrics.lm_spt_cycles <- st.s_metrics.lm_spt_cycles +. spent;
  m.spt_cycles_total <- m.spt_cycles_total +. spent;
  m.mode <- Seq

(* ------------------------------------------------------------------ *)
(* Base-run loop-coverage tracking *)

let update_cover_stack m (f : Ir.func) bid =
  match m.cover_stack with
  | [] -> ()
  | top :: rest ->
    let top = List.filter (fun fr -> Iset.mem bid fr.cv_body) top in
    List.iter (fun fr -> if fr.cv_header = bid then fr.cv_iters <- fr.cv_iters + 1) top;
    let top =
      match Hashtbl.find_opt m.loops_of f.Ir.fname with
      | None -> top
      | Some loops -> (
        match List.find_opt (fun (h, _, _) -> h = bid) loops with
        | Some (h, body, size)
          when not (List.exists (fun fr -> fr.cv_header = h) top) ->
          let eligible =
            size >= m.cfg.min_eligible_body && size <= m.cfg.max_eligible_body
          in
          top
          @ [
              {
                cv_header = h;
                cv_body = body;
                cv_eligible = eligible;
                cv_cycles = 0.0;
                cv_iters = 1;
              };
            ]
        | _ -> top)
    in
    m.cover_stack <- top :: rest

(* charge [dc] cycles of work happening now to the loop-coverage
   accounts: the outermost active eligible loop gets the eligible
   credit, and the outermost active loop of the current function gets
   the per-loop account *)
let charge_coverage m fname dc =
  (* every active loop accumulates its measured cost; a loop whose
     per-iteration cycles exceed the speculative-buffering limit (~1000
     operations' worth) stops being a coverage candidate, exactly like
     the paper's maximum-loop-size cut *)
  let cycle_cap = 0.7 *. float_of_int m.cfg.max_eligible_body in
  List.iter
    (List.iter (fun fr ->
         fr.cv_cycles <- fr.cv_cycles +. dc;
         if
           fr.cv_eligible && fr.cv_iters > 8
           && fr.cv_cycles /. float_of_int fr.cv_iters > cycle_cap
         then fr.cv_eligible <- false))
    m.cover_stack;
  (match
     List.find_map
       (fun frame -> List.find_opt (fun fr -> fr.cv_eligible) frame)
       m.cover_stack
   with
  | Some _ -> m.eligible_cycles <- m.eligible_cycles +. dc
  | None -> ());
  match m.cover_stack with
  | (outer :: _) :: _ ->
    let key = (fname, outer.cv_header) in
    Hashtbl.replace m.loop_cycles key
      (dc +. Option.value ~default:0.0 (Hashtbl.find_opt m.loop_cycles key))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Hook construction *)

let make_machine cfg (program : Ir.program) (spt_loops : spt_loop list) =
  let spt_by_site = Hashtbl.create 8 in
  List.iter
    (fun sl -> Hashtbl.replace spt_by_site (sl.sl_fname, sl.sl_header) sl)
    spt_loops;
  let metrics = Hashtbl.create 8 in
  List.iter
    (fun sl -> Hashtbl.replace metrics sl.sl_id (fresh_loop_metrics ()))
    spt_loops;
  let br_conds = Hashtbl.create 16 in
  List.iter
    (fun (name, f) ->
      let vids =
        List.fold_left
          (fun acc bid ->
            match (Ir.block f bid).Ir.term with
            | Ir.Br (Ir.Reg v, _, _) -> Iset.add v.Ir.vid acc
            | _ -> acc)
          Iset.empty (Ir.block_ids f)
      in
      Hashtbl.replace br_conds name vids)
    program.Ir.funcs;
  let loops_of = Hashtbl.create 16 in
  List.iter
    (fun (name, f) ->
      let ls =
        List.map
          (fun (l : Loops.loop) ->
            let size =
              Loops.Iset.fold
                (fun bid acc -> acc + Ir.block_size (Ir.block f bid))
                l.Loops.body 0
            in
            (l.Loops.header, Iset.of_list (Loops.Iset.elements l.Loops.body), size))
          (Loops.find f)
      in
      Hashtbl.replace loops_of name ls)
    program.Ir.funcs;
  {
    cfg;
    cache = Cache.create ~config:cfg.cache ~cores:1 ();
    bp_main = Branch_pred.create ();
    bp_spec = Branch_pred.create ();
    clock = 0.0;
    instrs = 0;
    mode = Seq;
    frame_serial = 0;
    frame_stack = [];
    spt_by_site;
    metrics;
    spt_cycles_total = 0.0;
    loops_of;
    cover_stack = [];
    eligible_cycles = 0.0;
    loop_cycles = Hashtbl.create 32;
    br_conds;
  }

let hooks m =
  let on_enter _f =
    m.frame_serial <- m.frame_serial + 1;
    m.frame_stack <- m.frame_serial :: m.frame_stack;
    m.cover_stack <- [] :: m.cover_stack
  in
  let on_exit f =
    (match m.mode with
    | Spt st when current_frame m = st.s_frame -> flush_instance m st
    | _ -> ());
    (match m.frame_stack with [] -> () | _ :: rest -> m.frame_stack <- rest);
    (match m.cover_stack with [] -> () | _ :: rest -> m.cover_stack <- rest);
    ignore f
  in
  let on_block f bid =
    update_cover_stack m f bid;
    match m.mode with
    | Spt st ->
      if current_frame m = st.s_frame && f.Ir.fname = st.sl.sl_fname then begin
        if bid = st.sl.sl_header then finish_iteration m st
        else if not (Iset.mem bid st.sl.sl_body) then flush_instance m st
      end
    | Seq -> (
      match Hashtbl.find_opt m.spt_by_site (f.Ir.fname, bid) with
      | Some sl ->
        let lm = Hashtbl.find m.metrics sl.sl_id in
        lm.lm_instances <- lm.lm_instances + 1;
        Spt_obs.Metrics.inc m_instances;
        m.mode <-
          Spt
            {
              sl;
              s_frame = current_frame m;
              s_metrics = lm;
              s_entry_clock = m.clock;
              cur = [];
              cur_nonempty = false;
              pending = None;
              regfile = Imap.empty;
            }
      | None -> ())
  in
  let on_branch f bid ~taken =
    let site = site_hash f.Ir.fname bid in
    match m.mode with
    | Spt st -> st.cur <- Ev_branch { site; taken } :: st.cur
    | Seq ->
      let p = Branch_pred.access m.bp_main ~site ~taken in
      m.clock <- m.clock +. float_of_int p;
      charge_coverage m f.Ir.fname (float_of_int p)
  in
  let on_instr f _bid (i : Ir.instr) (eff : Interp.effects) =
    m.instrs <- m.instrs + 1;
    let base = base_cost m.cfg i.Ir.kind in
    let loads = List.map fst eff.Interp.loads in
    let stores = List.map fst eff.Interp.stores in
    match m.mode with
    | Spt st ->
      let frame = current_frame m in
      st.cur <-
        Ev_instr
          {
            base;
            op_units = Ir.op_cost i.Ir.kind;
            frame;
            loads;
            stores;
            uses = List.map (fun (v, x) -> (v.Ir.vid, x)) eff.Interp.uses;
            defs = List.map (fun (v, x) -> (v.Ir.vid, x)) eff.Interp.defs;
            is_fork = (match i.Ir.kind with Ir.Spt_fork id -> id = st.sl.sl_id | _ -> false);
            feeds_branch =
              (match Ir.def_of_kind i.Ir.kind with
              | Some d -> (
                match Hashtbl.find_opt m.br_conds f.Ir.fname with
                | Some vids -> Iset.mem d.Ir.vid vids
                | None -> false)
              | None -> false);
          }
        :: st.cur;
      st.cur_nonempty <- true
    | Seq ->
      let c = instr_cost m ~core:0 ~base ~loads in
      store_touch m ~core:0 stores;
      m.clock <- m.clock +. c;
      charge_coverage m f.Ir.fname c
  in
  {
    Interp.on_instr;
    on_block;
    on_edge = (fun _ ~src:_ ~dst:_ -> ());
    on_branch;
    on_enter;
    on_exit;
  }

(* ------------------------------------------------------------------ *)
(* Entry point *)

(** Simulate [program].  [spt_loops] lists the speculatively
    parallelized loops of the (transformed) program; pass [[]] to get
    the non-SPT baseline timing (Table 1). *)
let run ?(config = default_config) ?(spt_loops = []) ?max_steps
    (program : Ir.program) : result =
  let m = make_machine config program spt_loops in
  let r = Interp.run ~hooks:(hooks m) ?max_steps program in
  (* close any SPT instance left open at program end *)
  (match m.mode with Spt st -> flush_instance m st | Seq -> ());
  {
    cycles = m.clock;
    instrs = m.instrs;
    ipc = (if m.clock > 0.0 then float_of_int m.instrs /. m.clock else 0.0);
    cache_stats = Cache.stats m.cache;
    branch_mispredict_rate = Branch_pred.misprediction_rate m.bp_main;
    loop_metrics = Hashtbl.fold (fun id lm acc -> (id, lm) :: acc) m.metrics [];
    spt_cycles_total = m.spt_cycles_total;
    eligible_loop_cycles = m.eligible_cycles;
    static_loop_cycles =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.loop_cycles [];
    output = r.Interp.output;
  }
