module Interp = Spt_interp.Interp
module Layout = Spt_interp.Layout
module Ir = Spt_ir.Ir
module Obs = Spt_obs
module Engine = Spt_exec.Engine

type loop_spec = {
  ls_id : int;
  ls_fname : string;
  ls_header : int;
  ls_iter_ops : float;
  ls_depth : int;
}

type config = {
  jobs : int;
  window : int;
  despec_after : int;
  spec_fuel : int;
  max_steps : int;
  oracle : bool;
  timeline : Obs.Timeline.t option;
  chunk : int option;
  depth : int option;
}

let default_jobs () =
  match Sys.getenv_opt "SPT_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let default_config ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  {
    jobs;
    window = 2 * jobs;
    despec_after = 3;
    spec_fuel = 2_000_000;
    max_steps = 200_000_000;
    oracle = true;
    timeline = None;
    chunk = None;
    depth = None;
  }

(* One speculative fork covers a block of [chunk_size] iterations: the
   per-fork overhead (view creation, validation, commit, the scheduler
   turn) is paid once per chunk instead of once per iteration.  The
   auto size targets ~2048 dynamic operations per chunk, from the cost
   model's per-iteration estimate, clamped to [1, 256]. *)
let chunk_target_ops = 2048.0

let auto_chunk iter_ops =
  if iter_ops <= 0.0 then 16
  else max 1 (min 256 (int_of_float (ceil (chunk_target_ops /. iter_ops))))

let chunk_size cfg spec =
  match cfg.chunk with Some n -> max 1 n | None -> auto_chunk spec.ls_iter_ops

(* Speculation depth K for a loop: the maximum number of speculative
   chunks (epochs) in flight at once.  A forced [config.depth] wins;
   otherwise the per-loop choice the cost model priced ([ls_depth],
   0 = unpriced) bounded by the global window; [window] as the last
   resort.  K = 1 is the paper's main+1 model. *)
let depth_of cfg spec =
  let window = max 1 cfg.window in
  match cfg.depth with
  | Some k -> max 1 (min k window)
  | None ->
    if spec.ls_depth > 0 then max 1 (min spec.ls_depth window) else window

(* The sequential thread computes too (it runs each round's head chunks
   itself), so the pool leaves it a core: [jobs] workers at most, one
   fewer than the cores, and never none. *)
let workers_for jobs =
  max 1 (min jobs (Domain.recommended_domain_count () - 1))

(* Per-variable software-value-prediction counters: how often a
   forward-predicted register was injected, proved right (its reader
   committed) and proved wrong (its reader failed validation on it). *)
type svp_stats = {
  mutable sv_predicts : int;
  mutable sv_hits : int;
  mutable sv_mispredicts : int;
}

type loop_stats = {
  mutable chunk : int;
  mutable depth : int;
  mutable forks : int;
  mutable inline : int;
  mutable commits : int;
  mutable violations : int;
  mutable faults : int;
  mutable kills : int;
  mutable despecs : int;
  mutable serial_reexecs : int;
  mutable iters : int;
  mutable wall : float;
  mutable stale_mem : int;
  mutable stale_reg : int;
  mutable stale_rng : int;
  stale_regions : (int, int) Hashtbl.t;
  svp_vars : (int, svp_stats) Hashtbl.t;
}

(* global observability counters (no-ops unless metrics are enabled);
   only ever touched from the sequential thread *)
let m_forks = Obs.Metrics.counter "runtime.forks"
let m_inline = Obs.Metrics.counter "runtime.inline"
let m_commits = Obs.Metrics.counter "runtime.commits"
let m_kills = Obs.Metrics.counter "runtime.kills"
let m_violations = Obs.Metrics.counter "runtime.violations"
let m_faults = Obs.Metrics.counter "runtime.faults"
let m_despecs = Obs.Metrics.counter "runtime.despeculations"
let m_serial = Obs.Metrics.counter "runtime.serial_reexecs"
let m_svp_predicts = Obs.Metrics.counter "runtime.svp.predicts"
let m_svp_hits = Obs.Metrics.counter "runtime.svp.hits"
let m_svp_mispredicts = Obs.Metrics.counter "runtime.svp.mispredicts"

(* seconds one task (one loop-iteration segment) spent executing on its
   view; workers report the duration through the task record, the
   sequential thread observes it at the task's turn, so the registry is
   only ever touched from one thread *)
let h_iter = Obs.Metrics.histogram "runtime.iter_latency_s"

(* timeline instrumentation: with no timeline configured, [tl_now] is a
   branch returning a dummy and [tl_rec] a branch doing nothing *)
let tl_now = function None -> 0.0 | Some _ -> Unix.gettimeofday ()

let tl_rec tl kind ~lid t0 =
  match tl with
  | None -> ()
  | Some t -> Obs.Timeline.record t kind ~lid ~t0 ~t1:(Unix.gettimeofday ())

(* where execution of a chunk (or its serial replay) sequentially ends *)
type stop =
  | Forked of Engine.cursor  (** past this loop's Nth SPT_FORK *)
  | Exited of Engine.cursor  (** past this loop's SPT_KILL *)
  | Returned of Interp.value option

type outcome =
  | Stopped of stop * int * int  (** speculative steps, iterations *)
  | Fault of string

type status = Pending | Finished of outcome

type task = {
  tview : Specmem.view;
  tbv : Specmem.view;
      (** the backbone (predictor) view this chunk reads through;
          sealed once the chunk resolves *)
  tstart : Engine.cursor;
  tpreds : (int * Interp.value) list;
      (** value predictions injected into [tbv] for this chunk:
          (vid, predicted value); scored at the chunk's resolution *)
  mutable tstatus : status;
  mutable texec_s : float;  (** seconds the task ran on its view *)
}

(* What the round planner knows about a loop: exponentially weighted
   means of the costs the runtime measures itself, per iteration for the
   three ways an iteration is executed and per chunk for validation plus
   commit; 0.0 until first measured.  Kept across entries of the loop,
   touched only by the sequential thread. *)
type loop_costs = {
  mutable c_inline : float;  (** master seconds per iteration, run inline *)
  mutable c_fill : float;  (** backbone seconds per predicted iteration *)
  mutable c_exec : float;  (** worker seconds per speculative iteration *)
  mutable c_resolve : float;  (** validate + commit seconds per chunk *)
}

let ewma old x = if old <= 0.0 then x else old +. (0.25 *. (x -. old))

type rt = {
  cfg : config;
  eng : Engine.t;  (** the program compiled once, shared by every domain *)
  mutable pool : Pool.t option;
      (** started by the first worker chunk, shut down when [run] returns *)
  workers : int;  (** the pool's size *)
  store : Interp.store;
  master : Engine.machine;
  mu : Mutex.t;
  cond : Condition.t;
  specs : (int, loop_spec) Hashtbl.t;
  despec : (int, unit) Hashtbl.t;
  stats : (int, loop_stats) Hashtbl.t;
  costs : (int, loop_costs) Hashtbl.t;
  region_of : int -> int option;
      (** element address -> region sid, for violation attribution *)
  mutable committed_steps : int;
}

let loop_stats rt lid =
  match Hashtbl.find_opt rt.stats lid with
  | Some s -> s
  | None ->
    let s =
      {
        chunk = 1;
        depth = 1;
        forks = 0;
        inline = 0;
        commits = 0;
        violations = 0;
        faults = 0;
        kills = 0;
        despecs = 0;
        serial_reexecs = 0;
        iters = 0;
        wall = 0.0;
        stale_mem = 0;
        stale_reg = 0;
        stale_rng = 0;
        stale_regions = Hashtbl.create 4;
        svp_vars = Hashtbl.create 4;
      }
    in
    Hashtbl.replace rt.stats lid s;
    s

(* The pool, started on first use: a parked worker domain slows the
   sequential engine (every minor collection synchronises with it), so
   a run that never speculates starts none. *)
let pool rt =
  match rt.pool with
  | Some p -> p
  | None ->
    let p =
      Pool.create
        ~on_start:(fun () ->
          match rt.cfg.timeline with
          | Some t -> Obs.Timeline.touch t
          | None -> ())
        ~jobs:rt.workers ()
    in
    rt.pool <- Some p;
    p

let loop_costs rt lid =
  match Hashtbl.find_opt rt.costs lid with
  | Some c -> c
  | None ->
    let c = { c_inline = 0.0; c_fill = 0.0; c_exec = 0.0; c_resolve = 0.0 } in
    Hashtbl.replace rt.costs lid c;
    c

(* attribute a validation failure to its cause — per-region for memory
   (the compiler's violation candidates store into named regions, so
   region-level rates are what the feedback loop joins against) *)
let record_stale rt (st : loop_stats) (stale : Specmem.stale) =
  match stale with
  | Specmem.Stale_mem a -> (
    st.stale_mem <- st.stale_mem + 1;
    match rt.region_of a with
    | Some sid ->
      Hashtbl.replace st.stale_regions sid
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.stale_regions sid))
    | None -> ())
  | Specmem.Stale_reg _ -> st.stale_reg <- st.stale_reg + 1
  | Specmem.Stale_rng -> st.stale_rng <- st.stale_rng + 1

(* ------------------------------------------------------------------ *)
(* Chunk execution (workers) and backbone prediction (main thread) *)

(* Drive a fresh machine over the view from just past the loop's fork,
   through [n] whole fork-to-fork spans — the post-fork slice of one
   iteration followed by the pre-fork slice of the next, repeated —
   stopping past the [n]th SPT_FORK, past the loop's SPT_KILL, or at a
   return.  Internal header transitions do NOT stop the chunk: a chunk
   is sequential execution of [n] iterations against one view, with one
   validation at its turn.  Markers of other loops are sequential
   no-ops.  All exceptions — out-of-bounds reads through stale
   speculative state, uninitialized registers, the fuel limit — surface
   as [Fault] and cost only a serial replay. *)
let run_chunk rt ~(frame : Engine.frame) ~lid ~n ~fuel view start : outcome =
  try
    let tm = Engine.make ~max_steps:fuel ~memio:(Specmem.memio view) rt.eng in
    let tframe =
      Engine.mk_frame frame.Engine.func ~arr_args:frame.Engine.arr_args
        ~regio:(Specmem.regio view)
    in
    let rec go forks cur =
      match Engine.exec_segment tm tframe ~watch_markers:true cur with
      | Engine.Seg_return v ->
        Stopped (Returned v, Engine.steps tm, forks + 1)
      | Engine.Seg_stop_block _ -> assert false (* no stop_block given *)
      | Engine.Seg_marker (`Fork id, after) when id = lid ->
        if forks + 1 >= n then Stopped (Forked after, Engine.steps tm, n)
        else if Specmem.is_rolled_back view then
          (* killed: nobody waits for the rest *)
          Fault "rolled back"
        else go (forks + 1) after
      | Engine.Seg_marker (`Kill id, after) when id = lid ->
        Stopped (Exited after, Engine.steps tm, forks + 1)
      | Engine.Seg_marker (_, after) -> go forks after
    in
    go 0 start
  with e -> Fault (Printexc.to_string e)

(* The backbone predictor: before spawning the next chunk, the
   sequential thread runs [n] pre-fork slices — header to fork, then
   back to the header, skipping every post-fork slice — into [view].
   Chained under the next chunk's view, it supplies the loop-carried
   pre-fork state (induction variables above all) that chunk needs to
   start [n] iterations ahead of the last one spawned.  The skip is
   exactly the paper's speculation assumption: pre-fork work of later
   iterations is independent of earlier post-fork work.  The view is
   pure prediction — never validated, never merged (the chunks
   re-execute and commit those slices); a wrong prediction surfaces as
   a validation failure of the chunk that read it.  Returns [`Full]
   when all [n] slices forked, [`Exits] when prediction says the loop
   exits (or returns) within them, and [`Lost] when it faults or
   re-reaches the header without a fork. *)
let run_backbone rt ~(frame : Engine.frame) ~header ~lid ~n ~fuel view =
  try
    let tm = Engine.make ~max_steps:fuel ~memio:(Specmem.memio view) rt.eng in
    let tframe =
      Engine.mk_frame frame.Engine.func ~arr_args:frame.Engine.arr_args
        ~regio:(Specmem.regio view)
    in
    let start = { Engine.cbid = header; cprev = -1; cpos = 0 } in
    let rec round k cur =
      if k = n then `Full
      else
        match
          Engine.exec_segment tm tframe ~stop_block:header ~watch_markers:true
            cur
        with
        | Engine.Seg_marker (`Fork id, _) when id = lid -> round (k + 1) start
        | Engine.Seg_marker (`Kill id, _) when id = lid ->
          Obs.Log.debug "[runtime] loop %d: backbone predicts exit at round %d/%d"
            lid k n;
          `Exits
        | Engine.Seg_marker (_, after) -> round k after
        | Engine.Seg_stop_block _ ->
          Obs.Log.debug
            "[runtime] loop %d: backbone re-reached header without a fork" lid;
          `Lost
        | Engine.Seg_return _ ->
          Obs.Log.debug "[runtime] loop %d: backbone predicts a return" lid;
          `Exits
    in
    round 0 start
  with e ->
    Obs.Log.debug "[runtime] loop %d: backbone fault: %s" lid
      (Printexc.to_string e);
    `Lost

(* A chunk's whole span run serially on master state, in the engaged
   frame, on the master machine (its marker handler is not consulted by
   [exec_segment], so no re-entry): a round's inline head chunks, and
   the recovery of a chunk that misspeculated.  Returns where the run
   stopped and how many iterations it retired.  Genuine program errors
   propagate from here exactly as a sequential run would. *)
let run_serial rt ~(frame : Engine.frame) ~lid ~n start : stop * int =
  let rec go forks cur =
    match Engine.exec_segment rt.master frame ~watch_markers:true cur with
    | Engine.Seg_return v -> (Returned v, forks + 1)
    | Engine.Seg_stop_block _ -> assert false
    | Engine.Seg_marker (`Fork id, after) when id = lid ->
      if forks + 1 >= n then (Forked after, n) else go (forks + 1) after
    | Engine.Seg_marker (`Kill id, after) when id = lid ->
      (Exited after, forks + 1)
    | Engine.Seg_marker (_, after) -> go forks after
  in
  go 0 start

let wait_for rt task =
  Mutex.lock rt.mu;
  let rec go () =
    match task.tstatus with
    | Finished o -> o
    | Pending ->
      Condition.wait rt.cond rt.mu;
      go ()
  in
  let o = go () in
  Mutex.unlock rt.mu;
  o

(* ------------------------------------------------------------------ *)
(* The round planner *)

let max_inline_ratio = 4

(* A round is K worker chunks and m chunks the sequential thread runs
   inline, spread between them.  Per round the master spends m (inline
   + fill) on its own chunks — the backbone must predict past them too
   — and K (fill + resolve) on the workers' chunks, while the workers
   need ceil(K / workers) exec; the round retires m + K chunks in the
   longer of the two.  m is the smallest value with the best rate,
   within [1, max_inline_ratio * K], so every round still speculates;
   with a cost not yet measured (0.0) it is 1. *)
let plan_inline ~inline ~fill ~exec ~resolve ~workers ~depth =
  let k = max 1 depth and w = max 1 workers in
  if inline <= 0.0 || exec <= 0.0 then 1
  else begin
    let worker = float_of_int ((k + w - 1) / w) *. exec in
    let rate m =
      let own =
        (float_of_int m *. (inline +. fill))
        +. (float_of_int k *. (fill +. resolve))
      in
      float_of_int (m + k) /. Float.max own worker
    in
    let best = ref 1 in
    for m = 2 to max_inline_ratio * k do
      if rate m > rate !best then best := m
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* The per-loop scheduler *)

(* Per-variable runtime value predictor (SVP): a register that failed
   validation ([Stale_reg]) is a loop-carried scalar the backbone
   cannot supply — typically a post-fork accumulator.  The predictor
   tracks its master value at the end of each retired chunk and the
   per-chunk stride between consecutive observations; once a stride
   is known, spawns inject [last + stride * ahead] into the new
   chunk's backbone view ({!Specmem.reg_predict}), [ahead] being the
   chunks still to retire before it, and the existing read-log
   validation checks the prediction for free.  Recovery from a
   mispredict is the ordinary violation path (rollback, serial replay,
   kill cascade), which also re-observes the true value — so the state
   machine is predict → check (validation) → recover (replay+relearn). *)
type svp_pred = {
  mutable sp_last : Interp.value option;
      (* master value at the end of the last retired chunk *)
  mutable sp_stride : int64 option;  (* confirmed per-chunk stride *)
}

(* The chunks still to retire, in sequential order. *)
type epoch =
  | Inline  (** run by the sequential thread on master state *)
  | Spec of task  (** a speculative chunk on the worker pool *)

(* Runs the whole loop in rounds: a round is K = [depth_of] speculative
   chunks (epochs) on the worker pool and m chunks the sequential
   thread runs itself on master state, spread between them.  Before
   each worker chunk the sequential thread queues the inline chunks
   ahead of it, fills the backbone past them and spawns the chunk; it
   then runs the inline chunks as they come up, and validates and
   commits the worker chunks strictly in sequential order, recovering
   serially from misspeculation — killing the offending epoch and
   exactly its in-flight successors, never already-committed work —
   and returns where the sequential thread resumes.  Each resolved
   worker chunk frees a slot, which the next round's chunks take at
   once, so the workers never wait on a round barrier.

   With chunk size [n], every chunk covers [n] fork-to-fork spans and
   starts from the static post-fork cursor [after0] (valid because
   speculated functions are phi-free, so [cprev] never matters).  A
   worker chunk's view parents the backbone view predicting every span
   between the end of the chain and the chunk's start (the previous
   worker chunk's span, plus the inline chunks queued ahead of it);
   backbone views chain B_k -> B_{k-1} -> ... and are sealed — not
   merged — once their reader chunk resolves, since master then
   already holds every value they predicted. *)
let run_spt_loop rt (frame : Engine.frame) (spec : loop_spec)
    (after0 : Engine.cursor) : Engine.marker_action =
  let t0 = Unix.gettimeofday () in
  let lid = spec.ls_id in
  let header = spec.ls_header in
  let n = chunk_size rt.cfg spec in
  let depth = depth_of rt.cfg spec in
  (* a chunk (and a backbone fill) is n iterations of speculative work *)
  let fuel chunks = min rt.cfg.max_steps (rt.cfg.spec_fuel * n * chunks) in
  let tl = rt.cfg.timeline in
  let st = loop_stats rt lid in
  let costs = loop_costs rt lid in
  st.chunk <- n;
  st.depth <- depth;
  let master =
    {
      Specmem.m_mem = rt.store.Interp.smem;
      m_regs = frame.Engine.regs;
      m_rng_get = (fun () -> rt.store.Interp.srng);
      m_rng_set = (fun r -> rt.store.Interp.srng <- r);
      m_out = rt.store.Interp.sout;
    }
  in
  let pending : epoch Queue.t = Queue.create () in
  let in_flight = ref 0 in (* Spec epochs in [pending] *)
  (* inline chunks ahead of each worker chunk the open round has still
     to spawn *)
  let round = ref [] in
  (* tail of the backbone view chain: chunks see all earlier pre-fork
     (predictor) writes, and no post-fork writes — that independence IS
     the speculation *)
  let bchain = ref None in
  (* chunks between the end of the chain and the next spawn's start *)
  let owed = ref 0 in
  let consec = ref 0 in
  let filling = ref true in
  let finish = ref None in
  let last_pos = ref after0 in
  (* vid -> predictor state; entries appear on the first [Stale_reg]
     for that vid (prediction is demand-driven: only registers the
     backbone demonstrably cannot supply are tracked) *)
  let svp : (int, svp_pred) Hashtbl.t = Hashtbl.create 4 in
  let svp_var vid =
    match Hashtbl.find_opt st.svp_vars vid with
    | Some s -> s
    | None ->
      let s = { sv_predicts = 0; sv_hits = 0; sv_mispredicts = 0 } in
      Hashtbl.replace st.svp_vars vid s;
      s
  in
  (* predictions for the chunk about to spawn, behind every chunk still
     to retire: last + stride * ahead *)
  let svp_predictions () =
    if Hashtbl.length svp = 0 then []
    else
      Hashtbl.fold
        (fun vid p acc ->
          match (p.sp_last, p.sp_stride) with
          | Some (Spt_ir.Eval.Vi last), Some stride ->
            let d = Int64.of_int (Queue.length pending) in
            (vid, Spt_ir.Eval.Vi (Int64.add last (Int64.mul stride d))) :: acc
          | _ -> acc)
        svp []
  in
  (* relearn after the head retired: master now holds the true value at
     the end of its span.  Only full chunks observe a stride (a partial
     chunk ends the loop anyway); the stride confirms after one
     observation, so an accumulator loop converges within two failed
     chunks — under the despeculation valve's default of three. *)
  let svp_learn ~full =
    Hashtbl.iter
      (fun vid p ->
        if not full then begin
          p.sp_last <- None;
          p.sp_stride <- None
        end
        else begin
          let cur =
            if vid < Array.length frame.Engine.regs then
              frame.Engine.regs.(vid)
            else None
          in
          (match (p.sp_last, cur) with
          | Some (Spt_ir.Eval.Vi a), Some (Spt_ir.Eval.Vi b) ->
            p.sp_stride <- Some (Int64.sub b a)
          | _ -> p.sp_stride <- None);
          p.sp_last <- cur
        end)
      svp
  in
  let svp_score resolution (t : task) =
    if t.tpreds <> [] then
      match resolution with
      | `Commit _ ->
        List.iter
          (fun (vid, _) ->
            (svp_var vid).sv_hits <- (svp_var vid).sv_hits + 1;
            Obs.Metrics.inc m_svp_hits)
          t.tpreds
      | `Stale (Specmem.Stale_reg bad) ->
        List.iter
          (fun (vid, _) ->
            if vid = bad then begin
              (svp_var vid).sv_mispredicts <- (svp_var vid).sv_mispredicts + 1;
              Obs.Metrics.inc m_svp_mispredicts
            end)
          t.tpreds
      | `Stale _ | `Fault _ -> ()
  in
  let spawn_chunk bv =
    let tf0 = tl_now tl in
    (* inject value predictions into the backbone view the chunk reads
       through *)
    let preds = svp_predictions () in
    if preds <> [] then begin
      let tp0 = tl_now tl in
      List.iter
        (fun (vid, x) ->
          Specmem.reg_predict bv vid x;
          (svp_var vid).sv_predicts <- (svp_var vid).sv_predicts + 1;
          Obs.Metrics.inc m_svp_predicts)
        preds;
      tl_rec tl Obs.Timeline.Svp ~lid tp0
    end;
    let view = Specmem.create ~parent:bv master in
    let t =
      { tview = view; tbv = bv; tstart = after0; tpreds = preds;
        tstatus = Pending; texec_s = 0.0 }
    in
    Queue.push (Spec t) pending;
    incr in_flight;
    st.forks <- st.forks + 1;
    Obs.Metrics.inc m_forks;
    Pool.submit (pool rt) (fun () ->
        (* a chunk the kill cascade rolled back while it was still
           queued has left [pending]: nobody waits for it, so it must
           not hold a worker ahead of the respawned head *)
        if not (Specmem.is_rolled_back view) then begin
          (* the Exec span lands on the worker domain's own lane *)
          let e0 = Unix.gettimeofday () in
          let o = run_chunk rt ~frame ~lid ~n ~fuel:(fuel 1) view after0 in
          let e1 = Unix.gettimeofday () in
          (match tl with
          | Some tline ->
            Obs.Timeline.record tline Obs.Timeline.Exec ~lid ~t0:e0 ~t1:e1
          | None -> ());
          Mutex.lock rt.mu;
          t.texec_s <- e1 -. e0;
          t.tstatus <- Finished o;
          Condition.broadcast rt.cond;
          Mutex.unlock rt.mu
        end);
    tl_rec tl Obs.Timeline.Fork ~lid tf0
  in
  (* a new round: the m inline chunks the plan gives it, spread over
     the round's [depth] worker chunks, the first taking at least one *)
  let open_round () =
    let per_chunk c = c *. float_of_int n in
    let m =
      plan_inline ~inline:(per_chunk costs.c_inline)
        ~fill:(per_chunk costs.c_fill) ~exec:(per_chunk costs.c_exec)
        ~resolve:costs.c_resolve ~workers:rt.workers ~depth
    in
    Obs.Log.debug "[runtime] loop %d: round of %d inline and %d worker chunks"
      lid m depth;
    let upto j = ((j * m) + depth - 1) / depth in
    round := List.init depth (fun j -> upto (j + 1) - upto j)
  in
  (* queue the inline chunks ahead of the next worker chunk, run one
     backbone fill on the sequential thread over every span between
     the end of the chain and that chunk's start, then spawn the chunk
     reading through it *)
  let extend () =
    if !round = [] then open_round ();
    let ahead = List.hd !round in
    round := List.tl !round;
    for _ = 1 to ahead do
      Queue.push Inline pending
    done;
    owed := !owed + ahead;
    let spans = !owed * n in
    let tb0 = Unix.gettimeofday () in
    let bv = Specmem.create ?parent:!bchain master in
    let fill =
      run_backbone rt ~frame ~header ~lid ~n:spans ~fuel:(fuel !owed) bv
    in
    let tb1 = Unix.gettimeofday () in
    (match tl with
    | Some tline ->
      Obs.Timeline.record tline Obs.Timeline.Chunk ~lid ~t0:tb0 ~t1:tb1
    | None -> ());
    (match fill with
    | `Full ->
      costs.c_fill <- ewma costs.c_fill ((tb1 -. tb0) /. float_of_int spans)
    | `Exits | `Lost -> filling := false);
    bchain := Some bv;
    owed := 1;
    (* spawn even past a predicted exit: the chunk stops at the loop's
       kill (or return) on its own, so the exit is itself speculated; a
       prediction that lost track shows in the chunk's validation, which
       feeds the despeculation valve *)
    spawn_chunk bv
  in
  (* keep [depth] worker chunks in flight *)
  let top_up () =
    if Queue.is_empty pending then begin
      (* master sits where the next chunk starts: prediction restarts
         from its state, with a new round *)
      bchain := None;
      owed := 0;
      round := []
    end;
    while !filling && !in_flight < depth do
      extend ()
    done
  in
  (* kill cascade: discard every in-flight successor epoch — exactly
     the epochs ≥ the offender (the offender's own view was already
     rolled back by the resolution), never committed work — so
     re-speculation restarts from master state *)
  let kill_pending () =
    let killed = !in_flight in
    if killed > 0 then begin
      st.kills <- st.kills + killed;
      Obs.Metrics.add m_kills killed;
      (* roll the dead views back — and their backbones — so late
         writes from abandoned workers are dropped and descendants stop
         reading their buffers *)
      let tk0 = tl_now tl in
      Queue.iter
        (function
          | Inline -> ()
          | Spec t ->
            Specmem.rollback t.tview;
            if not (Specmem.is_committed t.tbv) then Specmem.rollback t.tbv)
        pending;
      tl_rec tl Obs.Timeline.Kill ~lid tk0
    end;
    Queue.clear pending;
    in_flight := 0
  in
  (* the head retired [retired] iterations and stopped at [stop]; it is
     [clean] unless it was replayed in place of a failed chunk *)
  let retire ~clean stop retired =
    Obs.Log.debug "[runtime] loop %d: head %s: retired %d iter(s)" lid
      (match stop with
      | Forked _ -> if clean then "committed" else "replayed"
      | Exited _ -> "exited"
      | Returned _ -> "returned")
      retired;
    st.iters <- st.iters + retired;
    (* master holds the true post-head register file now — observe
       strides at chunk granularity *)
    svp_learn
      ~full:(retired = n && match stop with Forked _ -> true | _ -> false);
    (* did the head end the way downstream speculation assumed?  every
       downstream chunk starts from the static [after0], so a head that
       forked its [n]th time — clean, or replayed to the same static
       cursor — upholds them *)
    match stop with
    | Forked after
      when clean
           || after.Engine.cbid = after0.Engine.cbid
              && after.Engine.cpos = after0.Engine.cpos ->
      last_pos := after;
      (* a misspeculated head poisons every in-flight successor — they
         chained through its backbone's now-refuted state — so the
         cascade kills exactly the epochs after it (committed work is
         untouched); the next round restarts from the replayed master
         state, which sits precisely at the fork the dead epochs
         assumed *)
      if not clean then begin
        kill_pending ();
        if not (Hashtbl.mem rt.despec lid) then filling := true
      end
    | _ ->
      (* control diverged (or the loop exited): everything speculated
         beyond this point is dead (abandoned workers finish into dead
         views), and the loop is over *)
      kill_pending ();
      finish :=
        Some
          (match stop with
          | Returned v -> Engine.Return_now v
          | Exited c | Forked c -> Engine.Jump_to c)
  in
  let run_inline () =
    let ti0 = Unix.gettimeofday () in
    let stop, retired = run_serial rt ~frame ~lid ~n after0 in
    let ti1 = Unix.gettimeofday () in
    (match tl with
    | Some tline ->
      Obs.Timeline.record tline Obs.Timeline.Inline ~lid ~t0:ti0 ~t1:ti1
    | None -> ());
    st.inline <- st.inline + 1;
    Obs.Metrics.inc m_inline;
    if retired > 0 then
      costs.c_inline <-
        ewma costs.c_inline ((ti1 -. ti0) /. float_of_int retired);
    retire ~clean:true stop retired
  in
  let resolve head =
    let outcome = wait_for rt head in
    (match outcome with
    | Stopped (_, _, iters) when iters > 0 ->
      costs.c_exec <- ewma costs.c_exec (head.texec_s /. float_of_int iters)
    | _ -> ());
    (* resolve the head to its definitive sequential stop *)
    let tv0 = Unix.gettimeofday () in
    let resolution =
      match outcome with
      | Stopped (stop, steps, iters) -> (
        let v = Specmem.validate head.tview in
        tl_rec tl Obs.Timeline.Validate ~lid tv0;
        match v with
        | Ok () -> `Commit (stop, steps, iters)
        | Error stale -> `Stale stale)
      | Fault msg -> `Fault msg
    in
    svp_score resolution head;
    (* demand-driven activation: a register the backbone demonstrably
       cannot supply (a post-fork loop-carried scalar, DESIGN §3f)
       enters the predictor table on its first violation *)
    (match resolution with
    | `Stale (Specmem.Stale_reg vid) when not (Hashtbl.mem svp vid) ->
      Hashtbl.replace svp vid { sp_last = None; sp_stride = None }
    | _ -> ());
    let stop, clean, retired =
      match resolution with
      | `Commit (stop, steps, iters) ->
        let tc0 = tl_now tl in
        Specmem.commit head.tview;
        tl_rec tl Obs.Timeline.Commit ~lid tc0;
        costs.c_resolve <- ewma costs.c_resolve (Unix.gettimeofday () -. tv0);
        rt.committed_steps <- rt.committed_steps + steps;
        (* committed speculative work counts against the same budget a
           sequential run would have spent on it — otherwise a
           transformed program that loops forever commits forever (the
           master only steps between SPT regions and never hits its own
           limit) *)
        if Engine.steps rt.master + rt.committed_steps > rt.cfg.max_steps then
          raise
            (Interp.Runtime_error
               (Printf.sprintf "step limit exceeded (%d)" rt.cfg.max_steps));
        st.commits <- st.commits + 1;
        Obs.Metrics.inc m_commits;
        consec := 0;
        (stop, true, iters)
      | `Stale _ | `Fault _ ->
        let tr0 = tl_now tl in
        Specmem.rollback head.tview;
        tl_rec tl Obs.Timeline.Rollback ~lid tr0;
        (match resolution with
        | `Fault msg ->
          st.faults <- st.faults + 1;
          Obs.Metrics.inc m_faults;
          Obs.Log.debug "[runtime] loop %d: speculative fault: %s" lid msg
        | `Stale stale ->
          st.violations <- st.violations + 1;
          Obs.Metrics.inc m_violations;
          record_stale rt st stale;
          Obs.Log.debug "[runtime] loop %d: %s" lid
            (Specmem.string_of_stale stale)
        | `Commit _ -> assert false);
        incr consec;
        st.serial_reexecs <- st.serial_reexecs + 1;
        Obs.Metrics.inc m_serial;
        let tx0 = tl_now tl in
        let stop, iters = run_serial rt ~frame ~lid ~n head.tstart in
        tl_rec tl Obs.Timeline.Reexec ~lid tx0;
        (stop, false, iters)
    in
    if retired > 0 then
      Obs.Metrics.observe h_iter (head.texec_s /. float_of_int retired);
    (* master now holds everything the head's backbone predicted *)
    if not (Specmem.is_rolled_back head.tbv) then Specmem.seal head.tbv;
    if !consec >= rt.cfg.despec_after && not (Hashtbl.mem rt.despec lid)
    then begin
      Hashtbl.replace rt.despec lid ();
      st.despecs <- st.despecs + 1;
      Obs.Metrics.inc m_despecs;
      Obs.Log.info
        "[runtime] loop %d despeculated after %d consecutive misspeculations"
        lid !consec;
      filling := false
    end;
    retire ~clean stop retired
  in
  let rec go () =
    top_up ();
    match Queue.take_opt pending with
    | None -> ()
    | Some epoch ->
      (match epoch with
      | Inline -> run_inline ()
      | Spec head ->
        decr in_flight;
        resolve head);
      if !finish = None then go ()
  in
  go ();
  st.wall <- st.wall +. (Unix.gettimeofday () -. t0);
  match !finish with
  | Some action -> action
  | None ->
    (* drained cleanly (despeculation, or prediction stopped
       extending): resume where the last retired chunk left off; if that
       is just past the fork, the master executes sequentially to the
       next SPT_FORK, whose handler proceeds (despeculated) or starts a
       new entry *)
    Engine.Jump_to !last_pos

(* ------------------------------------------------------------------ *)
(* Whole-program execution *)

let func_has_phis (f : Ir.func) =
  List.exists
    (fun bid ->
      List.exists
        (fun (i : Ir.instr) -> Ir.is_phi i.Ir.kind)
        (Ir.block f bid).Ir.instrs)
    (Ir.block_ids f)

type result = {
  output : string;
  return_value : Interp.value option;
  heap_digest : string Lazy.t;
  dynamic_instrs : int;
  wall_time : float;
  workers : int;
  stats : (int * loop_stats) list;
  oracle : [ `Match | `Mismatch of string | `Skipped ];
}

(* [No_sharing]: the default marshaller encodes physical sharing, so
   two structurally equal stores can digest differently depending on
   which boxed values execution happened to reuse — exactly what a
   cross-configuration comparison must not be sensitive to *)
let heap_digest (store : Interp.store) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (store.Interp.smem, store.Interp.srng)
          [ Marshal.No_sharing ]))

let opt_value_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Specmem.value_eq x y
  | _ -> false

(* per-region telemetry keys sorted before every JSON emit: worker
   scheduling order must never show through in a report, or the fuzz
   oracle's cross-jobs report diffs go nondeterministic *)
let sorted_regions (st : loop_stats) =
  List.sort compare
    (Hashtbl.fold (fun sid n acc -> (sid, n) :: acc) st.stale_regions [])

let sorted_svp (st : loop_stats) =
  List.sort compare
    (Hashtbl.fold (fun vid s acc -> (vid, s) :: acc) st.svp_vars [])

let svp_totals (st : loop_stats) =
  Hashtbl.fold
    (fun _ s (p, h, m) ->
      (p + s.sv_predicts, h + s.sv_hits, m + s.sv_mispredicts))
    st.svp_vars (0, 0, 0)

let stats_json (r : result) =
  let module J = Obs.Json in
  J.Obj
    [
      ("wall_time_s", J.Float r.wall_time);
      ("dynamic_instrs", J.Int r.dynamic_instrs);
      ("workers", J.Int r.workers);
      ("heap_digest", J.Str (Lazy.force r.heap_digest));
      ( "oracle",
        J.Str
          (match r.oracle with
          | `Match -> "match"
          | `Mismatch m -> "mismatch: " ^ m
          | `Skipped -> "skipped") );
      ( "loops",
        J.List
          (List.map
             (fun (lid, s) ->
               J.Obj
                 [
                   ("loop_id", J.Int lid);
                   ("chunk", J.Int s.chunk);
                   ("depth", J.Int s.depth);
                   ("forks", J.Int s.forks);
                   ("inline", J.Int s.inline);
                   ("commits", J.Int s.commits);
                   ("violations", J.Int s.violations);
                   ("faults", J.Int s.faults);
                   ("kills", J.Int s.kills);
                   ("despeculations", J.Int s.despecs);
                   ("serial_reexecs", J.Int s.serial_reexecs);
                   ("iters", J.Int s.iters);
                   ("wall_s", J.Float s.wall);
                   ( "kill_rate",
                     J.Float
                       (if s.forks > 0 then
                          float_of_int s.kills /. float_of_int s.forks
                        else 0.0) );
                   ( "reexec_fraction",
                     J.Float
                       (if s.forks > 0 then
                          float_of_int s.serial_reexecs /. float_of_int s.forks
                        else 0.0) );
                   ("stale_mem", J.Int s.stale_mem);
                   ("stale_reg", J.Int s.stale_reg);
                   ("stale_rng", J.Int s.stale_rng);
                   ( "stale_regions",
                     J.List
                       (List.map
                          (fun (sid, n) ->
                            J.Obj [ ("sid", J.Int sid); ("count", J.Int n) ])
                          (sorted_regions s)) );
                   ( "svp",
                     let p, h, m = svp_totals s in
                     J.Obj
                       [
                         ("predicts", J.Int p);
                         ("hits", J.Int h);
                         ("mispredicts", J.Int m);
                         ( "vars",
                           J.List
                             (List.map
                                (fun (vid, v) ->
                                  J.Obj
                                    [
                                      ("vid", J.Int vid);
                                      ("predicts", J.Int v.sv_predicts);
                                      ("hits", J.Int v.sv_hits);
                                      ("mispredicts", J.Int v.sv_mispredicts);
                                    ])
                                (sorted_svp s)) );
                       ] );
                 ])
             r.stats) );
    ]

let sequential_reference eng cfg program =
  let store = Interp.new_store (Engine.layout eng) program in
  let m =
    Engine.make ~max_steps:cfg.max_steps ~memio:(Interp.store_memio store) eng
  in
  let ret = Engine.call m (Ir.func_of_program program "main") [] [] in
  (ret, Buffer.contents store.Interp.sout, heap_digest store)

let run ?config ?(loops = []) (program : Ir.program) : result =
  let cfg = match config with Some c -> c | None -> default_config () in
  let specs = Hashtbl.create 8 in
  List.iter
    (fun ls ->
      match List.assoc_opt ls.ls_fname program.Ir.funcs with
      | Some f when not (func_has_phis f) -> Hashtbl.replace specs ls.ls_id ls
      | Some _ ->
        Obs.Log.warn
          "[runtime] loop %d in %s not speculated: function still in SSA"
          ls.ls_id ls.ls_fname
      | None -> ())
    loops;
  let tc0 = tl_now cfg.timeline in
  let eng = Engine.compile program in
  tl_rec cfg.timeline Obs.Timeline.Compile ~lid:(-1) tc0;
  let layout = Engine.layout eng in
  let store = Interp.new_store layout program in
  let master =
    Engine.make ~max_steps:cfg.max_steps ~memio:(Interp.store_memio store) eng
  in
  let region_of a =
    Option.map
      (fun (s : Ir.sym) -> s.Ir.sid)
      (Layout.owner_of_element layout program.Ir.globals a)
  in
  let workers = workers_for cfg.jobs in
  let rt =
    {
      cfg;
      eng;
      pool = None;
      workers;
      store;
      master;
      mu = Mutex.create ();
      cond = Condition.create ();
      specs;
      despec = Hashtbl.create 4;
      stats = Hashtbl.create 4;
      costs = Hashtbl.create 4;
      region_of;
      committed_steps = 0;
    }
  in
  (* with no loop to speculate the markers stay sequential no-ops, which
     the engine runs without calling out *)
  if Hashtbl.length specs > 0 then
    Engine.set_marker_handler master
      (Some
         (fun frame marker after ->
           match marker with
           | `Kill _ -> Engine.Proceed
           | `Fork id -> (
             match Hashtbl.find_opt rt.specs id with
             | Some spec
               when (not (Hashtbl.mem rt.despec id))
                    && String.equal frame.Engine.func.Ir.fname spec.ls_fname ->
               run_spt_loop rt frame spec after
             | _ -> Engine.Proceed)));
  let t0 = Unix.gettimeofday () in
  let return_value =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown rt.pool)
      (fun () ->
        Engine.call master (Ir.func_of_program program "main") [] [])
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  let output = Buffer.contents store.Interp.sout in
  (* marshalling all of memory is not free: only readers pay for it *)
  let digest = lazy (heap_digest store) in
  let oracle =
    if not cfg.oracle then `Skipped
    else begin
      let sret, sout, sdigest = sequential_reference eng cfg program in
      if not (String.equal sout output) then
        `Mismatch
          (Printf.sprintf "output differs (%d bytes vs %d sequential)"
             (String.length output) (String.length sout))
      else if not (opt_value_eq sret return_value) then
        `Mismatch "return value differs"
      else if not (String.equal sdigest (Lazy.force digest)) then
        `Mismatch "final heap differs"
      else `Match
    end
  in
  {
    output;
    return_value;
    heap_digest = digest;
    dynamic_instrs = Engine.steps master + rt.committed_steps;
    wall_time;
    workers = (if Option.is_some rt.pool then workers else 0);
    stats =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.stats []);
    oracle;
  }
