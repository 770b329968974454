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

let default_config () =
  let jobs = default_jobs () in
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
  | Forked of Interp.cursor  (** past this loop's Nth SPT_FORK *)
  | Exited of Interp.cursor  (** past this loop's SPT_KILL *)
  | Returned of Interp.value option

type outcome =
  | Stopped of stop * int * int  (** speculative steps, iterations *)
  | Fault of string

type status = Pending | Finished of outcome

type task = {
  tview : Specmem.view;
  tbv : Specmem.view option;
      (** the backbone (predictor) view this chunk reads through;
          sealed once the chunk resolves *)
  tstart : Interp.cursor;
  tpreds : (int * Interp.value) list;
      (** value predictions injected into [tbv] for this chunk:
          (vid, predicted value); scored at the chunk's resolution *)
  mutable tstatus : status;
  mutable texec_s : float;  (** seconds the task ran on its view *)
}

type rt = {
  program : Ir.program;
  cfg : config;
  eng : Engine.t;  (** the program compiled once, shared by every domain *)
  pool : Pool.t;
  store : Interp.store;
  master : Interp.state;
  mu : Mutex.t;
  cond : Condition.t;
  specs : (int, loop_spec) Hashtbl.t;
  despec : (int, unit) Hashtbl.t;
  stats : (int, loop_stats) Hashtbl.t;
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
let run_chunk rt ~(frame : Interp.frame) ~lid ~n ~fuel view start : outcome =
  try
    let tm = Interp.make ~max_steps:fuel ~memio:(Specmem.memio view) rt.program in
    let tframe =
      Interp.mk_frame frame.Interp.func ~arr_args:frame.Interp.arr_args
        ~regio:(Specmem.regio view)
    in
    let rec go forks cur =
      match Engine.exec_segment rt.eng tm tframe ~watch_markers:true cur with
      | Interp.Seg_return v ->
        Stopped (Returned v, Interp.steps tm, forks + 1)
      | Interp.Seg_stop_block _ -> assert false (* no stop_block given *)
      | Interp.Seg_marker (`Fork id, after) when id = lid ->
        if forks + 1 >= n then Stopped (Forked after, Interp.steps tm, n)
        else go (forks + 1) after
      | Interp.Seg_marker (`Kill id, after) when id = lid ->
        Stopped (Exited after, Interp.steps tm, forks + 1)
      | Interp.Seg_marker (_, after) -> go forks after
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
   a validation failure of the chunk that read it.  Returns [false]
   when prediction says the loop exits (or faults) within the next
   chunk, i.e. speculation should stop extending. *)
let run_backbone rt ~(frame : Interp.frame) ~header ~lid ~n ~fuel view : bool =
  try
    let tm = Interp.make ~max_steps:fuel ~memio:(Specmem.memio view) rt.program in
    let tframe =
      Interp.mk_frame frame.Interp.func ~arr_args:frame.Interp.arr_args
        ~regio:(Specmem.regio view)
    in
    let start = { Interp.cbid = header; cprev = -1; cpos = 0 } in
    let rec round k cur =
      if k = n then true
      else
        match
          Engine.exec_segment rt.eng tm tframe ~stop_block:header
            ~watch_markers:true cur
        with
        | Interp.Seg_marker (`Fork id, _) when id = lid -> round (k + 1) start
        | Interp.Seg_marker (`Kill id, _) when id = lid ->
          Obs.Log.debug "[runtime] loop %d: backbone predicts exit at round %d/%d"
            lid k n;
          false
        | Interp.Seg_marker (_, after) -> round k after
        | Interp.Seg_stop_block _ ->
          Obs.Log.debug
            "[runtime] loop %d: backbone re-reached header without a fork" lid;
          false (* header reached without a fork *)
        | Interp.Seg_return _ ->
          Obs.Log.debug "[runtime] loop %d: backbone predicts a return" lid;
          false
    in
    round 0 start
  with e ->
    Obs.Log.debug "[runtime] loop %d: backbone fault: %s" lid
      (Printexc.to_string e);
    false

(* Serial recovery: replay the chunk's whole span on master state, in
   the engaged frame, on the master machine (its marker handler is not
   consulted by [exec_segment], so no re-entry).  Returns where the replay
   stopped and how many iterations it retired.  Genuine program errors
   propagate from here exactly as a sequential run would. *)
let serial_reexec rt ~(frame : Interp.frame) ~lid ~n start : stop * int =
  let rec go forks cur =
    match Engine.exec_segment rt.eng rt.master frame ~watch_markers:true cur with
    | Interp.Seg_return v -> (Returned v, forks + 1)
    | Interp.Seg_stop_block _ -> assert false
    | Interp.Seg_marker (`Fork id, after) when id = lid ->
      if forks + 1 >= n then (Forked after, n) else go (forks + 1) after
    | Interp.Seg_marker (`Kill id, after) when id = lid ->
      (Exited after, forks + 1)
    | Interp.Seg_marker (_, after) -> go forks after
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
(* The per-loop scheduler *)

(* Per-variable runtime value predictor (SVP): a register that failed
   validation ([Stale_reg]) is a loop-carried scalar the backbone
   cannot supply — typically a post-fork accumulator.  The predictor
   tracks its master value at the end of each fully-resolved chunk and
   the per-chunk stride between consecutive observations; once a stride
   is known, spawns inject [last + stride * in_flight] into the new
   chunk's backbone view ({!Specmem.reg_predict}), and the existing
   read-log validation checks the prediction for free.  Recovery from a
   mispredict is the ordinary violation path (rollback, serial replay,
   kill cascade), which also re-observes the true value — so the state
   machine is predict → check (validation) → recover (replay+relearn). *)
type svp_pred = {
  mutable sp_last : Interp.value option;
      (* master value at the end of the last resolved chunk *)
  mutable sp_stride : int64 option;  (* confirmed per-chunk stride *)
}

(* Runs the whole loop: pipelines up to K = [depth_of] iteration chunks
   (epochs) onto the worker pool, predicts their loop-carried pre-fork
   state on the sequential thread (the backbone), commits chunks
   strictly in sequential order, recovers serially from misspeculation
   — killing the offending epoch and exactly its in-flight successors,
   never already-committed work — and returns where the sequential
   thread resumes.

   With chunk size [n], chunk C_k covers the [n] fork-to-fork spans
   starting at iteration [k*n]; every chunk starts from the static
   post-fork cursor [after0] (valid because speculated functions are
   phi-free, so [cprev] never matters).  C_{k+1}'s view parents the
   backbone view B_k written while C_k ran; backbone views chain
   B_k -> B_{k-1} -> ... and are sealed — not merged — once their
   reader chunk resolves, since master then already holds every value
   they predicted. *)
let run_spt_loop rt (frame : Interp.frame) (spec : loop_spec)
    (after0 : Interp.cursor) : Interp.marker_action =
  let t0 = Unix.gettimeofday () in
  let lid = spec.ls_id in
  let header = spec.ls_header in
  let n = chunk_size rt.cfg spec in
  let depth = depth_of rt.cfg spec in
  (* a chunk (and a backbone fill) is n iterations of speculative work *)
  let fuel = min rt.cfg.max_steps (rt.cfg.spec_fuel * n) in
  let tl = rt.cfg.timeline in
  let st = loop_stats rt lid in
  st.chunk <- n;
  st.depth <- depth;
  let master =
    {
      Specmem.m_mem = rt.store.Interp.smem;
      m_regs = frame.Interp.regs;
      m_rng_get = (fun () -> rt.store.Interp.srng);
      m_rng_set = (fun r -> rt.store.Interp.srng <- r);
      m_out = rt.store.Interp.sout;
    }
  in
  let pending : task Queue.t = Queue.create () in
  (* tail of the backbone view chain: chunks see all earlier pre-fork
     (predictor) writes, and no post-fork writes — that independence IS
     the speculation *)
  let bchain = ref None in
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
  (* predictions for the chunk about to spawn, [in_flight] chunks ahead
     of the last resolved one: last + stride * in_flight *)
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
  (* relearn after the head resolved: master now holds the true value
     at the end of its span.  Only full chunks observe a stride (a
     partial chunk ends the loop anyway); the stride confirms after one
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
            if vid < Array.length frame.Interp.regs then
              frame.Interp.regs.(vid)
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
  let spawn_chunk ~bv =
    let tf0 = tl_now tl in
    (* inject value predictions into the backbone view the chunk reads
       through (never into a raw-master chunk: nothing to write to) *)
    let preds =
      match bv with
      | None -> []
      | Some bv ->
        let ps = svp_predictions () in
        if ps <> [] then begin
          let tp0 = tl_now tl in
          List.iter
            (fun (vid, x) ->
              Specmem.reg_predict bv vid x;
              (svp_var vid).sv_predicts <- (svp_var vid).sv_predicts + 1;
              Obs.Metrics.inc m_svp_predicts)
            ps;
          tl_rec tl Obs.Timeline.Svp ~lid tp0
        end;
        ps
    in
    let view = Specmem.create ?parent:bv master in
    let t =
      { tview = view; tbv = bv; tstart = after0; tpreds = preds;
        tstatus = Pending; texec_s = 0.0 }
    in
    Queue.push t pending;
    st.forks <- st.forks + 1;
    Obs.Metrics.inc m_forks;
    Pool.submit rt.pool (fun () ->
        (* a chunk the kill cascade rolled back while it was still
           queued has left [pending]: nobody waits for it, so it must
           not hold a worker ahead of the respawned head *)
        if not (Specmem.is_rolled_back view) then begin
          (* the Exec span lands on the worker domain's own lane *)
          let e0 = Unix.gettimeofday () in
          let o = run_chunk rt ~frame ~lid ~n ~fuel view after0 in
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
  (* run one backbone fill on the sequential thread, then spawn the
     chunk that reads through it *)
  let extend () =
    let tb0 = tl_now tl in
    let bv = Specmem.create ?parent:!bchain master in
    let complete = run_backbone rt ~frame ~header ~lid ~n ~fuel bv in
    tl_rec tl Obs.Timeline.Chunk ~lid tb0;
    bchain := Some bv;
    (* spawn even past a predicted exit: the chunk stops at the loop's
       kill (or return) on its own, so the exit is itself speculated *)
    spawn_chunk ~bv:(Some bv);
    if not complete then filling := false
  in
  (* kill cascade: discard every in-flight successor epoch — exactly
     the epochs ≥ the offender (the offender's own view was already
     rolled back by the resolution), never committed work — and reset
     the backbone chain so re-speculation restarts from master state *)
  let kill_pending () =
    let killed = Queue.length pending in
    if killed > 0 then begin
      st.kills <- st.kills + killed;
      Obs.Metrics.add m_kills killed;
      (* roll the dead views back — and their backbones — so late
         writes from abandoned workers are dropped and descendants stop
         reading their buffers *)
      let tk0 = tl_now tl in
      Queue.iter
        (fun t ->
          Specmem.rollback t.tview;
          match t.tbv with
          | Some bv when not (Specmem.is_committed bv) -> Specmem.rollback bv
          | _ -> ())
        pending;
      Queue.clear pending;
      tl_rec tl Obs.Timeline.Kill ~lid tk0
    end;
    bchain := None
  in
  spawn_chunk ~bv:None;
  while !finish = None && not (Queue.is_empty pending) do
    while !filling && Queue.length pending < depth do
      extend ()
    done;
    let head = Queue.pop pending in
    let outcome = wait_for rt head in
    (* resolve the head to its definitive sequential stop *)
    let resolution =
      match outcome with
      | Stopped (stop, steps, iters) -> (
        let tv0 = tl_now tl in
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
        rt.committed_steps <- rt.committed_steps + steps;
        (* committed speculative work counts against the same budget a
           sequential run would have spent on it — otherwise a
           transformed program that loops forever commits forever (the
           master only steps between SPT regions and never hits its own
           limit) *)
        if Interp.steps rt.master + rt.committed_steps > rt.cfg.max_steps then
          raise
            (Interp.Runtime_error
               (Printf.sprintf "step limit exceeded (%d)" rt.cfg.max_steps));
        st.commits <- st.commits + 1;
        Obs.Metrics.inc m_commits;
        (* a master-fed head (first epoch, or the respawn after a kill
           cascade) reads only true state and is guaranteed clean, so
           its commit is no evidence speculation works — only a commit
           of an epoch that read through backbones resets the valve *)
        (match head.tbv with Some _ -> consec := 0 | None -> ());
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
        let stop, iters = serial_reexec rt ~frame ~lid ~n head.tstart in
        tl_rec tl Obs.Timeline.Reexec ~lid tx0;
        (stop, false, iters)
    in
    Obs.Log.debug "[runtime] loop %d: head %s: retired %d iter(s)" lid
      (match stop with
      | Forked _ -> if clean then "committed" else "replayed"
      | Exited _ -> "exited"
      | Returned _ -> "returned")
      retired;
    st.iters <- st.iters + retired;
    if retired > 0 then
      Obs.Metrics.observe h_iter (head.texec_s /. float_of_int retired);
    (* master holds the true post-head register file now (commit merged
       it, or the serial replay wrote it) — observe strides at chunk
       granularity *)
    svp_learn
      ~full:(retired = n && match stop with Forked _ -> true | _ -> false);
    (* master now holds everything the head's backbone predicted *)
    (match head.tbv with
    | Some bv when not (Specmem.is_rolled_back bv) -> Specmem.seal bv
    | _ -> ());
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
    (* did the head end the way downstream speculation assumed?  every
       downstream chunk starts from the static [after0], so a head that
       forked its [n]th time — committed, or replayed to the same
       static cursor — upholds them *)
    let downstream_ok =
      match stop with
      | Forked after ->
        clean
        || after.Interp.cbid = after0.Interp.cbid
           && after.Interp.cpos = after0.Interp.cpos
      | _ -> false
    in
    if downstream_ok then begin
      last_pos :=
        (match stop with
        | Forked c | Exited c -> c
        | Returned _ -> !last_pos);
      (* a misspeculated head poisons every in-flight successor — they
         chained through its backbone's now-refuted state — so the
         cascade kills exactly the epochs after it (committed work is
         untouched) and re-speculates from the replayed master state,
         which sits precisely at the fork the dead epochs assumed *)
      if not clean then begin
        kill_pending ();
        if not (Hashtbl.mem rt.despec lid) then begin
          filling := true;
          spawn_chunk ~bv:None
        end
      end
    end
    else begin
      (* control diverged (or the loop exited): everything speculated
         beyond this point is dead (abandoned workers finish into dead
         views), and the loop is over *)
      kill_pending ();
      finish :=
        Some
          (match stop with
          | Returned v -> Interp.Return_now v
          | Exited c | Forked c -> Interp.Jump_to c)
    end
  done;
  st.wall <- st.wall +. (Unix.gettimeofday () -. t0);
  match !finish with
  | Some action -> action
  | None ->
    (* drained cleanly (despeculation wind-down): resume where the last
       committed chunk left off; if that is just past the fork, the
       master executes sequentially to the next SPT_FORK, whose handler
       sees the despec flag and proceeds *)
    Interp.Jump_to !last_pos

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
  heap_digest : string;
  dynamic_instrs : int;
  wall_time : float;
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
      ("heap_digest", J.Str r.heap_digest);
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

let sequential_reference eng cfg layout program =
  let store = Interp.new_store layout program in
  let m =
    Interp.make ~max_steps:cfg.max_steps ~memio:(Interp.store_memio store)
      program
  in
  let ret = Engine.call eng m (Ir.func_of_program program "main") [] [] in
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
  let layout = Layout.build program.Ir.globals in
  let store = Interp.new_store layout program in
  let master =
    Interp.make ~max_steps:cfg.max_steps ~memio:(Interp.store_memio store)
      program
  in
  let region_of a =
    Option.map
      (fun (s : Ir.sym) -> s.Ir.sid)
      (Layout.owner_of_element layout program.Ir.globals a)
  in
  let tc0 = tl_now cfg.timeline in
  let eng = Engine.compile master in
  tl_rec cfg.timeline Obs.Timeline.Compile ~lid:(-1) tc0;
  let rt =
    {
      program;
      cfg;
      eng;
      pool =
        Pool.create
          ~on_start:(fun () ->
            match cfg.timeline with
            | Some t -> Obs.Timeline.touch t
            | None -> ())
          ~jobs:cfg.jobs ();
      store;
      master;
      mu = Mutex.create ();
      cond = Condition.create ();
      specs;
      despec = Hashtbl.create 4;
      stats = Hashtbl.create 4;
      region_of;
      committed_steps = 0;
    }
  in
  Interp.set_marker_handler master
    (Some
       (fun _st frame marker after ->
         match marker with
         | `Kill _ -> Interp.Proceed
         | `Fork id -> (
           match Hashtbl.find_opt rt.specs id with
           | Some spec
             when (not (Hashtbl.mem rt.despec id))
                  && String.equal frame.Interp.func.Ir.fname spec.ls_fname ->
             run_spt_loop rt frame spec after
           | _ -> Interp.Proceed)));
  let t0 = Unix.gettimeofday () in
  let return_value =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown rt.pool)
      (fun () ->
        Engine.call eng master (Ir.func_of_program program "main") [] [])
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  let output = Buffer.contents store.Interp.sout in
  let digest = heap_digest store in
  let oracle =
    if not cfg.oracle then `Skipped
    else begin
      let sret, sout, sdigest = sequential_reference eng cfg layout program in
      if not (String.equal sout output) then
        `Mismatch
          (Printf.sprintf "output differs (%d bytes vs %d sequential)"
             (String.length output) (String.length sout))
      else if not (opt_value_eq sret return_value) then
        `Mismatch "return value differs"
      else if not (String.equal sdigest digest) then
        `Mismatch "final heap differs"
      else `Match
    end
  in
  {
    output;
    return_value;
    heap_digest = digest;
    dynamic_instrs = Interp.steps master + rt.committed_steps;
    wall_time;
    stats =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.stats []);
    oracle;
  }
