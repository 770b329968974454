(* Specmem and Pool micro-ledger: the speculative runtime's per-operation
   costs, timed by calling the public functions directly against
   synthetic masters.  Every figure is the median over [reps]
   repetitions of one batch, divided by the batch's operation count. *)

module Specmem = Spt_runtime.Specmem
module Pool = Spt_runtime.Pool

let n = 4096
let reps = 15
let vi i = Spt_ir.Eval.Vi (Int64.of_int i)

let master () =
  let rng = ref 0L in
  {
    Specmem.m_mem = Array.init (2 * n) vi;
    m_regs = Array.init n (fun i -> Some (vi i));
    m_rng_get = (fun () -> !rng);
    m_rng_set = (fun s -> rng := s);
    m_out = Buffer.create 16;
  }

let var vid = { Spt_ir.Ir.vid; vname = "r"; vty = Spt_ir.Ir.I64 }

(* ns per op: [prepare ()] builds the state outside the clock, [run]
   performs [ops] operations on it *)
let per_op ~ops prepare run =
  Stat.median
    (List.init reps (fun _ ->
         let st = prepare () in
         let t0 = Common.now () in
         run st;
         (Common.now () -. t0) *. 1e9 /. float_of_int ops))

let loads v = let io = Specmem.memio v in for a = 0 to n - 1 do ignore (io.Spt_interp.Interp.mio_load a) done
let stores v = let io = Specmem.memio v in for a = 0 to n - 1 do io.Spt_interp.Interp.mio_store a (vi a) done

(* a view whose parent chain is four uncommitted views, each holding
   writes to addresses the measured loads never touch *)
let chained m =
  let rec build k parent =
    if k = 0 then parent
    else begin
      let v = Specmem.create ?parent m in
      let io = Specmem.memio v in
      for a = n to n + 63 do io.Spt_interp.Interp.mio_store (a + (k * 64)) (vi a) done;
      build (k - 1) (Some v)
    end
  in
  Specmem.create ?parent:(build 4 None) m

let specmem () =
  let fresh () = Specmem.create (master ()) in
  [
    ("specmem.create_ns", per_op ~ops:n master (fun m -> for _ = 1 to n do ignore (Specmem.create m) done));
    ("specmem.load_ns", per_op ~ops:n fresh loads);
    ("specmem.store_ns", per_op ~ops:n fresh stores);
    ( "specmem.reg_load_ns",
      per_op ~ops:n fresh (fun v ->
          let io = Specmem.regio v in
          for r = 0 to n - 1 do ignore (io.Spt_interp.Interp.rio_get (var r)) done) );
    ( "specmem.reg_store_ns",
      per_op ~ops:n fresh (fun v ->
          let io = Specmem.regio v in
          for r = 0 to n - 1 do io.Spt_interp.Interp.rio_set (var r) (vi r) done) );
    ("specmem.chain_load_ns", per_op ~ops:n (fun () -> chained (master ())) loads);
    ( "specmem.validate_ns",
      per_op ~ops:n (fun () -> let v = fresh () in loads v; v) (fun v -> ignore (Specmem.validate v)) );
    ( "specmem.commit_ns",
      per_op ~ops:n (fun () -> let v = fresh () in stores v; v) Specmem.commit );
  ]

(* Pool: [handoff] is submit → the job starts on a worker; [roundtrip]
   is submit → the submitting thread sees the job's completion, through
   a mutex and condition variable as the runtime's master waits. *)
let pool ~jobs ~rounds =
  let p = Pool.create ~jobs () in
  let mu = Mutex.create () and cond = Condition.create () in
  let handoffs = ref [] and trips = ref [] in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      for _ = 1 to rounds do
        let started = ref 0.0 and finished = ref false in
        let t0 = Common.now () in
        Pool.submit p (fun () ->
            let t = Common.now () in
            Mutex.lock mu;
            started := t;
            finished := true;
            Condition.signal cond;
            Mutex.unlock mu);
        Mutex.lock mu;
        while not !finished do Condition.wait cond mu done;
        Mutex.unlock mu;
        let t2 = Common.now () in
        handoffs := ((!started -. t0) *. 1e6) :: !handoffs;
        trips := ((t2 -. t0) *. 1e6) :: !trips
      done);
  [ ("pool.handoff_us", Stat.median !handoffs); ("pool.roundtrip_us", Stat.median !trips) ]

let metrics ~jobs = specmem () @ pool ~jobs ~rounds:2000
