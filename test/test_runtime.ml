(** Speculative runtime tests: the domain pool, the speculative store
    buffer (validation, rollback, view chains), the de-speculation
    valve, the round planner, the sequential thread's inline chunks
    and the pool's lifetime, and the headline acceptance criteria —
    sequential equivalence of every workload under jobs ∈ {1, 2, 4}
    (including a misspeculation stress program) and outcome
    determinism of repeated parallel runs. *)

open Spt_runtime
module Interp = Spt_interp.Interp
module Eval = Spt_ir.Eval
module Ir = Spt_ir.Ir
module Pipeline = Spt_driver.Pipeline
module Config = Spt_driver.Config
module Suite = Spt_workloads.Suite

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_runs_jobs () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let hits = Atomic.make 0 in
  for _ = 1 to 200 do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran" 200 (Atomic.get hits)

let test_pool_survives_exceptions () =
  let pool = Pool.create ~jobs:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.submit pool (fun () -> failwith "boom");
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "workers survive raising jobs" 10 (Atomic.get hits);
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Pool.submit pool (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Specmem *)

let vi n = Eval.Vi (Int64.of_int n)

let fresh_master ?(nregs = 4) () =
  let mem = Array.make 8 (vi 0) in
  let regs = Array.make nregs None in
  let rng = ref 7L in
  let out = Buffer.create 16 in
  ( {
      Specmem.m_mem = mem;
      m_regs = regs;
      m_rng_get = (fun () -> !rng);
      m_rng_set = (fun v -> rng := v);
      m_out = out;
    },
    mem,
    regs,
    out )

let var vid = { Ir.vid; vname = Printf.sprintf "v%d" vid; vty = Ir.I64 }

let test_specmem_buffering () =
  let master, mem, regs, out = fresh_master () in
  mem.(3) <- vi 30;
  regs.(1) <- Some (vi 10);
  let v = Specmem.create master in
  let mio = Specmem.memio v and rio = Specmem.regio v in
  (* reads come from master and are logged *)
  Alcotest.(check bool) "read master mem" true
    (Specmem.value_eq (mio.Interp.mio_load 3) (vi 30));
  Alcotest.(check bool) "read master reg" true
    (rio.Interp.rio_get (var 1) = Some (vi 10));
  (* writes are buffered: master unchanged until commit *)
  mio.Interp.mio_store 3 (vi 99);
  rio.Interp.rio_set (var 2) (vi 42);
  mio.Interp.mio_print "spec!";
  Alcotest.(check bool) "store buffered" true
    (Specmem.value_eq mem.(3) (vi 30));
  Alcotest.(check bool) "reg buffered" true (regs.(2) = None);
  Alcotest.(check string) "output buffered" "" (Buffer.contents out);
  (* the view reads its own writes *)
  Alcotest.(check bool) "read own store" true
    (Specmem.value_eq (mio.Interp.mio_load 3) (vi 99));
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "mem committed" true
    (Specmem.value_eq mem.(3) (vi 99));
  Alcotest.(check bool) "reg committed" true (regs.(2) = Some (vi 42));
  Alcotest.(check string) "output committed" "spec!" (Buffer.contents out);
  Alcotest.(check bool) "committed flag" true (Specmem.is_committed v)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_specmem_violation_rollback () =
  let master, mem, _, out = fresh_master () in
  mem.(0) <- vi 5;
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  ignore (mio.Interp.mio_load 0);
  mio.Interp.mio_store 1 (vi 123);
  mio.Interp.mio_print "dead";
  (* the "main thread" stores to the address the view read *)
  mem.(0) <- vi 6;
  (match Specmem.validate v with
  | Ok () -> Alcotest.fail "stale read not detected"
  | Error stale ->
    Alcotest.(check bool)
      "names the address" true
      (contains (Specmem.string_of_stale stale) "mem[0]"));
  (* rollback = simply not committing: no speculative effect escaped *)
  Alcotest.(check bool) "mem untouched" true
    (Specmem.value_eq mem.(1) (vi 0));
  Alcotest.(check string) "output untouched" "" (Buffer.contents out)

let test_specmem_chain () =
  let master, mem, _, _ = fresh_master () in
  mem.(2) <- vi 1;
  let p1 = Specmem.create master in
  (Specmem.memio p1).Interp.mio_store 2 (vi 11);
  (* the child sees the uncommitted parent's write *)
  let s1 = Specmem.create ~parent:p1 master in
  Alcotest.(check bool) "reads through chain" true
    (Specmem.value_eq ((Specmem.memio s1).Interp.mio_load 2) (vi 11));
  (* once the parent commits, a fresh child reads master (same value) *)
  Specmem.commit p1;
  let s2 = Specmem.create ~parent:p1 master in
  Alcotest.(check bool) "committed parent falls through to master" true
    (Specmem.value_eq ((Specmem.memio s2).Interp.mio_load 2) (vi 11));
  Alcotest.(check bool) "master holds the committed value" true
    (Specmem.value_eq mem.(2) (vi 11));
  (* read footprints are tracked *)
  let reads, writes = Specmem.footprint p1 in
  Alcotest.(check int) "parent logged no reads" 0 reads;
  Alcotest.(check int) "parent logged one write" 1 writes

let test_specmem_rng_and_floats () =
  let master, _, _, _ = fresh_master () in
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  Alcotest.(check int64) "rng read through" 7L (mio.Interp.mio_rng ());
  mio.Interp.mio_set_rng 13L;
  Alcotest.(check int64) "rng buffered locally" 13L (mio.Interp.mio_rng ());
  (* bit-level float equality: NaN = NaN, -0. <> 0. *)
  Alcotest.(check bool) "nan eq" true
    (Specmem.value_eq (Eval.Vf Float.nan) (Eval.Vf Float.nan));
  Alcotest.(check bool) "signed zero" false
    (Specmem.value_eq (Eval.Vf 0.0) (Eval.Vf (-0.0)))

(* rollback edge cases: the kill path races abandoned workers, so its
   exact semantics (drop late writes, stay idempotent) are what keeps
   the scheduler's "finish into dead views" pattern sound *)

let test_specmem_write_after_kill () =
  let master, mem, _, out = fresh_master () in
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  mio.Interp.mio_store 2 (vi 21);
  Specmem.rollback v;
  (* an abandoned worker still finishing into the dead view *)
  mio.Interp.mio_store 3 (vi 33);
  mio.Interp.mio_print "late";
  Alcotest.(check bool) "rolled back" true (Specmem.is_rolled_back v);
  Alcotest.(check bool) "pre-kill write never reaches master" true
    (Specmem.value_eq mem.(2) (vi 0));
  Alcotest.(check bool) "late write dropped" true
    (Specmem.value_eq mem.(3) (vi 0));
  Alcotest.(check string) "late output dropped" "" (Buffer.contents out);
  (* a descendant chained through the dead view must read master,
     not the dead buffer *)
  let s = Specmem.create ~parent:v master in
  Alcotest.(check bool) "descendant skips dead buffer" true
    (Specmem.value_eq ((Specmem.memio s).Interp.mio_load 2) (vi 0));
  (* committing a killed view is a programming error *)
  Alcotest.check_raises "commit after rollback rejected"
    (Invalid_argument "Specmem.commit: view was rolled back") (fun () ->
      Specmem.commit v)

let test_specmem_double_rollback () =
  let master, mem, _, _ = fresh_master () in
  let v = Specmem.create master in
  (Specmem.memio v).Interp.mio_store 1 (vi 11);
  Specmem.rollback v;
  (* idempotent: the second rollback is the first rollback *)
  Specmem.rollback v;
  Alcotest.(check bool) "still rolled back" true (Specmem.is_rolled_back v);
  Alcotest.(check bool) "still not committed" false (Specmem.is_committed v);
  Alcotest.(check bool) "write still dropped" true
    (Specmem.value_eq mem.(1) (vi 0))

let test_specmem_empty_commit () =
  let master, mem, _, out = fresh_master () in
  mem.(0) <- vi 5;
  let v = Specmem.create master in
  (* no reads, no writes: a task that immediately hit the header *)
  Alcotest.(check bool) "empty view validates" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "committed" true (Specmem.is_committed v);
  Alcotest.(check bool) "master untouched" true
    (Specmem.value_eq mem.(0) (vi 5));
  Alcotest.(check string) "no output" "" (Buffer.contents out);
  let r, w = Specmem.footprint v in
  Alcotest.(check (pair int int)) "empty footprint" (0, 0) (r, w)

let test_specmem_validate_empty_read_log () =
  let master, mem, regs, _ = fresh_master () in
  let v = Specmem.create master in
  (* write-only task: master may change arbitrarily underneath it and
     validation must still pass — nothing was observed *)
  (Specmem.memio v).Interp.mio_store 4 (vi 44);
  mem.(4) <- vi 99;
  mem.(0) <- vi 1;
  regs.(0) <- Some (vi 2);
  Alcotest.(check bool) "no reads, nothing stale" true
    (Result.is_ok (Specmem.validate v));
  Specmem.commit v;
  Alcotest.(check bool) "buffered write lands over the interim value" true
    (Specmem.value_eq mem.(4) (vi 44))

let stale_text v =
  match Specmem.validate v with
  | Ok () -> "ok"
  | Error stale -> Specmem.string_of_stale stale

(* when several reads went stale, validation names the earliest-logged
   one: memory, then registers, each in first-read order *)
let test_specmem_first_stale_order () =
  let master, mem, regs, _ = fresh_master ~nregs:8 () in
  let v = Specmem.create master in
  let mio = Specmem.memio v in
  ignore (mio.Interp.mio_load 5);
  ignore (mio.Interp.mio_load 3);
  mem.(5) <- vi 50;
  mem.(3) <- vi 30;
  Alcotest.(check string) "first memory read reported"
    "mem[5] changed under speculation" (stale_text v);
  regs.(7) <- Some (vi 70);
  regs.(2) <- Some (vi 20);
  let v = Specmem.create master in
  let rio = Specmem.regio v in
  ignore (rio.Interp.rio_get (var 7));
  ignore (rio.Interp.rio_get (var 2));
  regs.(7) <- Some (vi 71);
  regs.(2) <- Some (vi 21);
  Alcotest.(check string) "first register read reported"
    "reg %7 changed under speculation" (stale_text v)

(* Model-based check: random operation sequences over a chain of up to
   four views, replayed against an association-list model of the
   resolution order (own writes → own read log → uncommitted ancestors
   → master), the kill rules and validate/commit/seal.  Every loaded
   value, every validation verdict, every footprint and the master state
   after every step must agree.  When several reads are stale, any of
   them may be reported.  Each case draws its six addresses from a
   larger memory, so keys collide in a view's index and runs of
   neighbouring addresses are rare. *)

type model_op =
  | Load of int * int  (** view, address slot *)
  | Store of int * int * int  (** view, address slot, value *)
  | Reg_get of int * int
  | Reg_set of int * int * int
  | Reg_predict of int * int * int
  | Rng of int
  | Set_rng of int * int
  | Print of int * int
  | Rollback of int
  | Seal of int
  | Commit of int  (** validate, then commit when clean *)
  | Master_mem of int * int  (** the sequential thread moves on *)
  | Master_reg of int * int
  | Master_rng of int

let model_values =
  [| vi 0; vi 1; vi 2; vi (-7); Eval.Vf 0.0; Eval.Vf (-0.0); Eval.Vf Float.nan; Eval.Vf 1.5 |]

let model_mem = 1024
let model_addrs = 6
let model_regs = 5

let string_of_model_op = function
  | Load (v, a) -> Printf.sprintf "load v%d [%d]" v a
  | Store (v, a, x) -> Printf.sprintf "store v%d [%d]=#%d" v a x
  | Reg_get (v, r) -> Printf.sprintf "reg_get v%d %%%d" v r
  | Reg_set (v, r, x) -> Printf.sprintf "reg_set v%d %%%d=#%d" v r x
  | Reg_predict (v, r, x) -> Printf.sprintf "reg_predict v%d %%%d=#%d" v r x
  | Rng v -> Printf.sprintf "rng v%d" v
  | Set_rng (v, s) -> Printf.sprintf "set_rng v%d %d" v s
  | Print (v, s) -> Printf.sprintf "print v%d %d" v s
  | Rollback v -> Printf.sprintf "rollback v%d" v
  | Seal v -> Printf.sprintf "seal v%d" v
  | Commit v -> Printf.sprintf "commit v%d" v
  | Master_mem (a, x) -> Printf.sprintf "master [%d]=#%d" a x
  | Master_reg (r, x) -> Printf.sprintf "master %%%d=#%d" r x
  | Master_rng s -> Printf.sprintf "master rng %d" s

let gen_model_case =
  let open QCheck.Gen in
  let value = int_bound (Array.length model_values - 1) in
  let addr = int_bound (model_addrs - 1) and reg = int_bound (model_regs - 1) in
  let op k =
    let view = int_bound (k - 1) in
    frequency
      [
        (6, map2 (fun v a -> Load (v, a)) view addr);
        (4, map3 (fun v a x -> Store (v, a, x)) view addr value);
        (5, map2 (fun v r -> Reg_get (v, r)) view reg);
        (3, map3 (fun v r x -> Reg_set (v, r, x)) view reg value);
        (1, map3 (fun v r x -> Reg_predict (v, r, x)) view reg value);
        (2, map (fun v -> Rng v) view);
        (1, map2 (fun v s -> Set_rng (v, s)) view small_nat);
        (1, map2 (fun v s -> Print (v, s)) view small_nat);
        (1, map (fun v -> Rollback v) view);
        (1, map (fun v -> Seal v) view);
        (3, map (fun v -> Commit v) view);
        (3, map2 (fun a x -> Master_mem (a, x)) addr value);
        (2, map2 (fun r x -> Master_reg (r, x)) reg value);
        (1, map (fun s -> Master_rng s) small_nat);
      ]
  in
  pair (int_range 1 4) (array_repeat model_addrs (int_bound (model_mem - 1)))
  >>= fun (k, addrs) ->
  list_size (int_range 0 40) (op k) >|= fun ops -> (k, addrs, ops)

type model_view = {
  mparent : int option;
  mutable mw : (int * Interp.value) list;  (** buffered writes *)
  mutable mr : (int * Interp.value) list;  (** read log, oldest first *)
  mutable rw : (int * Interp.value) list;
  mutable rr : (int * Interp.value) list;
  mutable rng_r : int64 option;
  mutable rng_w : int64 option;
  mutable out : string;
  mutable st : [ `Live | `Committed | `Rolled_back ];
}

(* bit-level, so the model does not borrow the implementation's value_eq *)
let model_eq a b =
  match (a, b) with
  | Eval.Vi x, Eval.Vi y -> Int64.equal x y
  | Eval.Vf x, Eval.Vf y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let run_model_case (k, addrs, ops) =
  (* the implementation's master and the model's, started equal *)
  let init_regs = Array.init model_regs (fun r -> if r mod 2 = 0 then Some (vi r) else None) in
  let mem = Array.init model_mem vi and regs = Array.copy init_regs in
  let rng = ref 1L and out = Buffer.create 16 in
  let master =
    {
      Specmem.m_mem = mem;
      m_regs = regs;
      m_rng_get = (fun () -> !rng);
      m_rng_set = (fun s -> rng := s);
      m_out = out;
    }
  in
  let mmem = Array.init model_mem vi and mregs = Array.copy init_regs in
  let mrng = ref 1L and mout = Buffer.create 16 in
  let views = Array.make k (Specmem.create master) in
  for i = 1 to k - 1 do
    views.(i) <- Specmem.create ~parent:views.(i - 1) master
  done;
  let mviews =
    Array.init k (fun i ->
        {
          mparent = (if i = 0 then None else Some (i - 1));
          mw = [];
          mr = [];
          rw = [];
          rr = [];
          rng_r = None;
          rng_w = None;
          out = "";
          st = `Live;
        })
  in
  let rec chain sel = function
    | None -> None
    | Some i -> (
      let p = mviews.(i) in
      match p.st with
      | `Committed -> None
      | `Rolled_back -> chain sel p.mparent
      | `Live -> ( match sel p with Some _ as r -> r | None -> chain sel p.mparent))
  in
  let live m = m.st <> `Rolled_back in
  let stale_set m =
    List.filter_map
      (fun (a, x) -> if model_eq mmem.(a) x then None else Some (Specmem.Stale_mem a))
      m.mr
    @ List.filter_map
        (fun (r, x) ->
          match mregs.(r) with
          | Some y when model_eq x y -> None
          | _ -> Some (Specmem.Stale_reg r))
        m.rr
    @ match m.rng_r with Some s when not (Int64.equal s !mrng) -> [ Specmem.Stale_rng ] | _ -> []
  in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let step op =
    let what = string_of_model_op op in
    let value x = model_values.(x) in
    let addr a = addrs.(a) in
    let raised f = match f () with () -> false | exception Invalid_argument _ -> true in
    (match op with
    | Load (i, a) ->
      let a = addr a in
      let m = mviews.(i) in
      let want =
        match List.assoc_opt a m.mw with
        | Some x -> x
        | None -> (
          match List.assoc_opt a m.mr with
          | Some x -> x
          | None ->
            let x =
              match chain (fun p -> List.assoc_opt a p.mw) m.mparent with
              | Some x -> x
              | None -> mmem.(a)
            in
            m.mr <- m.mr @ [ (a, x) ];
            x)
      in
      let got = (Specmem.memio views.(i)).Interp.mio_load a in
      if not (model_eq got want) then fail "%s: loaded a different value" what
    | Store (i, a, x) ->
      let a = addr a in
      let m = mviews.(i) in
      if live m then m.mw <- (a, value x) :: List.remove_assoc a m.mw;
      (Specmem.memio views.(i)).Interp.mio_store a (value x)
    | Reg_get (i, r) ->
      let m = mviews.(i) in
      let want =
        match List.assoc_opt r m.rw with
        | Some x -> Some x
        | None -> (
          match List.assoc_opt r m.rr with
          | Some x -> Some x
          | None ->
            let x =
              match chain (fun p -> List.assoc_opt r p.rw) m.mparent with
              | Some x -> Some x
              | None -> mregs.(r)
            in
            Option.iter (fun x -> m.rr <- m.rr @ [ (r, x) ]) x;
            x)
      in
      let got = (Specmem.regio views.(i)).Interp.rio_get (var r) in
      if not (Option.equal model_eq got want) then fail "%s: read a different register" what
    | Reg_set (i, r, x) | Reg_predict (i, r, x) ->
      let m = mviews.(i) in
      if live m then m.rw <- (r, value x) :: List.remove_assoc r m.rw;
      (match op with
      | Reg_set _ -> (Specmem.regio views.(i)).Interp.rio_set (var r) (value x)
      | _ -> Specmem.reg_predict views.(i) r (value x))
    | Rng i ->
      let m = mviews.(i) in
      let want =
        match (m.rng_w, m.rng_r) with
        | Some s, _ | None, Some s -> s
        | None, None ->
          let s =
            match chain (fun p -> p.rng_w) m.mparent with Some s -> s | None -> !mrng
          in
          m.rng_r <- Some s;
          s
      in
      let got = (Specmem.memio views.(i)).Interp.mio_rng () in
      if not (Int64.equal got want) then fail "%s: observed a different RNG state" what
    | Set_rng (i, s) ->
      let m = mviews.(i) in
      if live m then m.rng_w <- Some (Int64.of_int s);
      (Specmem.memio views.(i)).Interp.mio_set_rng (Int64.of_int s)
    | Print (i, s) ->
      let m = mviews.(i) in
      if live m then m.out <- m.out ^ string_of_int s;
      (Specmem.memio views.(i)).Interp.mio_print (string_of_int s)
    | Rollback i ->
      let m = mviews.(i) in
      let want = m.st = `Committed in
      if not want then m.st <- `Rolled_back;
      if raised (fun () -> Specmem.rollback views.(i)) <> want then
        fail "%s: rollback disagrees on raising" what
    | Seal i ->
      let m = mviews.(i) in
      let want = m.st = `Rolled_back in
      if not want then m.st <- `Committed;
      if raised (fun () -> Specmem.seal views.(i)) <> want then
        fail "%s: seal disagrees on raising" what
    | Commit i -> (
      let m = mviews.(i) in
      let stale = stale_set m in
      match (Specmem.validate views.(i), stale) with
      | Ok (), [] ->
        let want = m.st = `Rolled_back in
        if not want then begin
          List.iter (fun (a, x) -> mmem.(a) <- x) m.mw;
          List.iter (fun (r, x) -> mregs.(r) <- Some x) m.rw;
          Option.iter (fun s -> mrng := s) m.rng_w;
          Buffer.add_string mout m.out;
          m.st <- `Committed
        end;
        if raised (fun () -> Specmem.commit views.(i)) <> want then
          fail "%s: commit disagrees on raising" what
      | Ok (), _ :: _ -> fail "%s: a stale read validated" what
      | Error _, [] -> fail "%s: a clean view failed validation" what
      | Error s, _ ->
        if not (List.mem s stale) then
          fail "%s: reported %s, which is not stale" what (Specmem.string_of_stale s))
    | Master_mem (a, x) ->
      mem.(addr a) <- value x;
      mmem.(addr a) <- value x
    | Master_reg (r, x) ->
      regs.(r) <- Some (value x);
      mregs.(r) <- Some (value x)
    | Master_rng s ->
      rng := Int64.of_int s;
      mrng := Int64.of_int s);
    Array.iteri
      (fun i v ->
        let m = mviews.(i) in
        let bit b = if b then 1 else 0 in
        let want =
          ( List.length m.mr + List.length m.rr + bit (m.rng_r <> None),
            List.length m.mw + List.length m.rw + bit (m.rng_w <> None) )
        in
        if Specmem.footprint v <> want then fail "%s: footprint of v%d differs" what i)
      views;
    if
      not
        (Array.for_all2 model_eq mem mmem
        && Array.for_all2 (Option.equal model_eq) regs mregs
        && Int64.equal !rng !mrng
        && String.equal (Buffer.contents out) (Buffer.contents mout))
    then fail "%s: master state differs" what
  in
  List.iter step ops;
  true

let prop_specmem_model =
  QCheck.Test.make ~count:1000 ~name:"specmem agrees with a reference model"
    (QCheck.make
       ~print:(fun (k, addrs, ops) ->
         Printf.sprintf "%d views, addresses [%s]: %s" k
           (String.concat "; " (Array.to_list (Array.map string_of_int addrs)))
           (String.concat "; " (List.map string_of_model_op ops)))
       gen_model_case)
    run_model_case

(* more registers and addresses than a 16-bit index can number *)
let test_specmem_wide_indices () =
  let n = 70_000 in
  let mem = Array.init n vi and regs = Array.init n (fun i -> Some (vi i)) in
  let master =
    {
      Specmem.m_mem = mem;
      m_regs = regs;
      m_rng_get = (fun () -> 0L);
      m_rng_set = ignore;
      m_out = Buffer.create 16;
    }
  in
  let v = Specmem.create master in
  let mio = Specmem.memio v and rio = Specmem.regio v in
  for i = 0 to n - 1 do
    ignore (rio.Interp.rio_get (var i));
    ignore (mio.Interp.mio_load i)
  done;
  for i = 0 to n - 1 do
    if i land 1 = 1 then begin
      rio.Interp.rio_set (var i) (vi (-i));
      mio.Interp.mio_store i (vi (-i))
    end
  done;
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    let want = if i land 1 = 1 then vi (-i) else vi i in
    if rio.Interp.rio_get (var i) <> Some want then incr wrong;
    if mio.Interp.mio_load i <> want then incr wrong
  done;
  Alcotest.(check int) "every read sees its own entry" 0 !wrong;
  Alcotest.(check (pair int int)) "footprint" (2 * n, n) (Specmem.footprint v);
  regs.(n - 1) <- Some (vi 0);
  Alcotest.(check string) "stale last register"
    (Printf.sprintf "reg %%%d changed under speculation" (n - 1))
    (stale_text v);
  regs.(n - 1) <- Some (vi (n - 1));
  mem.(n - 2) <- vi 0;
  Alcotest.(check string) "stale address"
    (Printf.sprintf "mem[%d] changed under speculation" (n - 2))
    (stale_text v);
  mem.(n - 2) <- vi (n - 2);
  Alcotest.(check string) "clean" "ok" (stale_text v);
  Specmem.commit v;
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    let want = if i land 1 = 1 then vi (-i) else vi i in
    if regs.(i) <> Some want then incr wrong;
    if mem.(i) <> want then incr wrong
  done;
  Alcotest.(check int) "master holds every committed write" 0 !wrong

(* A chunk view of the size the suite's loops produce (twolf logs about
   160 first reads over 318 registers) must be built from blocks the
   minor heap holds: words allocated straight onto the major heap are
   major words not accounted for by promotion. *)
let test_specmem_minor_heap () =
  let nregs = 318 in
  let master =
    {
      Specmem.m_mem = Array.init 256 vi;
      m_regs = Array.init nregs (fun i -> Some (vi i));
      m_rng_get = (fun () -> 0L);
      m_rng_set = ignore;
      m_out = Buffer.create 16;
    }
  in
  let vars = Array.init nregs var and x = vi 1 in
  let _, promoted0, major0 = Gc.counters () in
  let v = Specmem.create master in
  let mio = Specmem.memio v and rio = Specmem.regio v in
  for a = 0 to 159 do ignore (mio.Interp.mio_load a) done;
  for a = 160 to 191 do mio.Interp.mio_store a x done;
  for r = 0 to 64 do ignore (rio.Interp.rio_get vars.(r)) done;
  for r = 65 to 96 do rio.Interp.rio_set vars.(r) x done;
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check (pair int int)) "view filled" (225, 64) (Specmem.footprint v);
  Alcotest.(check (float 0.0)) "words allocated directly on the major heap" 0.0
    (major1 -. promoted1 -. (major0 -. promoted0))

(* ------------------------------------------------------------------ *)
(* Whole-program speculation *)

(* the scatter-update loop of examples/src/histogram.c: selected for
   SPT under the best config, with a genuine (profiled-rare,
   dynamically-real) cross-iteration dependence through [table] — the
   misspeculation stress case *)
let stress_src =
  {|
int n = 30000;
int table[8192];
int keys[30000];
int checksum;

void main() {
  int i;
  srand(99);
  for (i = 0; i < n; i = i + 1) { keys[i] = rand() & 8191; }
  for (i = 0; i < 8192; i = i + 1) { table[i] = i; }
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int k = keys[i];
    int v = table[k];
    table[k] = v * 2 + (k & 7) + 1;
    acc = acc + (v & 15);
  }
  checksum = acc + table[0] + table[8191];
  print_int(checksum);
}
|}

let rt_config ?(despec_after = 3) ?chunk ?depth ?timeline jobs =
  {
    Runtime.jobs;
    window = 2 * jobs;
    despec_after;
    spec_fuel = 2_000_000;
    max_steps = 200_000_000;
    oracle = true;
    chunk;
    depth;
    timeline;
  }

let run_spt ?despec_after ?chunk ?depth ~jobs
    (spt : Pipeline.spt_compilation) =
  Runtime.run
    ~config:(rt_config ?despec_after ?chunk ?depth jobs)
    ~loops:(Pipeline.loop_specs spt) spt.Pipeline.program

let check_oracle name (r : Runtime.result) =
  match r.Runtime.oracle with
  | `Match -> ()
  | `Mismatch m -> Alcotest.fail (Printf.sprintf "%s: oracle: %s" name m)
  | `Skipped -> Alcotest.fail (name ^ ": oracle unexpectedly skipped")

let total f stats = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats

let test_stress_misspeculates_and_matches () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  Alcotest.(check bool) "stress loop selected" true
    (List.length spt.Pipeline.spt_loops >= 1);
  (* a huge valve threshold so misspeculations keep accumulating *)
  let r = run_spt ~despec_after:1_000_000 ~jobs:2 spt in
  check_oracle "stress" r;
  let misspecs =
    total (fun s -> s.Runtime.violations + s.Runtime.faults) r.Runtime.stats
  in
  Alcotest.(check bool) "misspeculation actually happened" true (misspecs > 0);
  Alcotest.(check bool) "and was recovered serially" true
    (total (fun s -> s.Runtime.serial_reexecs) r.Runtime.stats = misspecs)

let test_despeculation_valve () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r = run_spt ~despec_after:2 ~jobs:2 spt in
  check_oracle "valve" r;
  Alcotest.(check bool) "valve tripped" true
    (total (fun s -> s.Runtime.despecs) r.Runtime.stats >= 1);
  (* after the valve, the loop runs sequentially: speculation stops, so
     far fewer forks than the 30000 iterations *)
  Alcotest.(check bool) "speculation stopped" true
    (total (fun s -> s.Runtime.forks) r.Runtime.stats < 1000)

let test_commits_happen () =
  (* a clean parallel loop: every fork should commit *)
  let src =
    {|
int n = 5000;
int a[5000];
int b[5000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; }
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    int y = x * x + 7;
    b[i] = y - (x & 31);
    s = s + (y & 3);
  }
  print_int(s + b[0] + b[4999]);
}
|}
  in
  let spt = Pipeline.compile_spt Config.best src in
  let r = run_spt ~jobs:2 spt in
  check_oracle "clean loop" r;
  (* commits count chunks (one validation per chunk of ~20 iterations),
     and iters count *unrolled* iterations: the 5000-trip source loops
     are unrolled 8x, so a fully speculated loop retires 625.  The init
     loop is genuinely independent and must speculate its whole trip
     without a single violation; the compute loop carries an accumulator
     through the post-fork region, which backbone prediction cannot
     supply — the runtime value predictor learns its chunk stride after
     the first violations and keeps it speculative (test_depth.ml pins
     despecs = 0 for exactly this shape). *)
  let commits = total (fun s -> s.Runtime.commits) r.Runtime.stats in
  Alcotest.(check bool) "speculation commits" true (commits > 10);
  let clean_full =
    List.exists
      (fun (_, s) -> s.Runtime.violations = 0 && s.Runtime.iters >= 600)
      r.Runtime.stats
  in
  Alcotest.(check bool) "independent loop fully speculated" true clean_full

let test_forced_chunk () =
  (* forced chunk sizes must agree with the default run
     observable-for-observable, and record the forced size *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let base = run_spt ~jobs:2 spt in
  check_oracle "chunk base" base;
  List.iter
    (fun chunk ->
      let r = run_spt ~chunk ~jobs:2 spt in
      check_oracle (Printf.sprintf "chunk%d" chunk) r;
      Alcotest.(check string) "same output" base.Runtime.output r.Runtime.output;
      Alcotest.(check string) "same heap" (Lazy.force base.Runtime.heap_digest)
        (Lazy.force r.Runtime.heap_digest);
      List.iter
        (fun (_, (s : Runtime.loop_stats)) ->
          Alcotest.(check int) "forced chunk recorded" chunk s.Runtime.chunk)
        r.Runtime.stats)
    [ 1; 64 ]

let test_workload_equivalence () =
  (* the headline criterion: every workload, jobs ∈ {1, 2, 4},
     byte-identical output (the oracle also compares the final heap) *)
  List.iter
    (fun (w : Suite.workload) ->
      let spt = Pipeline.compile_spt Config.best w.Suite.source in
      List.iter
        (fun jobs ->
          let r = run_spt ~jobs spt in
          check_oracle (Printf.sprintf "%s/j%d" w.Suite.name jobs) r)
        [ 1; 2; 4 ])
    Suite.all

let test_outcome_determinism () =
  (* identical output and final heap across repeated parallel runs,
     even for the misspeculating stress program *)
  let spt = Pipeline.compile_spt Config.best stress_src in
  let r1 = run_spt ~jobs:4 spt in
  let r2 = run_spt ~jobs:4 spt in
  Alcotest.(check string) "same output" r1.Runtime.output r2.Runtime.output;
  Alcotest.(check string) "same final heap" (Lazy.force r1.Runtime.heap_digest)
    (Lazy.force r2.Runtime.heap_digest);
  check_oracle "determinism run 1" r1;
  check_oracle "determinism run 2" r2

let test_run_parallel_measures () =
  let pr =
    Pipeline.run_parallel ~config:Config.best
      ~runtime_config:(Runtime.default_config ~jobs:2 ())
      stress_src
  in
  Alcotest.(check int) "jobs recorded" 2 pr.Pipeline.pr_jobs;
  Alcotest.(check bool) "speedup positive" true
    (pr.Pipeline.pr_measured_speedup > 0.0);
  Alcotest.(check bool) "runtime stats present" true
    (pr.Pipeline.pr_n_loops >= 1);
  (* and the metrics report carries the runtime counters *)
  let json =
    Spt_driver.Report.metrics_json
      ~parallel:[ ("stress", pr.Pipeline.pr_runtime) ]
      []
  in
  let s = Spt_obs.Json.to_string json in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in report") true (contains s key))
    [ "forks"; "commits"; "kills"; "violations"; "despeculations"; "runtime" ]

(* ------------------------------------------------------------------ *)
(* Rounds: inline head chunks on the sequential thread *)

(* The planner balances the master's share of a round (m inline chunks
   plus a fill, a validation and a commit per worker chunk) against the
   workers' (ceil(K / workers) chunk executions).  Costs are seconds per
   chunk. *)
let test_plan_inline_table () =
  let plan ?(fill = 0.05) ?(resolve = 0.02) ?(workers = 1) ~inline ~exec depth =
    Runtime.plan_inline ~inline ~fill ~exec ~resolve ~workers ~depth
  in
  List.iter
    (fun (label, want, got) -> Alcotest.(check int) label want got)
    [
      (* a worker 3x slower than the master: the master runs 2-3 chunks
         in the time the worker runs one *)
      ("slow worker, depth 1", 3, plan ~inline:1.0 ~exec:3.0 1);
      ("slow worker, depth 2", 6, plan ~inline:1.0 ~exec:3.0 2);
      ("slow worker, two workers, depth 2", 3,
        plan ~workers:2 ~inline:1.0 ~exec:3.0 2);
      (* a worker as fast as the master, or faster: one inline chunk *)
      ("equal worker", 1, plan ~inline:1.0 ~exec:1.0 1);
      ("fast worker", 1, plan ~inline:1.0 ~exec:0.5 1);
      ("fast workers", 1, plan ~workers:4 ~inline:1.0 ~exec:0.5 4);
      (* one fast worker behind four chunks is slow per round *)
      ("fast worker, depth 4", 2, plan ~inline:1.0 ~exec:0.5 4);
      (* unmeasured costs *)
      ("no inline sample", 1, plan ~inline:0.0 ~exec:3.0 2);
      ("no worker sample", 1, plan ~inline:1.0 ~exec:0.0 2);
      (* an absurdly slow worker: the bound keeps every round speculating *)
      ("bounded, depth 1", 4, plan ~inline:1.0 ~exec:1000.0 1);
      ("bounded, depth 4", 16, plan ~inline:1.0 ~exec:1000.0 4);
    ];
  let costs = [ 0.0; 1e-6; 0.5; 1.0; 2.5; 10.0; 1e6 ] in
  List.iter
    (fun depth ->
      List.iter
        (fun workers ->
          List.iter
            (fun inline ->
              List.iter
                (fun exec ->
                  List.iter
                    (fun fill ->
                      let m =
                        Runtime.plan_inline ~inline ~fill ~exec ~resolve:fill
                          ~workers ~depth
                      in
                      if m < 1 || m > 4 * depth then
                        Alcotest.failf
                          "m = %d out of [1, %d] (inline %g exec %g fill %g \
                           workers %d)"
                          m (4 * depth) inline exec fill workers)
                    costs)
                costs)
            costs)
        [ 1; 2; 3; 8 ])
    [ 1; 2; 4; 8 ]

let clean_src =
  {|
int n = 6000;
int a[6000];
int b[6000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 7 + 3; }
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    b[i] = x * x - (x & 15);
  }
  print_int(b[0] + b[2999] + b[5999]);
}
|}

let test_rounds_run_inline () =
  let spt = Pipeline.compile_spt Config.best clean_src in
  List.iter
    (fun jobs ->
      let r = run_spt ~jobs spt in
      let name = Printf.sprintf "clean j%d" jobs in
      check_oracle name r;
      Alcotest.(check bool)
        (name ^ ": the master ran head chunks") true
        (total (fun s -> s.Runtime.inline) r.Runtime.stats > 0);
      Alcotest.(check bool)
        (name ^ ": workers ran chunks") true
        (total (fun s -> s.Runtime.forks) r.Runtime.stats > 0);
      Alcotest.(check int)
        (name ^ ": one core left to the master")
        (Runtime.workers_for jobs) r.Runtime.workers)
    [ 1; 2; 4 ]

(* [hist] cells recur every 64 iterations, so consecutive chunks always
   share cells: the inline head writes them while the workers read
   them.  Consecutive iterations never share one, which is what gets
   the loop selected. *)
let dependent_src =
  {|
int n = 4000;
int a[4000];
int hist[64];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = (i * 7) & 63; }
  for (i = 0; i < n; i = i + 1) {
    int k = a[i];
    hist[k] = hist[k] * 3 + i;
  }
  int s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + (hist[i] & 1023); }
  print_int(s);
}
|}

let test_inline_head_races_workers () =
  let spt = Pipeline.compile_spt Config.best dependent_src in
  Alcotest.(check bool) "dependent loop selected" true
    (List.length spt.Pipeline.spt_loops >= 2);
  let seq =
    Runtime.run ~config:(rt_config 2) ~loops:[] spt.Pipeline.program
  in
  List.iter
    (fun jobs ->
      let r = run_spt ~despec_after:1_000_000 ~jobs spt in
      let name = Printf.sprintf "dependent j%d" jobs in
      check_oracle name r;
      Alcotest.(check string) (name ^ ": output") seq.Runtime.output
        r.Runtime.output;
      Alcotest.(check string) (name ^ ": heap")
        (Lazy.force seq.Runtime.heap_digest)
        (Lazy.force r.Runtime.heap_digest);
      Alcotest.(check bool) (name ^ ": inline and worker chunks") true
        (total (fun s -> s.Runtime.inline) r.Runtime.stats > 0
        && total (fun s -> s.Runtime.forks) r.Runtime.stats > 0))
    [ 1; 2; 4 ]

let test_no_loops_no_workers () =
  let spt = Pipeline.compile_spt Config.best stress_src in
  let timeline = Spt_obs.Timeline.create () in
  let r =
    Runtime.run ~config:(rt_config ~timeline 4) ~loops:[] spt.Pipeline.program
  in
  check_oracle "no loops" r;
  Alcotest.(check int) "no worker started" 0 r.Runtime.workers;
  Alcotest.(check int) "only the sequential thread's lane" 1
    (List.length (Spt_obs.Timeline.summary timeline))

(* The inner loop is entered once per time step, each entry after a
   stretch of sequential work on [a] (a loop carrying [seed], which the
   compiler does not speculate). *)
let reentry_src =
  {|
int n = 3000;
int a[3000];
int b[3000];
int seed;
void main() {
  int t;
  int i;
  int j;
  int s = 0;
  seed = 7;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 5 + 1; }
  for (t = 0; t < 12; t = t + 1) {
    for (i = 0; i < n; i = i + 1) {
      int x = a[i] + t;
      b[i] = x * x - (x & 15);
    }
    for (j = 0; j < 3000; j = j + 1) {
      seed = (seed * 75 + 74) % 65537;
      a[seed % n] = a[seed % n] + (seed & 7);
    }
    s = s + b[t] + b[n - 1 - t];
  }
  print_int(s + seed);
}
|}

let test_reentered_loop_keeps_pool () =
  let spt = Pipeline.compile_spt Config.best reentry_src in
  Alcotest.(check int) "init and inner loops selected" 2
    (List.length spt.Pipeline.spt_loops);
  List.iter
    (fun jobs ->
      let timeline = Spt_obs.Timeline.create () in
      let r =
        Runtime.run
          ~config:(rt_config ~timeline jobs)
          ~loops:(Pipeline.loop_specs spt) spt.Pipeline.program
      in
      let name = Printf.sprintf "reentry j%d" jobs in
      check_oracle name r;
      (* the inner loop retired its trip once per time step, the init
         loop once *)
      let iters = List.map (fun (_, s) -> s.Runtime.iters) r.Runtime.stats in
      Alcotest.(check bool)
        (name ^ ": the inner loop speculated in every time step") true
        (List.fold_left max 0 iters >= 10 * List.fold_left min max_int iters);
      Alcotest.(check int) (name ^ ": one pool") (Runtime.workers_for jobs)
        r.Runtime.workers;
      Alcotest.(check int)
        (name ^ ": one lane per worker, plus the sequential thread's")
        (r.Runtime.workers + 1)
        (List.length (Spt_obs.Timeline.summary timeline)))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "pool runs jobs" `Quick test_pool_runs_jobs;
    Alcotest.test_case "pool survives exceptions" `Quick
      test_pool_survives_exceptions;
    Alcotest.test_case "specmem buffering" `Quick test_specmem_buffering;
    Alcotest.test_case "specmem violation + rollback" `Quick
      test_specmem_violation_rollback;
    Alcotest.test_case "specmem view chain" `Quick test_specmem_chain;
    Alcotest.test_case "specmem rng + floats" `Quick
      test_specmem_rng_and_floats;
    Alcotest.test_case "specmem write after kill" `Quick
      test_specmem_write_after_kill;
    Alcotest.test_case "specmem double rollback" `Quick
      test_specmem_double_rollback;
    Alcotest.test_case "specmem empty commit" `Quick test_specmem_empty_commit;
    Alcotest.test_case "specmem validate empty read log" `Quick
      test_specmem_validate_empty_read_log;
    Alcotest.test_case "specmem first stale read reported" `Quick
      test_specmem_first_stale_order;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_specmem_model;
    Alcotest.test_case "specmem 70,000 registers" `Quick
      test_specmem_wide_indices;
    Alcotest.test_case "specmem view stays in the minor heap" `Quick
      test_specmem_minor_heap;
    Alcotest.test_case "stress misspeculates, still matches" `Slow
      test_stress_misspeculates_and_matches;
    Alcotest.test_case "despeculation valve" `Slow test_despeculation_valve;
    Alcotest.test_case "clean loop commits" `Slow test_commits_happen;
    Alcotest.test_case "forced chunk equivalence" `Slow test_forced_chunk;
    Alcotest.test_case "workload equivalence x jobs {1,2,4}" `Slow
      test_workload_equivalence;
    Alcotest.test_case "outcome determinism" `Slow test_outcome_determinism;
    Alcotest.test_case "run_parallel measures" `Slow test_run_parallel_measures;
    Alcotest.test_case "round planner table" `Quick test_plan_inline_table;
    Alcotest.test_case "rounds run head chunks inline" `Slow
      test_rounds_run_inline;
    Alcotest.test_case "inline head races workers" `Slow
      test_inline_head_races_workers;
    Alcotest.test_case "no loops, no worker domain" `Slow
      test_no_loops_no_workers;
    Alcotest.test_case "re-entered loop keeps one pool" `Slow
      test_reentered_loop_keeps_pool;
  ]
