module Interp = Spt_interp.Interp
module Eval = Spt_ir.Eval

type master = {
  m_mem : Interp.value array;
  m_regs : Interp.value option array;
  m_rng_get : unit -> int64;
  m_rng_set : int64 -> unit;
  m_out : Buffer.t;
}

(* Layout.  Every speculative access lands here, so no access goes
   through a generic hash table or builds a closure, and only a log
   growing or a register write (its option box) allocates.  Memory and
   registers each keep an insertion-ordered log of entries — key, first
   value read, last value written — reached through an index of entry
   numbers: open-addressed (Fibonacci hash, linear probing, at most 3/4
   full) for element addresses, direct by vid for registers.  An entry
   is created by the first access to its key, and a read is logged only
   when that access is a read (a key written first reads its own
   write), so the entries that carry a read are in first-read order:
   [validate] walks them in that order and reports the earliest stale
   one.

   Indices pack entry numbers two bytes wide (four only when a table
   could outgrow 16 bits), and entry arrays start small and grow by
   half, so a chunk's view is a handful of blocks of at most 256 words,
   which the minor heap holds: views are short-lived, and a block
   allocated straight onto the major heap is left for the major GC to
   mark and sweep even when its view dies young. *)

(* The view's life cycle, in one atomic word: chain walks read it on
   every hop. *)
let live = 0
let committed = 1
let rolled_back = 2

(* "no value" in a memory entry: a private block no execution can
   produce, compared physically *)
let absent : Interp.value = Eval.Vi (Sys.opaque_identity 0L)

type view = {
  parent : view option;
  master : master;
  state : int Atomic.t;
  (* memory: hashed index -> entries *)
  mutable mix : Bytes.t;
  mutable mwide : bool;
  mutable mmask : int;  (* index capacity - 1; -1 before the first entry *)
  mutable mshift : int;  (* 63 - log2 capacity *)
  mutable mkeys : int array;
  mutable mrd : Interp.value array;  (* [absent]: not read *)
  mutable mwr : Interp.value array;  (* [absent]: not written *)
  mutable mlen : int;
  (* registers: vid -> entries, sized from the master's register file
     on the first entry *)
  mutable rn : int;  (* vids the index covers; 0 before the first entry *)
  mutable rwide : bool;
  mutable rix : Bytes.t;
  mutable rvid : int array;
  mutable rrd : Interp.value option array;  (* [None]: not read *)
  mutable rwr : Interp.value option array;  (* [None]: not written *)
  mutable rlen : int;
  (* the RNG: first LCG state observed, last LCG state written *)
  mutable rng_seen : bool;
  mutable rng_r : int64;
  mutable rng_written : bool;
  mutable rng_w : int64;
  mutable reads : int;  (* logged reads: memory + registers + RNG *)
  mutable writes : int;  (* buffered writes, likewise *)
  mutable vout : string list;  (* buffered output, newest first *)
}

let create ?parent master =
  {
    parent;
    master;
    state = Atomic.make live;
    mix = Bytes.empty;
    mwide = false;
    mmask = -1;
    mshift = 63;
    mkeys = [||];
    mrd = [||];
    mwr = [||];
    mlen = 0;
    rn = 0;
    rwide = false;
    rix = Bytes.empty;
    rvid = [||];
    rrd = [||];
    rwr = [||];
    rlen = 0;
    rng_seen = false;
    rng_r = 0L;
    rng_written = false;
    rng_w = 0L;
    reads = 0;
    writes = 0;
    vout = [];
  }

let is_committed v = Atomic.get v.state = committed
let is_rolled_back v = Atomic.get v.state = rolled_back

(* Killing a view only flips its state: the kill may race with an
   abandoned worker still executing into the view, so the buffers are
   left for the GC rather than cleared under its feet.  Idempotent. *)
let rollback v =
  if Atomic.get v.state = committed then
    invalid_arg "Specmem.rollback: view already committed";
  Atomic.set v.state rolled_back

let value_eq a b =
  match (a, b) with
  | Eval.Vi x, Eval.Vi y -> Int64.equal x y
  | Eval.Vf x, Eval.Vf y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Packed indices: entry number + 1 per slot, 0 = empty *)

let ix_make n wide = Bytes.make (if wide then n lsl 2 else n lsl 1) '\000'

let ix_get ix wide i =
  if wide then Int32.to_int (Bytes.get_int32_ne ix (i lsl 2))
  else Bytes.get_uint16_ne ix (i lsl 1)

let ix_set ix wide i e =
  if wide then Bytes.set_int32_ne ix (i lsl 2) (Int32.of_int e)
  else Bytes.set_uint16_ne ix (i lsl 1) e

(* Entry arrays grow by half while they fit the minor heap's 256-word
   limit, then double: doubling all the way leaves a third of a grown
   view unused on average, and the slack is promoted with the view. *)
let grown n = if n < 256 then Int.min 256 (Int.max 8 (n + (n / 2))) else 2 * n

(* ------------------------------------------------------------------ *)
(* Memory entries *)

(* Fibonacci hashing: the top log2-capacity bits of [a * fib], fib odd
   and close to 2^63 / golden ratio, spread runs and strides alike *)
let fib = 0x4F1BBCDCBFA53E0B
let mem_hash v a = (a * fib) lsr v.mshift
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let rec mem_probe v a h =
  match ix_get v.mix v.mwide h with
  | 0 -> -1
  | e -> if v.mkeys.(e - 1) = a then e - 1 else mem_probe v a ((h + 1) land v.mmask)

(* entry number of address [a], or -1 *)
let mem_find v a = if v.mlen = 0 then -1 else mem_probe v a (mem_hash v a)

let rec mem_place v h e =
  if ix_get v.mix v.mwide h = 0 then ix_set v.mix v.mwide h (e + 1)
  else mem_place v ((h + 1) land v.mmask) e

let mem_add v a ~rd ~wr =
  let e = v.mlen in
  if e = Array.length v.mkeys then begin
    let cap = grown e in
    let keys = Array.make cap 0 in
    let r = Array.make cap absent and w = Array.make cap absent in
    Array.blit v.mkeys 0 keys 0 e;
    Array.blit v.mrd 0 r 0 e;
    Array.blit v.mwr 0 w 0 e;
    v.mkeys <- keys;
    v.mrd <- r;
    v.mwr <- w
  end;
  v.mkeys.(e) <- a;
  v.mrd.(e) <- rd;
  v.mwr.(e) <- wr;
  v.mlen <- e + 1;
  if 4 * (e + 1) > 3 * (v.mmask + 1) then begin
    (* grow the index past 3/4 load and re-place every entry, this one
       included *)
    let cap = Int.max 16 (2 * (v.mmask + 1)) in
    v.mwide <- cap > 65536;
    v.mix <- ix_make cap v.mwide;
    v.mmask <- cap - 1;
    v.mshift <- 63 - log2 cap;
    for i = 0 to e do
      mem_place v (mem_hash v v.mkeys.(i)) i
    done
  end
  else mem_place v (mem_hash v a) e

(* ------------------------------------------------------------------ *)
(* Register entries *)

(* entry number of register [vid], or -1 *)
let reg_find v vid = if vid < v.rn then ix_get v.rix v.rwide vid - 1 else -1

let reg_add v vid ~rd ~wr =
  if v.rn = 0 then begin
    let n = Array.length v.master.m_regs in
    v.rwide <- n > 65535;
    v.rix <- ix_make n v.rwide;
    v.rn <- n
  end;
  let e = v.rlen in
  (* an out-of-range vid raises here, before anything is logged *)
  ix_set v.rix v.rwide vid (e + 1);
  if e = Array.length v.rvid then begin
    let cap = grown e in
    let vids = Array.make cap 0 in
    let r = Array.make cap None and w = Array.make cap None in
    Array.blit v.rvid 0 vids 0 e;
    Array.blit v.rrd 0 r 0 e;
    Array.blit v.rwr 0 w 0 e;
    v.rvid <- vids;
    v.rrd <- r;
    v.rwr <- w
  end;
  v.rvid.(e) <- vid;
  v.rrd.(e) <- rd;
  v.rwr.(e) <- wr;
  v.rlen <- e + 1

(* ------------------------------------------------------------------ *)
(* Resolution: own writes → own read log → uncommitted ancestors → master *)

(* Walk uncommitted ancestors for a buffered value.  Ancestor logs are
   immutable once the ancestor task finished (views chain only through
   completed pre-fork tasks), and the committed state is set with
   release ordering after the master writes, so a committed ancestor
   means the master already holds its values — and those of every
   earlier ancestor, which committed first.  A killed ancestor's
   buffered writes are void, but earlier ancestors may still hold live
   uncommitted values. *)
let rec chain_mem p a =
  match p with
  | None -> absent
  | Some p ->
    let s = Atomic.get p.state in
    if s = committed then absent
    else if s = rolled_back then chain_mem p.parent a
    else
      let e = mem_find p a in
      if e >= 0 && p.mwr.(e) != absent then p.mwr.(e) else chain_mem p.parent a

let rec chain_reg p vid =
  match p with
  | None -> None
  | Some p ->
    let s = Atomic.get p.state in
    if s = committed then None
    else if s = rolled_back then chain_reg p.parent vid
    else
      let e = reg_find p vid in
      match if e >= 0 then p.rwr.(e) else None with
      | Some _ as x -> x
      | None -> chain_reg p.parent vid

(* the nearest live ancestor that wrote the RNG, as its own option *)
let rec chain_rng p =
  match p with
  | None -> None
  | Some a ->
    let s = Atomic.get a.state in
    if s = committed then None
    else if s = live && a.rng_written then p
    else chain_rng a.parent

let mem_load v a =
  let e = mem_find v a in
  if e >= 0 then
    let w = v.mwr.(e) in
    if w != absent then w else v.mrd.(e) (* repeat reads see the first *)
  else begin
    let x = chain_mem v.parent a in
    (* racy but memory-safe; validated *)
    let x = if x != absent then x else v.master.m_mem.(a) in
    mem_add v a ~rd:x ~wr:absent;
    v.reads <- v.reads + 1;
    x
  end

(* writes after a kill are dropped: the task is dead, and nothing may
   repopulate a buffer the commit path will never drain *)
let mem_store v a x =
  if Atomic.get v.state <> rolled_back then begin
    let e = mem_find v a in
    if e < 0 then begin
      mem_add v a ~rd:absent ~wr:x;
      v.writes <- v.writes + 1
    end
    else begin
      if v.mwr.(e) == absent then v.writes <- v.writes + 1;
      v.mwr.(e) <- x
    end
  end

let reg_get v (var : Spt_ir.Ir.var) =
  let vid = var.Spt_ir.Ir.vid in
  let e = reg_find v vid in
  if e >= 0 then match v.rwr.(e) with Some _ as x -> x | None -> v.rrd.(e)
  else
    let x =
      match chain_reg v.parent vid with
      | Some _ as x -> x
      | None -> v.master.m_regs.(vid)
    in
    (* an uninitialized register is not logged: the task will fault and
       be re-executed serially *)
    (match x with
    | Some _ ->
      reg_add v vid ~rd:x ~wr:None;
      v.reads <- v.reads + 1
    | None -> ());
    x

(* [x] is boxed once per write: reads hand the box out as is, and
   commit stores it into the master's register file *)
let reg_write v vid x =
  if Atomic.get v.state <> rolled_back then begin
    let e = reg_find v vid in
    if e < 0 then begin
      reg_add v vid ~rd:None ~wr:x;
      v.writes <- v.writes + 1
    end
    else begin
      (match v.rwr.(e) with None -> v.writes <- v.writes + 1 | Some _ -> ());
      v.rwr.(e) <- x
    end
  end

let reg_set v (var : Spt_ir.Ir.var) x = reg_write v var.Spt_ir.Ir.vid (Some x)

(* A value-predicted register: written into a predictor (backbone) view
   by raw vid, before the reading chunk spawns, so the chunk's chained
   read observes the prediction instead of the (stale) master value.
   Like any buffered write it is never merged from a sealed view; a
   wrong prediction surfaces as the reader's validation failure. *)
let reg_predict v vid x = reg_write v vid (Some x)

let rng_read v =
  if v.rng_written then v.rng_w
  else if v.rng_seen then v.rng_r
  else begin
    let s =
      match chain_rng v.parent with
      | Some p -> p.rng_w
      | None -> v.master.m_rng_get ()
    in
    v.rng_seen <- true;
    v.rng_r <- s;
    v.reads <- v.reads + 1;
    s
  end

let rng_write v s =
  if Atomic.get v.state <> rolled_back then begin
    if not v.rng_written then v.writes <- v.writes + 1;
    v.rng_written <- true;
    v.rng_w <- s
  end

let memio v =
  {
    Interp.mio_load = mem_load v;
    mio_store = mem_store v;
    mio_rng = (fun () -> rng_read v);
    mio_set_rng = rng_write v;
    mio_print =
      (fun s -> if Atomic.get v.state <> rolled_back then v.vout <- s :: v.vout);
  }

let regio v = { Interp.rio_get = reg_get v; rio_set = reg_set v }

(* ------------------------------------------------------------------ *)
(* Validation and commit *)

type stale =
  | Stale_mem of int  (** element address whose read proved stale *)
  | Stale_reg of int  (** register vid *)
  | Stale_rng

let string_of_stale s =
  (match s with
  | Stale_mem a -> Printf.sprintf "mem[%d]" a
  | Stale_reg vid -> Printf.sprintf "reg %%%d" vid
  | Stale_rng -> "rng")
  ^ " changed under speculation"

(* validation/commit footprint counters; validate and commit run only
   on the sequential thread, so plain registry updates are safe *)
let m_reads_validated = Spt_obs.Metrics.counter "runtime.specmem.reads_validated"
let m_writes_committed = Spt_obs.Metrics.counter "runtime.specmem.writes_committed"

(* the earliest-logged stale read: memory, then registers, then the
   RNG, each in first-read order *)
let validate v =
  Spt_obs.Metrics.add m_reads_validated v.reads;
  let m = v.master in
  let rec mem i =
    if i = v.mlen then regs 0
    else
      let x = v.mrd.(i) and a = v.mkeys.(i) in
      if x == absent || value_eq m.m_mem.(a) x then mem (i + 1)
      else Error (Stale_mem a)
  and regs i =
    if i = v.rlen then rng ()
    else
      match (v.rrd.(i), m.m_regs.(v.rvid.(i))) with
      | None, _ -> regs (i + 1)
      | Some x, Some y when value_eq x y -> regs (i + 1)
      | Some _, _ -> Error (Stale_reg v.rvid.(i))
  and rng () =
    if v.rng_seen && not (Int64.equal v.rng_r (m.m_rng_get ())) then
      Error Stale_rng
    else Ok ()
  in
  mem 0

let commit v =
  if Atomic.get v.state = rolled_back then
    invalid_arg "Specmem.commit: view was rolled back";
  Spt_obs.Metrics.add m_writes_committed v.writes;
  let m = v.master in
  for i = 0 to v.mlen - 1 do
    let x = v.mwr.(i) in
    if x != absent then m.m_mem.(v.mkeys.(i)) <- x
  done;
  for i = 0 to v.rlen - 1 do
    match v.rwr.(i) with Some _ as x -> m.m_regs.(v.rvid.(i)) <- x | None -> ()
  done;
  if v.rng_written then m.m_rng_set v.rng_w;
  List.iter (Buffer.add_string m.m_out) (List.rev v.vout);
  (* release: readers that observe the state observe the writes above *)
  Atomic.set v.state committed

(* A predictor (backbone) view is never merged: the iterations it
   predicted are re-executed — and committed — by the chunk that read
   through it, so once that chunk resolves, master already holds every
   value the view could supply and the chain walk may skip it. *)
let seal v =
  if Atomic.get v.state = rolled_back then
    invalid_arg "Specmem.seal: view was rolled back";
  Atomic.set v.state committed

let footprint v = (v.reads, v.writes)
