(* Shared plumbing: run settings, seeded draws, reference outputs and
   the record a workload returns. *)

module Json = Spt_obs.Json
module Gen = Spt_fuzz.Gen

type settings = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test size: fewer programs, one set-up *)
}

type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
      (** the end-to-end slots: latency_ms, tail_ms, throughput_per_s *)
  named : (string * float * string) list;
      (** the same figures under their per-workload names, with units *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  detail : (string * Json.t) list;  (** extra record for the results file *)
}

let cores = Domain.recommended_domain_count ()
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Seeded draws use the fuzzer's splitmix64 stream, so inputs are the
   same on every platform.  [salt] separates independent streams. *)
let rng ~seed ~salt = Gen.rng_of_seed (Gen.case_seed ~seed ~index:salt)

let shuffle r xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Gen.int_below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The independent reference: the tree interpreter on the untransformed
   front-end program. *)
let reference src = (Spt_interp.Interp.run (Spt_driver.Pipeline.front_end src)).output

let program_dir = Filename.concat "perfbench" "programs"

let read_program file =
  In_channel.with_open_bin (Filename.concat program_dir file) In_channel.input_all

let out_dir = Filename.concat "perfbench" "out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Peak major heap over the measured part: sampled after every
   operation (the heap only shrinks on compaction, so the samples track
   its high-water mark without set-up's transient peaks). *)
let heap_peak = ref 0

let sample_heap () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > !heap_peak then heap_peak := w

let peak_heap_mb () = float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1048576.0

(* Run [op i] for i = 0, 1, ... until [seconds] have passed and at
   least [min_ops] ops ran.  Returns the op count and the elapsed
   time. *)
let measure_loop ~seconds ~min_ops op =
  let t0 = now () in
  let rec go i =
    if i >= min_ops && now () -. t0 >= seconds then i
    else begin
      op i;
      sample_heap ();
      go (i + 1)
    end
  in
  let n = go 0 in
  (n, now () -. t0)

let mean_by f xs = Stat.mean (List.map f xs)

(* (name, median) per program [0 .. np - 1] of the samples [ms k]
   returns for it; programs without samples are skipped *)
let program_medians ~np ~name ms =
  List.filter_map
    (fun k -> match ms k with [] -> None | xs -> Some (name k, Stat.median xs))
    (List.init np Fun.id)

(* tracing overhead: geometric mean over programs of the traced median
   over the untraced median, minus one *)
let overhead ~traced ~untraced =
  Stat.geomean
    (List.filter_map
       (fun (k, t) -> Option.map (fun u -> t /. u) (List.assoc_opt k untraced))
       traced)
  -. 1.0

(* Trace-mode alternation over ops that visit [np] programs round-robin:
   traced and untraced ops interleave under the same conditions (their
   difference is the tracing overhead), and every program gets both
   kinds within two rounds. *)
let traced_op (s : settings) ~np i = s.trace && ((i / np) + (i mod np)) mod 2 = 1
