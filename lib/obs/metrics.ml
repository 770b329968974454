type counter = { mutable c : int }
type gauge = { mutable g : float }

(* ------------------------------------------------------------------ *)
(* Fixed-bucket latency histograms with quantile estimation.

   96 log-spaced buckets, 8 per decade, covering 1e-9 .. 1e3 seconds —
   every latency this system can produce, from a nanosecond-scale
   dispatch sample to a CI-length batch.  A bucket index is one log10
   and one floor; quantiles walk the cumulative counts and interpolate
   geometrically inside the landing bucket, clamped to the observed
   min/max so a single observation reports itself exactly. *)

module Hist = struct
  let n_buckets = 96
  let per_decade = 8
  let min_exp = -9.0 (* bucket 0 starts at 1e-9 *)

  type t = {
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
    buckets : int array;
  }

  let create () =
    {
      n = 0;
      sum = 0.0;
      mn = infinity;
      mx = neg_infinity;
      buckets = Array.make n_buckets 0;
    }

  let reset h =
    h.n <- 0;
    h.sum <- 0.0;
    h.mn <- infinity;
    h.mx <- neg_infinity;
    Array.fill h.buckets 0 n_buckets 0

  let bucket_of x =
    if x <= 0.0 then 0
    else begin
      let i =
        int_of_float
          (Float.floor ((Float.log10 x -. min_exp) *. float_of_int per_decade))
      in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  (* lower bound of bucket [i]; the upper bound is [bound (i + 1)] *)
  let bound i = 10.0 ** (min_exp +. (float_of_int i /. float_of_int per_decade))

  let observe h x =
    h.n <- h.n + 1;
    h.sum <- h.sum +. x;
    if x < h.mn then h.mn <- x;
    if x > h.mx then h.mx <- x;
    let i = bucket_of x in
    h.buckets.(i) <- h.buckets.(i) + 1

  let count h = h.n
  let sum h = h.sum
  let min_value h = if h.n = 0 then 0.0 else h.mn
  let max_value h = if h.n = 0 then 0.0 else h.mx
  let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

  let percentile h q =
    if h.n = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int h.n in
      let rec walk i cum =
        if i >= n_buckets then h.mx
        else begin
          let c = h.buckets.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= target then begin
            (* geometric interpolation inside the log-spaced bucket *)
            let f = (target -. cum) /. float_of_int c in
            let lo = bound i and hi = bound (i + 1) in
            lo *. ((hi /. lo) ** f)
          end
          else walk (i + 1) cum'
        end
      in
      let v = walk 0 0.0 in
      Float.max h.mn (Float.min h.mx v)
    end

  let to_json h =
    Json.Obj
      [
        ("count", Json.Int h.n);
        ("sum", Json.Float h.sum);
        ("min", Json.Float (min_value h));
        ("max", Json.Float (max_value h));
        ("mean", Json.Float (mean h));
        ("p50", Json.Float (percentile h 0.50));
        ("p95", Json.Float (percentile h 0.95));
        ("p99", Json.Float (percentile h 0.99));
      ]
end

type histogram = Hist.t
type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let on = ref false
let set_enabled b = on := b
let enabled () = !on

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (C c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace registry name (C c);
    c

let gauge name =
  match Hashtbl.find_opt registry name with
  | Some (G g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)
  | None ->
    let g = { g = 0.0 } in
    Hashtbl.replace registry name (G g);
    g

let histogram name =
  match Hashtbl.find_opt registry name with
  | Some (H h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)
  | None ->
    let h = Hist.create () in
    Hashtbl.replace registry name (H h);
    h

let inc c = if !on then c.c <- c.c + 1
let add c n = if !on then c.c <- c.c + n
let set g x = if !on then g.g <- x
let observe h x = if !on then Hist.observe h x

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { hcount : int; hsum : float; hmin : float; hmax : float }

let value_of = function
  | C c -> Counter c.c
  | G g -> Gauge g.g
  | H h ->
    Histogram { hcount = h.Hist.n; hsum = h.Hist.sum; hmin = h.Hist.mn; hmax = h.Hist.mx }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let get name = Option.map value_of (Hashtbl.find_opt registry name)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h -> Hist.reset h)
    registry

let to_json () =
  Json.Obj
    (Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, m) ->
           ( name,
             match m with
             | C c -> Json.Int c.c
             | G g -> Json.Float g.g
             | H h -> Hist.to_json h )))

(* ------------------------------------------------------------------ *)
(* Snapshot/delta: per-job metric isolation.

   Counters and histogram count/sum subtract; gauges report their
   current level (a delta of a level is meaningless); histogram
   min/max/percentiles are not recoverable for a window, so a delta
   renders only what subtraction preserves. *)

let since = snapshot

let delta_json base =
  let base_of name = List.assoc_opt name base in
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match (v, base_of name) with
           | Counter c, Some (Counter c0) -> Json.Int (c - c0)
           | Counter c, _ -> Json.Int c
           | Gauge g, _ -> Json.Float g
           | Histogram { hcount; hsum; _ }, Some (Histogram b) ->
             let dc = hcount - b.hcount and ds = hsum -. b.hsum in
             Json.Obj
               [
                 ("count", Json.Int dc);
                 ("sum", Json.Float ds);
                 ( "mean",
                   Json.Float (if dc = 0 then 0.0 else ds /. float_of_int dc)
                 );
               ]
           | Histogram { hcount; hsum; _ }, _ ->
             Json.Obj
               [
                 ("count", Json.Int hcount);
                 ("sum", Json.Float hsum);
                 ( "mean",
                   Json.Float
                     (if hcount = 0 then 0.0
                      else hsum /. float_of_int hcount) );
               ] ))
       (snapshot ()))
