(** Concurrent batch scheduler — see batch.mli. *)

module Pool = Spt_runtime.Pool

let m_submitted = Spt_obs.Metrics.counter "service.batch.jobs_submitted"
let m_failed = Spt_obs.Metrics.counter "service.batch.jobs_failed"
let m_timed_out = Spt_obs.Metrics.counter "service.batch.jobs_timed_out"
let m_degraded = Spt_obs.Metrics.counter "service.batch.degraded_runs"
let m_clusters = Spt_obs.Metrics.counter "service.batch.clusters"
let g_queue = Spt_obs.Metrics.gauge "service.batch.queue_depth"
let h_latency = Spt_obs.Metrics.histogram "service.batch.job_latency_s"

type 'a outcome = Done of 'a | Failed of string | Timed_out

type stats = {
  jobs : int;
  submitted : int;
  completed : int;
  failed : int;
  timed_out : int;
  clusters : int;
  degraded : bool;
  max_queue_depth : int;
  wall_s : float;
  latency : Spt_obs.Metrics.Hist.t;
}

let default_jobs () =
  match Sys.getenv_opt "SPT_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 2)
  | None -> 2

(* union-find over shared digests: two items whose digest lists
   intersect land in the same cluster (transitively).  Union keeps the
   smaller index as root, so a cluster's root is its earliest member —
   clusters come out ordered by first appearance, members in
   submission order. *)
let cluster items =
  let n = List.length items in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then
      if ri < rj then parent.(rj) <- ri else parent.(ri) <- rj
  in
  let by_digest = Hashtbl.create 16 in
  List.iteri
    (fun i (_, digests) ->
      List.iter
        (fun d ->
          match Hashtbl.find_opt by_digest d with
          | Some j -> union i j
          | None -> Hashtbl.add by_digest d i)
        digests)
    items;
  let arr = Array.of_list (List.map fst items) in
  let members = Array.make (max n 1) [] in
  for i = n - 1 downto 0 do
    let r = find i in
    members.(r) <- i :: members.(r)
  done;
  List.filter_map
    (fun r ->
      match members.(r) with
      | [] -> None
      | ms -> Some (List.map (fun i -> arr.(i)) ms))
    (List.init n Fun.id)

(* runs on a worker domain: measure only — the metrics registry and
   [Hist.t] are not thread-safe, so all observes happen in [finish] on
   the calling domain *)
let timed_run work =
  let t0 = Unix.gettimeofday () in
  let r = try Done (work ()) with e -> Failed (Printexc.to_string e) in
  (r, Unix.gettimeofday () -. t0)

let finish ~jobs ~clusters ~degraded ~max_queue_depth ~t0
    (timed : (_ outcome * float option) array) =
  let latency = Spt_obs.Metrics.Hist.create () in
  Array.iter
    (fun (_, dt) ->
      match dt with
      | Some dt ->
        Spt_obs.Metrics.Hist.observe latency dt;
        Spt_obs.Metrics.observe h_latency dt
      | None -> ())
    timed;
  let results = Array.map fst timed in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
  let failed = count (function Failed _ -> true | _ -> false) in
  let timed_out = count (function Timed_out -> true | _ -> false) in
  Spt_obs.Metrics.add m_failed failed;
  Spt_obs.Metrics.add m_timed_out timed_out;
  ( results,
    {
      jobs;
      submitted = Array.length results;
      completed = count (function Done _ -> true | _ -> false);
      failed;
      timed_out;
      clusters;
      degraded;
      max_queue_depth;
      wall_s = Unix.gettimeofday () -. t0;
      latency;
    } )

let run_clustered ?jobs ?(timeout_s = 600.0) items =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length items in
  let t0 = Unix.gettimeofday () in
  Spt_obs.Metrics.add m_submitted n;
  let indexed = List.mapi (fun i (work, digests) -> ((i, work), digests)) items in
  let groups = cluster indexed in
  let n_clusters = List.length groups in
  Spt_obs.Metrics.add m_clusters n_clusters;
  if n = 0 then
    finish ~jobs ~clusters:0 ~degraded:false ~max_queue_depth:0 ~t0 [||]
  else
    match Pool.create ~on_start:Worker_nursery.apply ~jobs () with
    | exception _ ->
      (* graceful degradation: no pool, run in the calling domain *)
      Spt_obs.Metrics.inc m_degraded;
      let timed =
        Array.of_list
          (List.map
             (fun (work, _) ->
               let r, dt = timed_run work in
               (r, Some dt))
             items)
      in
      finish ~jobs:1 ~clusters:n_clusters ~degraded:true ~max_queue_depth:0 ~t0
        timed
    | pool ->
      let results = Array.make n None in
      let mu = Mutex.create () in
      (* one pool job per cluster: members run back to back on the same
         worker, so a member's artifact is already warm in the cache
         when its near-duplicates compile right after it *)
      List.iter
        (fun members ->
          Pool.submit pool (fun () ->
              List.iter
                (fun (i, work) ->
                  let r = timed_run work in
                  Mutex.lock mu;
                  (* a late worker must not resurrect a job already
                     declared timed out *)
                  (match results.(i) with
                  | None -> results.(i) <- Some r
                  | Some _ -> ());
                  Mutex.unlock mu)
                members))
        groups;
      let deadline = t0 +. timeout_s in
      let max_depth = ref (Pool.queued pool) in
      let incomplete () =
        Mutex.lock mu;
        let k =
          Array.fold_left (fun k r -> if r = None then k + 1 else k) 0 results
        in
        Mutex.unlock mu;
        k
      in
      while incomplete () > 0 && Unix.gettimeofday () < deadline do
        let d = Pool.queued pool in
        if d > !max_depth then max_depth := d;
        Spt_obs.Metrics.set g_queue (float_of_int d);
        Unix.sleepf 0.01
      done;
      Spt_obs.Metrics.set g_queue 0.0;
      Mutex.lock mu;
      let any_timeout = ref false in
      Array.iteri
        (fun i r ->
          if r = None then begin
            any_timeout := true;
            results.(i) <- Some (Timed_out, nan)
          end)
        results;
      Mutex.unlock mu;
      (* join only when everything finished: [Pool.shutdown] drains the
         queue and waits for running jobs, which would nullify the
         timeout.  An abandoned pool's domains die with the process. *)
      if not !any_timeout then Pool.shutdown pool;
      finish ~jobs ~clusters:n_clusters ~degraded:false
        ~max_queue_depth:!max_depth ~t0
        (Array.map
           (function
             | Some (Timed_out, _) | None -> (Timed_out, None)
             | Some (r, dt) -> (r, Some dt))
           results)

let run ?jobs ?timeout_s thunks =
  run_clustered ?jobs ?timeout_s (List.map (fun w -> (w, [])) thunks)
