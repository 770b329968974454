(** Two-layer advisory file locks — see lockfile.mli. *)

let m_timeouts = Spt_obs.Metrics.counter "profdb.lock_timeouts"

(* one mutex per lock-file path, shared by every domain of this
   process; [lockf] alone cannot tell two of our own domains apart *)
let registry : (string, Mutex.t) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()

let mutex_for path =
  Mutex.lock registry_mu;
  let m =
    match Hashtbl.find_opt registry path with
    | Some m -> m
    | None ->
      let m = Mutex.create () in
      Hashtbl.replace registry path m;
      m
  in
  Mutex.unlock registry_mu;
  m

type t = { mu : Mutex.t; fd : Unix.file_descr; mutable held : bool }

let poll_interval_s = 0.002

let acquire ?(timeout_s = 10.0) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let mu = mutex_for path in
  (* layer 1: in-process.  Poll with [try_lock] so the deadline also
     bounds waiting on a sibling domain, not just on other processes. *)
  let rec take_mutex () =
    if Mutex.try_lock mu then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf poll_interval_s;
      take_mutex ()
    end
  in
  if not (take_mutex ()) then begin
    Spt_obs.Metrics.inc m_timeouts;
    None
  end
  else begin
    (* layer 2: cross-process, an exclusive region on the lock file *)
    match
      Spt_obs.Disk.mkdir_p (Filename.dirname path);
      Unix.openfile path [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644
    with
    | exception _ ->
      Mutex.unlock mu;
      Spt_obs.Metrics.inc m_timeouts;
      None
    | fd ->
      let rec take_region () =
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () -> true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          if Unix.gettimeofday () >= deadline then false
          else begin
            Unix.sleepf poll_interval_s;
            take_region ()
          end
        | exception _ -> false
      in
      if take_region () then Some { mu; fd; held = true }
      else begin
        (try Unix.close fd with _ -> ());
        Mutex.unlock mu;
        Spt_obs.Metrics.inc m_timeouts;
        None
      end
  end

let release t =
  if t.held then begin
    t.held <- false;
    (try
       ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
       Unix.lockf t.fd Unix.F_ULOCK 0
     with _ -> ());
    (try Unix.close t.fd with _ -> ());
    Mutex.unlock t.mu
  end

let with_lock ?timeout_s path f =
  match acquire ?timeout_s path with
  | None -> None
  | Some l -> Some (Fun.protect ~finally:(fun () -> release l) f)
