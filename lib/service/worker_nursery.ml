(** The compile workers' nursery — see worker_nursery.mli. *)

(* Swept over 1M, 2M and 4M words against the default on serve_mix, on
   a 2-core host: tail_ms 47.6 -> 38.8 / 37.5 / 38.0 ms and throughput
   383 -> 449 / 458 / 452 requests/s (medians of 5 alternating 20 s
   pairs), then 50.0 -> 39.9 / 38.9 / 40.1 ms and 359 -> 432 / 442 /
   422 (4 rotated rounds); 1M stayed within noise of 2M but behind it,
   also in 5 of 6 direct pairs, and 4M was no better *)
let words = 2 * 1024 * 1024

let apply () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
