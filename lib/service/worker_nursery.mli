(** The nursery of the service's compile workers: the domains of
    {!Server.serve}'s and {!Batch}'s pools.

    In OCaml 5.1 every minor collection stops every domain of the
    process, and a domain starts with the default nursery (256k words)
    whatever its parent set.  A cold compile allocates about 1.78M
    words, enough to fill the default nursery about seven times, so a
    compile worker sets its own nursery big enough to hold one when it
    starts.  The speculative runtime's pool and the calling domain keep
    the default: measured there, a bigger nursery was slower.  DESIGN
    §3g has the measurements. *)

(** The compile workers' minor heap in words: 2M words, 16 MiB on a
    64-bit host, per worker domain. *)
val words : int

(** Set the calling domain's minor heap to {!words} — a pool's
    [on_start] hook. *)
val apply : unit -> unit
