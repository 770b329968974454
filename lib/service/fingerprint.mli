(** Canonical, layout-independent digests of IR — the content half of
    an artifact-cache key.

    Two sources that differ only in whitespace, comments or other
    concrete-syntax noise lower to the same IR and therefore share a
    digest; the serialization additionally renumbers basic blocks in
    control-flow (DFS preorder) order and drops instruction ids, so the
    digest survives allocation-order drift in block/instruction id
    generators and never depends on [Hashtbl] iteration order.

    Digests are 32-character lowercase hex strings. *)

(** Version tag mixed into every digest; bump when the canonical
    serialization changes so stale on-disk artifacts become misses. *)
val schema : string

(** Digest of one function. *)
val func : Spt_ir.Ir.func -> string

(** Digest of a whole program: globals plus every function, functions
    sorted by name. *)
val program : Spt_ir.Ir.program -> string

(** The cache key for compiling [program] under a configuration:
    [key ~config_key prog] mixes {!schema}, the configuration token
    (see {!Spt_driver.Config.cache_key}) and the program digest. *)
val key : config_key:string -> Spt_ir.Ir.program -> string

(** [key] for a program whose {!program} digest is already at hand:
    [key ~config_key prog = key_of_digest ~config_key (program prog)]. *)
val key_of_digest : config_key:string -> string -> string

(** The {!program} digest of a source text:
    [source text = program (Spt_driver.Pipeline.front_end text)].

    Memoized by the exact text in a {!Slot_memo} of 1,024 slots
    ({!Slot_memo.source_slots}), so a text seen before is answered with
    one hash and one string comparison, without the front end; a hash
    collision recomputes, never answers another text's digest.  Text
    over 16 KiB ({!Slot_memo.source_max_text}) is digested but not
    kept.  Raises whatever the front end raises, on every call,
    and keeps nothing for such a text.  Safe to call from several
    domains at once. *)
val source : string -> string

(** Process-wide counts of {!source} calls: [hits] were answered from
    the memo, [misses] ran the front end (over-long and rejected texts
    included). *)
type memo_stats = { hits : int; misses : int }

val memo_stats : unit -> memo_stats
