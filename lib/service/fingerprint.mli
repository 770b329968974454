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
