(** A bounded, lock-free memo: a fixed table of slots, each an
    [Atomic.t] holding at most one immutable (key, value) entry, picked
    by a hash of the key.  A lookup hits only when the slot's key is
    equal to the asked one under the caller's equality, so a hash
    collision costs a recomputation, never another key's value; a store
    overwrites the slot.  Readers take no lock and only ever see a
    complete entry, so any number of domains may share one table.

    The service keeps two such memos, and their bounds sit side by side
    here. *)

type ('k, 'v) t

(** A table of [slots] (at least 1) empty slots. *)
val create : int -> ('k, 'v) t

(** [find t ~hash ~equal key] is the value stored with a key [equal] to
    [key] in the slot [hash] picks, if any.  [hash] is the key's
    [Hashtbl.hash] (or another non-negative hash), the same on every
    call for one key. *)
val find : ('k, 'v) t -> hash:int -> equal:('k -> 'k -> bool) -> 'k -> 'v option

(** [set t ~hash key v] stores [(key, v)] in the slot [hash] picks,
    replacing what it held. *)
val set : ('k, 'v) t -> hash:int -> 'k -> 'v -> unit

(** {!Fingerprint.source}: program digests by source text.  Texts over
    [source_max_text] bytes are digested but not kept, so the texts held
    stay under [source_slots * source_max_text] bytes (16 MiB). *)
val source_slots : int

val source_max_text : int

(** {!Server}: the minified eval text of each compile reply, by artifact
    key and eval tree.  Texts over [reply_max_text] bytes are rendered
    but not kept, so the texts held stay under
    [reply_slots * reply_max_text] bytes (16 MiB). *)
val reply_slots : int

val reply_max_text : int
