(** Crash-safe file helpers shared by the on-disk stores: the artifact
    cache, the profile database and the persistent profile store. *)

(** [mkdir_p d] creates [d] and any missing parent; a directory that
    already exists, or that a concurrent process creates first, is
    fine. *)
val mkdir_p : string -> unit

(** A store key as a file-name component: every byte outside
    [A-Za-z0-9] becomes ['_'].  Keys are data, never a path component
    to trust. *)
val safe_key : string -> string

(** The whole contents of a file. *)
val read_file : string -> string

(** [atomic_write path text] writes [text] plus a trailing newline to
    a temporary sibling of [path], then renames it over [path],
    creating the parent directories first: a reader, or a crash
    mid-write, never sees a half-written file. *)
val atomic_write : string -> string -> unit
