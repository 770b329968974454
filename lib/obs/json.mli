(** A minimal JSON tree, writer and reader.

    The observability layer emits machine-readable artifacts — Chrome
    [trace_events] files, metrics dumps, bench summaries — and the test
    suite parses them back to assert well-formedness, so both
    directions live here rather than behind an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Text already rendered, written verbatim in either mode: a
          subtree rendered once with [to_string ~minify:true] and
          spliced into many documents (a server reply's eval, a cache
          entry's payload).  The writer does not check it; {!of_string}
          never produces it. *)

(** Render to a string.  [minify:false] (the default) indents nested
    structures two spaces per level.  Non-finite floats render as
    [null], keeping the output always loadable. *)
val to_string : ?minify:bool -> t -> string

(** How many arrays and objects {!of_string} accepts nested inside each
    other (512).  The deepest document the system writes nests 9. *)
val max_depth : int

(** Parse a complete JSON document.  [Error msg] carries the byte
    offset of the failure.  Nesting deeper than {!max_depth} is an
    error at the bracket that opens the extra level, so an untrusted
    line of brackets costs neither stack nor time. *)
val of_string : string -> (t, string) result

(** [member key j] is the value bound to [key] when [j] is an object. *)
val member : string -> t -> t option

(** [prepend (key, v) j] adds a leading field when [j] is an object and
    returns [j] unchanged otherwise — the one way every emitter tags a
    shared payload (bench configs, runtime stats, serve replies) with
    its own discriminator field. *)
val prepend : string * t -> t -> t

(** [set (key, v) j] replaces the binding of [key] in place when [j]
    is an object that has one, appends it otherwise, and returns [j]
    unchanged when it is not an object — how a committed report file
    (BENCH_results.json) has one section refreshed without disturbing
    the others' order. *)
val set : string * t -> t -> t

(** Write [to_string j] (plus a trailing newline) to [path]. *)
val to_file : string -> t -> unit
