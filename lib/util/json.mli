(** Minimal JSON reader for the repo's own artifacts (trace JSONL
    lines, metrics snapshots, manifests).  No external dependency, and
    no document writer: every artifact writer in the repo emits its own
    fixed-format JSON, quoting its strings with {!quote}.

    Numbers are parsed with [float_of_string], so the ["%.17g"] floats
    the writers emit round-trip bit-exactly.  Strings support the
    standard JSON escapes, including [u]-escapes (decoded to UTF-8,
    surrogate pairs handled). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error).  Errors carry a character offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj] (first match); [None] otherwise. *)

val to_float : t -> float option
(** [Num]s only. *)

val to_int : t -> int option
(** [Num]s representing integers ([Float.is_integer]) in the native
    int range, [[min_int, max_int]]; [None] for any other value, so a
    reader rejects an out-of-range count instead of wrapping it. *)

val to_string : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option

val quote : string -> string
(** The JSON string literal of a byte string: quoted, with the double
    quote and the backslash escaped by a backslash, every byte below
    0x20 as a [u00XX] escape, and every other byte kept, so UTF-8 text
    passes through and printable ASCII reads exactly as OCaml's [%S]
    renders it. *)
