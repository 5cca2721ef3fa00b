(** Field splitting for the line-oriented text formats (topologies,
    weight settings). *)

val split : string -> string list
(** The non-empty fields of a line, separated by any run of blanks
    (spaces, tabs, carriage returns, form feeds): tab-separated and
    CRLF-terminated files parse the same as space-separated ones. *)
