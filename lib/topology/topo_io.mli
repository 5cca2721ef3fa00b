(** Plain-text serialization of graphs.

    Format (line oriented, [#] comments allowed):
    {v
    nodes <n>
    arc <src> <dst> <capacity> <delay>
    ...
    v}

    Fields are separated by any run of blanks (spaces or tabs); CRLF
    line endings are accepted. *)

val to_string : Dtr_graph.Graph.t -> string

val of_string : string -> (Dtr_graph.Graph.t, string) result
(** Never raises: parse errors are returned as [Error message], with a
    ["line N:"] prefix for every error that belongs to one line (the
    only other is the missing [nodes] directive).  Arc values are
    validated at parse time: NaN or infinite capacity / delay,
    non-positive capacity, negative delay, self-loops and endpoints
    outside [[0, n)] are rejected here (with the offending line
    number) instead of surfacing as a NaN objective or an exception
    deep inside a search.  So is a node count above
    [max 1 (2 ⋅ arcs)], which leaves some node without an arc, before
    anything of that size is allocated. *)

val save : Dtr_graph.Graph.t -> string -> unit
(** Write to a file path.  @raise Sys_error on I/O failure. *)

val load : string -> (Dtr_graph.Graph.t, string) result
