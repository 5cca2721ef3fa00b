(** Serialization of (dual) weight settings, so optimized weights can
    be saved, diffed and deployed.

    Format (line oriented, [#] comments allowed):
    {v
    arcs <m> topologies <t>
    graph <digest>
    w <arc-id> <w_topo0> [<w_topo1> ...]
    ...
    v}
    Every arc id in [0, m) must appear exactly once.  The optional
    [graph] line names the graph the weights were saved on by its
    digest, 16 lowercase hex digits ({!Dtr_core.Manifest.topology_digest}),
    so that a loader given the digest of its own graph refuses weights
    of another graph with the same arc count.  At most one [graph]
    line; a file without one loads on any graph.  Fields are
    separated by any run of blanks (spaces or tabs); CRLF line endings
    are accepted. *)

val to_string : ?graph:string -> int array array -> string
(** [to_string ?graph sets] serializes one or more weight vectors (all
    the same length), with a [graph] line when [graph] gives the
    digest of their graph.  @raise Invalid_argument on an empty set
    list, mismatched lengths or a [graph] that is not a digest. *)

val of_string : ?graph:string -> string -> (int array array, string) result
(** Parses and validates: every weight must lie in
    [[Weights.min_weight, Weights.max_weight]], every arc id in
    [[0, m)] exactly once, every row carrying [t] values.  With
    [graph], the digest of the loader's graph, a file whose [graph]
    line names another digest is refused.  Never raises.  An error
    that belongs to one line is prefixed ["line N:"] and names the
    first bad line in file order, so a rejected file points at the
    offending row; the others are ["missing header"],
    ["weights for graph D, not for graph D'"] and
    ["expected m arcs, found k"]. *)

val save : ?graph:string -> int array array -> string -> unit
(** {!to_string} written to a file.
    @raise Sys_error on I/O failure, [Invalid_argument] as
    {!to_string} (before the file is opened). *)

val load : ?graph:string -> string -> (int array array, string) result
(** {!of_string} of a file's contents; an unreadable file is the
    [Error] of its [Sys_error] message. *)
