(** Serialization of (dual) weight settings, so optimized weights can
    be saved, diffed and deployed.

    Format (line oriented, [#] comments allowed):
    {v
    arcs <m> topologies <t>
    w <arc-id> <w_topo0> [<w_topo1> ...]
    ...
    v}
    Every arc id in [0, m) must appear exactly once.  Fields are
    separated by any run of blanks (spaces or tabs); CRLF line endings
    are accepted. *)

val to_string : int array array -> string
(** [to_string sets] serializes one or more weight vectors (all the
    same length).  @raise Invalid_argument on an empty set list or
    mismatched lengths. *)

val of_string : string -> (int array array, string) result
(** Parses and validates: every weight must lie in
    [[Weights.min_weight, Weights.max_weight]], every arc id in
    [[0, m)] exactly once, every row carrying [t] values.  Never
    raises.  An error that belongs to one line is prefixed
    ["line N:"] and names the first bad line in file order, so a
    rejected file points at the offending row; the others are
    ["missing header"] and ["expected m arcs, found k"]. *)

val save : int array array -> string -> unit
(** @raise Sys_error on I/O failure, [Invalid_argument] as
    {!to_string}. *)

val load : string -> (int array array, string) result
