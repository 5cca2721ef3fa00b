(** Traffic matrices: [get m s t] is the demand (Mbps) from node [s]
    to node [t].  The diagonal is always zero. *)

type t

val create : int -> t
(** All-zero [n × n] matrix.  One store serves every shape, from the
    paper's all-pairs gravity matrices to PoP demand on 10k nodes:
    each destination column holds its positive entries as two
    parallel arrays, sources ascending and their demands, so memory is
    O(n + entries); {!map2}/{!equal} remain O(n² log n).

    {!iter_col} reads a column directly, in O(column entries).  The
    row-major enumerations ({!iter}, {!pairs}, {!pair_count},
    {!total}) read the entries gathered once, by a counting sort over
    the columns: the first enumeration after the matrix is built or
    {!set} gathers them, in O(n + entries); every later one is
    O(entries), and [pair_count] O(1).  A {!copy} shares the gather
    until its own [set].  Domains may enumerate one matrix at once
    (each sees a complete gather), but not while another [set]s it.
    @raise Invalid_argument if [n <= 0]. *)

val size : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit
(** A [set] drops the gathered entries, and a zero removes the entry.
    A source written above every one its column holds, as a writer
    that goes row by row writes them, is an append; any other is a
    binary search and a shift of the column's later entries.
    @raise Invalid_argument on the diagonal, a demand that is negative
    or not finite (NaN, [±∞]), or an index out of range. *)

val add : t -> int -> int -> float -> unit
(** Accumulate onto an entry (same constraints as {!set}). *)

val total : t -> float
(** Sum of all demands. *)

val scale : t -> float -> t
(** Fresh matrix with every entry multiplied by a non-negative factor
    (a zero entry stays zero whatever the factor, and an entry that
    scales to zero is dropped).  A matrix whose entries are gathered
    already hands them to the scaled one, values scaled, when no entry
    scales to zero, so the scaled matrix's enumerations do not gather
    again; otherwise its first enumeration gathers them.
    @raise Invalid_argument on a negative factor, or a product that is
    not finite. *)

val copy : t -> t

val pairs : t -> (int * int * float) list
(** All [(s, t, demand)] with positive demand, in row-major order. *)

val pair_count : t -> int
(** Number of positive entries: O(1) once gathered. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate positive entries in row-major order. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m t f] iterates the positive entries of destination
    column [t] in ascending source order, in O(column entries).
    @raise Invalid_argument if [t] is out of range. *)

val map2 : t -> t -> (float -> float -> float) -> t
(** Pointwise combination; @raise Invalid_argument on size mismatch or
    if the result would be negative anywhere. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise comparison with tolerance (default [1e-9]). *)
