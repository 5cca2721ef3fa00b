(** Traffic matrices: [get m s t] is the demand (Mbps) from node [s]
    to node [t].  The diagonal is always zero. *)

type t

val create : int -> t
(** All-zero [n × n] matrix, dense storage.
    @raise Invalid_argument if [n <= 0]. *)

val create_sparse : int -> t
(** All-zero [n × n] matrix with column-major sparse storage — for
    real-ISP scale instances where demand touches a small fraction of
    the n² pairs.  Observationally identical to {!create} (every
    enumeration is emitted in sorted row-major order), with O(entries)
    memory; {!map2}/{!equal} remain O(n²).

    Enumerations ({!iter}, {!iter_col}, {!pairs}, {!pair_count},
    {!total}) read the positive entries sorted once into row-major
    arrays and per-column arrays.  The first enumeration after the
    matrix is built or {!set} builds them, in O(n + entries log entries);
    every later one is O(entries), [iter_col] O(column entries) and
    [pair_count] O(1).  A {!copy} shares them until its own [set].
    Domains may enumerate one matrix at once (each sees a complete
    set), but not while another [set]s it.
    @raise Invalid_argument if [n <= 0]. *)

val is_sparse : t -> bool

val size : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit
(** On a sparse matrix a [set] drops the sorted entries, and a zero
    removes the entry.
    @raise Invalid_argument on the diagonal, a demand that is negative
    or not finite (NaN, [±∞]), or an index out of range. *)

val add : t -> int -> int -> float -> unit
(** Accumulate onto an entry (same constraints as {!set}). *)

val total : t -> float
(** Sum of all demands. *)

val scale : t -> float -> t
(** Fresh matrix with every entry multiplied by a non-negative factor
    (a zero entry stays zero whatever the factor; a sparse store drops
    an entry that scales to zero).  A sparse matrix whose entries are
    sorted already hands them to the scaled one, values scaled, when no
    entry scales to zero, so the scaled matrix's enumerations do not
    sort again; otherwise its first enumeration sorts them.
    @raise Invalid_argument on a negative factor, or a product that is
    not finite. *)

val copy : t -> t

val pairs : t -> (int * int * float) list
(** All [(s, t, demand)] with positive demand, in row-major order. *)

val pair_count : t -> int
(** Number of positive entries: O(n²) on a dense matrix, O(1) on a
    sparse one once sorted. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate positive entries in row-major order. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m t f] iterates the positive entries of destination
    column [t] in ascending source order — O(column entries) on a
    sparse matrix instead of O(n) probes.
    @raise Invalid_argument if [t] is out of range. *)

val map2 : t -> t -> (float -> float -> float) -> t
(** Pointwise combination; @raise Invalid_argument on size mismatch or
    if the result would be negative anywhere. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise comparison with tolerance (default [1e-9]). *)
