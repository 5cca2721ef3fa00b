(** Deterministic pseudo-random number generation.

    A small, fast, splittable PRNG (splitmix64) used everywhere in the
    library so that every topology, traffic matrix and heuristic run is
    reproducible from a single integer seed.  The global [Random] module
    is deliberately never used. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream.  Used to
    give sub-systems (topology, traffic, search) their own streams. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)

val int_incl : t -> int -> int -> int
(** [int_incl g lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val uniform : t -> float -> float -> float
(** [uniform g a b] is uniform in [\[a, b)].
    @raise Invalid_argument if [b < a]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g k n] draws [k] distinct integers from
    [\[0, n)], in random order.  @raise Invalid_argument if [k > n] or
    [k < 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
