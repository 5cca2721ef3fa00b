(** Lexicographically ordered cost tuples [⟨primary, secondary⟩]
    (paper Eqs. 2 and 5): the high-priority cost dominates; the
    low-priority cost breaks ties.

    Strict lexicographic comparison on floats is brittle (two runs of
    the same search can differ in the 15th digit), so comparisons
    treat primaries within a relative tolerance as equal.  The
    tolerance is configurable per comparison and defaults to exact.

    The multi-topology extension's objectives are length-[T] vectors
    [⟨Φ_0, …, Φ_{T−1}⟩], class 0 first; {!compare_vectors} orders them
    exactly, component by component. *)

type t = { primary : float; secondary : float }

val make : primary:float -> secondary:float -> t

val compare : ?rel_tol:float -> t -> t -> int
(** Standard comparison contract.  With [rel_tol] (e.g. [1e-9]),
    primaries closer than [rel_tol ⋅ max(|x|, |y|, 1)] are considered
    equal and the secondaries decide. *)

val ( < ) : t -> t -> bool
(** Exact strict lexicographic less-than. *)

val lt : ?rel_tol:float -> t -> t -> bool

val improves : t -> t -> bool
(** The searches' one comparison policy: [lt ~rel_tol:1e-9], so
    primaries within a relative [1e-9] tie and the secondaries
    decide.  STR, DTR and annealing all accept a candidate or a new
    best through it. *)

val min : ?rel_tol:float -> t -> t -> t
(** The smaller of the two (first on ties). *)

val add : t -> t -> t
(** Componentwise sum (used to accumulate per-link lexicographic link
    costs). *)

val scale : float -> t -> t
(** Componentwise scaling (used to weight the failure penalty in the
    robust objective). *)

val zero : t

val infinity : t
(** [⟨∞, ∞⟩], the identity for {!min}. *)

val to_joint : alpha:float -> t -> float
(** The scalarized cost [α ⋅ primary + secondary] of §3.3.1.
    @raise Invalid_argument on [alpha < 0.]. *)

val compare_vectors : float array -> float array -> int
(** Exact lexicographic comparison of objective vectors ([Float.compare]
    on each component, first difference decides).
    @raise Invalid_argument on length mismatch. *)

val pp : Format.formatter -> t -> unit
