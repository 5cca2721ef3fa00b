(** §3.3.1's worked example: on the 3-node triangle, a joint cost
    [J = α Φ_H + Φ_L] flips from the lexicographic solution to a
    priority-inverting one between [α = 35] and [α = 30].

    The runner exhaustively enumerates STR weight settings on the
    triangle (the space is tiny) and reports, for each α, the
    minimizing routing's [Φ_H] and [Φ_L] — reproducing the paper's
    [Φ_H = 1/3, Φ_L = 64/9] vs [Φ_H = 1/2, Φ_L = 4/3] numbers. *)

val run : alphas:float list -> Dtr_util.Table.t
(** One row per α, plus a lexicographic-optimum reference row. *)

val optimum_for_alpha : alpha:float -> float * float
(** [(Φ_H, Φ_L)] of the joint-cost optimum (exhaustive), J priced by
    {!Dtr_cost.Lexico.to_joint}.  Exposed for tests.
    @raise Invalid_argument on a negative [alpha]. *)
