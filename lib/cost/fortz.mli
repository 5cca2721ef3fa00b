(** The Fortz–Thorup piecewise-linear link cost (paper Eq. 1), a convex
    approximation of M/M/1 queueing cost.

    [phi ~load ~capacity] is implemented as the maximum of the six
    affine pieces (valid because the function is convex and the pieces
    are its supporting lines), which is branch-free, exact at segment
    boundaries, and degrades gracefully to [5000 ⋅ load] when the
    capacity is zero — exactly what the residual-capacity model needs
    when high-priority traffic saturates a link. *)

val phi : load:float -> capacity:float -> float
(** Cost of carrying [load] on a link of capacity [capacity].  Both
    must be non-negative; [phi ~load:0. ~capacity] = 0.
    @raise Invalid_argument on a negative or NaN load ([Fortz.phi:
    negative load]) or capacity ([Fortz.phi: negative capacity]). *)

val breakpoints : float array
(** Utilization breakpoints [ [|1/3; 2/3; 9/10; 1; 11/10|] ]. *)

val slopes : float array
(** Per-segment slopes [ [|1; 3; 10; 70; 500; 5000|] ]. *)

val segment : utilization:float -> int
(** Index (0–5) of the segment a utilization falls in. *)

val phi_uncapacitated : float -> float
(** [phi_uncapacitated u] is the cost per unit of capacity at
    utilization [u], i.e. [phi ~load:(u*c) ~capacity:c / c]; useful for
    plotting and tests. *)
