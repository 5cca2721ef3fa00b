(** STR baseline: the Fortz–Thorup “single weight change” local search
    (paper §5.1.3), used as the comparison point for DTR.

    Each iteration picks one arc — half the time uniformly, half the
    time biased toward costly arcs through the same heavy-tailed rank
    distribution as Algorithm 2 — and scans every candidate weight
    value for it, accepting the best if it improves the lexicographic
    objective; the same stall-triggered diversification as Algorithm 1
    applies.

    The search also maintains a Pareto archive of evaluated
    [(Φ_H, Φ_L)] points, which implements §5.3.1's relaxation: the
    best low-priority cost achievable while degrading the high-priority
    cost by at most a factor [(1 + ε)] ({!relaxed_best}). *)

type archive_point = {
  phi_h : float;
  phi_l : float;
  w : int array;  (** the weight vector achieving this trade-off *)
}

type report = {
  best : Problem.solution;
  objective : Dtr_cost.Lexico.t;
  evaluations : int;
  improvements : int;
  memo_hits : int;
      (** scan candidates served from the evaluated-solution memo
          instead of being re-evaluated *)
  memo_misses : int;  (** scan candidates that had to be evaluated *)
  archive : archive_point list;
      (** Pareto-nondominated [(Φ_H, Φ_L)] trade-offs encountered,
          sorted by increasing [phi_h].  Only tracked under the
          load-based model; empty under SLA. *)
}

val default_iters : Search_config.t -> int
(** Iteration count giving twice the objective-evaluation budget of
    Algorithm 1 ([(2N + K) ⋅ m] evaluations): one single-weight-change
    iteration scans all 29 alternative weight values of an arc, so the
    default is [(2N + K) ⋅ m / 29]. *)

val run :
  ?w0:int array ->
  ?iters:int ->
  ?stop:(unit -> bool) ->
  ?trace:Trace.t ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** [w0] defaults to mid-range uniform weights; [iters] to
    {!default_iters}.  [stop], polled once per iteration, ends the run
    early when it returns [true] (the wall-clock budget hook; at least
    one iteration always runs, and a run that is never stopped is
    bit-identical to one without the callback).  With an enabled
    [trace], one [Str_scan] event is recorded per iteration ([detail] =
    scanned arc) and one [Diversify] event per perturbation
    ([detail] = -1); every field but the timestamp is identical for
    every [scan_jobs] value.
    @raise Invalid_argument on an out-of-range or wrong-length [w0]
    ({!Dtr_routing.Weights.validate}). *)

val relaxed_best : report -> epsilon:float -> archive_point option
(** Best (lowest) [Φ_L] among archive points with
    [Φ_H <= (1 + epsilon) ⋅ Φ*_H], where [Φ*_H] is the best
    high-priority cost the search found.  [None] when the archive is
    empty (SLA model) or nothing qualifies.
    @raise Invalid_argument on [epsilon < 0.]. *)
