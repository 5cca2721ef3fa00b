(** Simulated-annealing variant of the DTR weight search, used as an
    alternative optimizer in the ablation study.

    The lexicographic objective does not admit a single scalar energy,
    but the two-phase structure of Algorithm 1 does: phase 1 anneals
    the high-priority weights against the primary cost ([Φ_H] or [Λ]),
    and phase 2 anneals the low-priority weights against [Φ_L] — which
    cannot change the primary cost, so each phase is a well-posed
    scalar annealing problem.  Moves are the same two-arc Algorithm-2
    moves, each priced as one probe against a live evaluation context
    ({!Problem.eval_delta}); acceptance is Metropolis with a geometric
    cooling schedule.  The run's best, evaluation counts and trace
    events are kept by {!Incumbent}, in normal mode: annealing ignores
    [Search_config.robust]. *)

type schedule = {
  t0_ratio : float;
      (** initial temperature as a fraction of the initial energy *)
  cooling : float;  (** geometric factor per temperature step, in (0, 1) *)
  moves_per_temp : int;  (** Metropolis proposals per temperature *)
  t_min_ratio : float;
      (** stop when T falls below this fraction of the initial T *)
}

val default_schedule : schedule
(** [t0_ratio = 0.05], [cooling = 0.95], [moves_per_temp = 50],
    [t_min_ratio = 1e-4]. *)

val validate_schedule : schedule -> unit
(** @raise Invalid_argument on nonsensical values. *)

type report = {
  best : Problem.solution;
  objective : Dtr_cost.Lexico.t;
  evaluations : int;
  accepted : int;  (** accepted Metropolis proposals (both phases) *)
}

val run :
  ?schedule:schedule ->
  ?w0:int array * int array ->
  ?trace:Trace.t ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** [w0] defaults to uniform {!Dtr_routing.Weights.mid_weight} for both
    classes.  The [Search_config] supplies the neighborhood parameters
    [tau] and [max_step] (annealing proposes one move at a time, so
    {!Search_config.m} does not apply).  With an enabled [trace], one
    [Anneal_step] event is recorded per Metropolis proposal
    ([detail] = phase 0/1, [value] = temperature) plus a [Phase_done]
    per phase; annealing is sequential, so the trace is trivially
    jobs-invariant.
    @raise Invalid_argument on an out-of-range or wrong-length vector
    in [w0] ({!Dtr_routing.Weights.validate}). *)
