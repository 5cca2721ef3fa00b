(** Deterministic multi-start driver: run [restarts] independent
    restarts of a weight search, optionally in parallel on a domain
    pool, and pick the winner.

    Determinism contract: every per-restart PRNG stream is derived
    from the master generator with {!Dtr_util.Prng.split} {e before}
    any work is dispatched, in restart order, and the winner is chosen
    by exact [(objective, restart index)] order — strictly smaller
    lexicographic objective wins, ties go to the lower index.  Results
    are therefore bit-identical for every pool width (and without a
    pool).
    A restart's objective is its search report's: [J] in robust mode
    ({!Search_config.robust}).

    Restart 0 starts from the searches' default, the mid-range uniform
    weights; restarts [>= 1] start from weights drawn uniformly at
    random from their own stream.  A single run of [optimize] starts
    from the same default except on a large preset, where
    [Compare.run_point] starts from seeded random weights. *)

type algo = Str | Dtr
(** Which search a restart runs: {!Str_search} or {!Dtr_search}. *)

type restart = {
  index : int;
  objective : Dtr_cost.Lexico.t;
      (** the search report's objective ([J] in robust mode) *)
  solution : Problem.solution;
}

type report = {
  best : Problem.solution;
  objective : Dtr_cost.Lexico.t;
  best_index : int;  (** which restart won *)
  restarts : restart array;  (** every restart, in index order *)
  evaluations : int;
      (** total objective evaluations across all restarts: the sum of
          their search reports' counts, identical for every pool
          width *)
}

val run :
  ?pool:Dtr_util.Pool.t ->
  ?trace:Trace.t ->
  restarts:int ->
  algo:algo ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** [run ~restarts ~algo rng cfg problem] runs the restarts on [pool]
    if given, else sequentially on the calling domain.  [rng] is
    advanced by [restarts] splits.
    @raise Invalid_argument if [restarts < 1].

    With an enabled [trace], each restart records its search events
    into a private ring on whichever worker runs it; the rings are
    replayed into [trace] in restart-index order after the joins, with
    the [restart] field set, followed by one [Restart_done] event per
    restart ([accepted] = improved on all lower indices).  Every field
    but the timestamps is therefore identical for every pool
    width. *)
