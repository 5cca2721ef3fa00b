(** Deterministic multi-start driver: run [restarts] independent
    restarts of a weight search, optionally in parallel on a domain
    pool, and pick the winner.

    Determinism contract: every per-restart PRNG stream is derived
    from the master generator with {!Dtr_util.Prng.split} {e before}
    any work is dispatched, in restart order, and the winner is chosen
    by exact [(objective, restart index)] order — strictly smaller
    lexicographic objective wins, ties go to the lower index.  Results
    are therefore bit-identical for every [jobs] value (including 1).
    A restart's objective is its search report's: [J] in robust mode
    ({!Search_config.robust}), which annealing ignores.

    Restart 0 starts from the canonical mid-range uniform weights (the
    same initial point the single-run searches use); restarts [>= 1]
    start from weights drawn uniformly at random from their own
    stream. *)

type algo = Str | Dtr | Anneal
(** Which search a restart runs: {!Str_search}, {!Dtr_search} or
    {!Anneal_search} (with its default schedule). *)

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
          their search reports' counts, identical for every [jobs] *)
}

val run :
  ?pool:Dtr_util.Pool.t ->
  ?jobs:int ->
  ?trace:Trace.t ->
  restarts:int ->
  algo:algo ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** [run ~restarts ~algo rng cfg problem] runs the restarts on [pool]
    if given, else on a temporary pool of [jobs] workers (default 1 =
    sequential, no domain spawned).  [rng] is advanced by [restarts]
    splits.  @raise Invalid_argument if [restarts < 1].

    With an enabled [trace], each restart records its search events
    into a private ring on whichever worker runs it; the rings are
    replayed into [trace] in restart-index order after the joins, with
    the [restart] field set, followed by one [Restart_done] event per
    restart ([accepted] = improved on all lower indices).  Every field
    but the timestamps is therefore identical for every [jobs]
    value. *)
