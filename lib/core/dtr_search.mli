(** The paper's DTR weight-search heuristic (Algorithm 1), built from
    the FindH / FindL passes (Algorithm 2).

    Three routines: (1) optimize the high-priority weights [W_H] with
    [W_L] frozen; (2) freeze the best [W_H] and optimize [W_L]; (3)
    refine both around the incumbent, restarting from it (with a small
    perturbation) whenever [M] iterations pass without improvement.
    Routines 1 and 2 are one loop over the class.  Candidates come from
    {!Neighborhood.candidates}; the run's bookkeeping — best, counters,
    robust pricing, trace events — is {!Incumbent}'s. *)

type phase = Optimize_h | Optimize_l | Refine

type progress = {
  phase : phase;
  iteration : int;
  best_objective : Dtr_cost.Lexico.t;
}

type report = {
  best : Problem.solution;  (** incumbent after all three routines *)
  objective : Dtr_cost.Lexico.t;
  evaluations : int;  (** objective evaluations spent *)
  improvements : int;  (** accepted strict improvements *)
  memo_hits : int;
      (** neighborhood candidates served from the evaluated-solution
          memo instead of being re-evaluated *)
  memo_misses : int;  (** candidates that had to be evaluated *)
  phase_objectives : (phase * Dtr_cost.Lexico.t) list;
      (** incumbent objective at the end of each routine, in order *)
}

val run :
  ?w0:int array * int array ->
  ?stop:(unit -> bool) ->
  ?on_progress:(progress -> unit) ->
  ?trace:Trace.t ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  Problem.t ->
  report
(** Full Algorithm 1.  [w0] defaults to all weights =
    {!Dtr_routing.Weights.mid_weight} for both classes so initial moves
    can go both ways.  [stop], polled after every completed iteration,
    ends the run early when it returns [true] (the wall-clock budget
    hook): the remaining iterations of all three routines are skipped,
    while the inter-routine reconciliations and the final report still
    execute.  At least one iteration always runs, and a run that is
    never stopped is bit-identical to one without the callback.
    [on_progress] fires once per iteration.

    With an enabled [trace], one [Find_h] / [Find_l] event is recorded
    per pass ([detail] = routine ordinal 0/1/2), one [Diversify] per
    perturbation, one [Phase_done] per routine and, in robust mode, one
    [Robust_sweep] per failure sweep ([detail] = failures priced
    infinite); every field but the timestamp is identical for every
    [scan_jobs] value.
    @raise Invalid_argument on an out-of-range or wrong-length vector
    in [w0] ({!Dtr_routing.Weights.validate}). *)
