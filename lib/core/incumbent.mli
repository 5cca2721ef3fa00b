(** The bookkeeping of one weight-search run, shared by {!Str_search},
    {!Dtr_search} and {!Anneal_search}.

    A run holds a current point with its live evaluation context, the
    best point so far with its objective, the improvement and stall
    counters of Algorithm 1's diversification rule, the run's own
    evaluation counts, and the trace sinks its events go to.  The
    searches choose candidates and fold scans; this module applies the
    one acceptance rule they share: keep the lexicographic best
    ({!Dtr_cost.Lexico.improves}), count the iterations that fail to
    improve it, and let the caller diversify once {!stalled}.

    {b Robust mode.}  With [cfg.robust] set, the best is chosen by
    [J = normal + alpha * penalty] over a single-link failure sweep
    ({!Problem.robust_price}).  A point is swept only when it moved and
    its normal cost beats the best's J: [J >= normal] componentwise, so
    nothing better can hide behind a worse normal cost, and sweeps grow
    rarer as the best tightens.  The start point is always swept.

    {b Events.}  Every field but the timestamp is a pure function of
    the trajectory ({!Trace}).  {!tell} reports the best's normal
    objective; a [Robust_sweep] reports J ([detail] = failures priced
    infinite, [value] = the penalty's primary component). *)

type t

type start =
  | Str of int array option
      (** one shared weight vector; mid-range when [None] *)
  | Dtr of (int array * int array) option
      (** [(W_H, W_L)]; two mid-range vectors when [None] *)

val create :
  ?scan:Scan.t -> ?trace:Trace.t -> Search_config.t -> Problem.t -> start ->
  t
(** Validate a caller's start weights, evaluate the start in full (the
    run's first counted evaluation), and in robust mode sweep it
    ([Robust_sweep] at iteration 0).  [scan] is the engine {!scan}
    and {!commit} use.  Probes go to [trace] when [cfg.trace_probes]
    is set, decimated by [cfg.trace_sample].
    @raise Invalid_argument on an out-of-range or wrong-length start
    vector ({!Dtr_routing.Weights.validate}). *)

(** {2 State} *)

val current : t -> Problem.solution

val ctx : t -> Problem.ctx
(** The context, in step with {!current}. *)

val best : t -> Problem.solution

val objective : t -> Dtr_cost.Lexico.t
(** The best's objective: J in robust mode, else its normal cost. *)

val improvements : t -> int
(** Counted improvements of the best ({!consider}). *)

val stalled : t -> bool
(** [M = cfg.diversify_after] counted iterations have passed without
    improving the best since the last reset. *)

val evaluations : t -> int
(** Objective evaluations of the run: full ones, probes, and the scan
    engine's candidates. *)

val memo_hits : t -> int

val memo_misses : t -> int

(** {2 Moving the current point} *)

val scan :
  t -> cls:Problem.cls -> changes_of:(int -> (int * int) list) -> int ->
  Scan.summary array
(** {!Scan.evaluate} of a neighborhood against the context, through the
    run's memo and probe sink.  The engine counts the candidates.
    @raise Invalid_argument when the run has no engine. *)

val commit : t -> cls:Problem.cls -> changes:(int * int) list -> unit
(** Move to a scanned candidate ({!Scan.commit}; not counted again). *)

val probe : t -> cls:Problem.cls -> changes:(int * int) list -> Problem.delta
(** One counted probe of a candidate against the context. *)

val accept : t -> Problem.delta -> unit
(** Move to a probed candidate.  A rejected one is closed with
    {!Problem.abort_delta} on {!ctx}. *)

val jump : t -> cls:Problem.cls -> changes:(int * int) list -> unit
(** Diversify by a committed probe (one counted probe) and reset the
    stall counter. *)

val restart : t -> wh:int array -> wl:int array -> unit
(** Move to a fresh full evaluation of [(wh, wl)] (counted), which
    hands the run a new context, and reset the stall counter. *)

val return_to_best : t -> unit
(** Move back to the best, rebuilding the context from it (nothing is
    evaluated), and reset the stall counter. *)

(** {2 Acceptance} *)

val consider : t -> iteration:int -> prev:Problem.solution -> unit
(** Offer the current point after an iteration that started at [prev].
    An improvement of the best counts and resets the stall counter;
    anything else counts one stalled iteration.  In robust mode only a
    point that moved off [prev] is swept; the normal comparison ignores
    [prev]. *)

val offer : t -> iteration:int -> unit
(** Offer the current point outside the counted iterations (after a
    jump, a hand-off, an annealing move): it may become the best, but
    no counter moves. *)

(** {2 Events} *)

val tell :
  ?value:float ->
  t ->
  Trace.kind ->
  iteration:int ->
  detail:int ->
  prev:Problem.solution ->
  unit
(** One iteration-level event, emitted after the acceptance decision:
    [accepted] when the current point is no longer [prev], [before] and
    [after] the normal objectives of [prev] and the current point. *)

val phase_done : t -> iteration:int -> detail:int -> unit
(** A [Phase_done] event carrying the best's normal objective. *)
