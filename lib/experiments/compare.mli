(** One evaluation point: optimize the same scenario with STR and DTR
    and compare costs — the measurement behind Figs. 2, 4, 5, 8 and
    Table 1.  A point's PRNG streams are derived here alone
    ({!streams}: [optimize]'s single run and its multi-start both use
    them), and so is the [R_L]-vs-load table that Figs. 4, 5 and 8
    print ({!rl_table}). *)

type point = {
  target_util : float;  (** requested network load *)
  measured_util : float;  (** average link utilization of the STR solution *)
  rh : float;  (** STR primary cost / DTR primary cost (≈ 1 expected) *)
  rl : float;  (** STR Φ_L / DTR Φ_L (the paper's headline ratio) *)
  str : Dtr_core.Str_search.report;
  dtr : Dtr_core.Dtr_search.report;
}

val ratio : num:float -> den:float -> float
(** Zero-guarded ratio: both ≈ 0 gives 1 (equal performance); a zero
    denominator with a positive numerator gives [infinity]. *)

val streams :
  seed:int -> Scenario.instance -> Dtr_util.Prng.t * Dtr_util.Prng.t * Dtr_util.Prng.t
(** [(root, str, dtr)]: the point's root generator, seeded from [seed]
    and the instance's scenario seed, and the STR and DTR search
    streams split from it in that order.  {!run_point} draws a
    {!Scenario.Large} instance's random start from [root] after the
    two splits. *)

val run_point :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?trace:Dtr_core.Trace.t ->
  ?stop:(unit -> bool) ->
  ?str_iters:int ->
  ?w0:int array * int array ->
  Scenario.instance ->
  model:Dtr_routing.Objective.model ->
  target_util:float ->
  point
(** Scale the instance to [target_util], then run both searches
    (the independent PRNG streams of {!streams}, [seed] default 0).
    [stop] (the wall-clock budget hook) is polled by both searches
    once per iteration, and each report's [stopped] says whether it
    cut that search short; [str_iters] caps STR's iterations (default
    {!Dtr_core.Str_search.default_iters}); [w0] warm-starts them —
    STR takes the first vector, DTR the pair.  Without [w0], both
    start from mid-range uniform weights, except on a
    {!Scenario.Large} instance: there the uniform start is already
    locally optimal, so both start from seeded random weights.

    With an enabled [trace], both searches record their events (each
    into a private ring, replayed afterwards so ordering never depends
    on scheduling): STR events carry [restart = 0], DTR events
    [restart = 1].
    @raise Invalid_argument on an out-of-range or wrong-length vector
    in [w0]. *)

val sweep :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  Scenario.spec ->
  model:Dtr_routing.Objective.model ->
  targets:float list ->
  point list
(** {!run_point} over a list of target utilizations on one generated
    instance. *)

val points_table :
  title:string -> point list -> Dtr_util.Table.t
(** Render points as the paper's figure series: measured utilization,
    H-cost ratio, L-cost ratio. *)

val rl_table :
  title:string ->
  targets:float list ->
  (string * point list) list ->
  Dtr_util.Table.t
(** The [R_L]-vs-load table of Figs. 4, 5 and 8: one row per target
    utilization (first column, [%.2f]), then one [R_L] column per
    [(label, points)] series, each series a {!sweep} over [targets]. *)
