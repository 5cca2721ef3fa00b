(** Single-link failure sweeps on the delta engine.

    OSPF/MT-OSPF reacts to a link failure by re-running SPF on the
    surviving topology with the {e same} weights — no re-optimization
    — so the post-failure cost of a weight setting is a pure function
    of the setting and the failed link.  This module prices every
    physical (bidirectional) link failure of a context's graph.

    {!sweep} models each failure as an arc-suppression delta
    ({!Eval_ctx.fail_probe}): no reduced-graph rebuild, no weight
    remapping — only destinations whose shortest-path DAGs used a
    failed arc are re-screened and re-projected.  The tests hold it
    bitwise, outcome for outcome and on both cost models, to a
    from-scratch specification (reduced graph and remapped weights)
    in the test-only [dtr_oracle] library.

    A failure that severs a positive-demand pair (in either class) is
    priced as an {e infinite} outcome carrying the severed-pair count —
    it stays in the cost list, so max/percentile post-failure
    statistics are never optimistic.  A failure that disconnects only
    demand-free node pairs stays finite.

    Outcomes are indexed by {!Dtr_graph.Graph.undirected_link_pairs}
    order.

    {!robust_penalty} prices a robust search's sweep primary-first:
    bitwise {!penalty} of {!sweep}, with most failures priced for the
    high-priority class alone, and none at all when the caller hands
    back the class-0 pass of a sweep at the same class-0 weights.

    {b Counters.}  [dtr_failure_sweeps_total] counts every {!sweep}
    and {!robust_penalty}; [dtr_failure_evals_total] every link they
    price, cut links and links of a reused pass included;
    [dtr_failure_infinite_total] every link priced infinite;
    [dtr_failure_reused_total] every {!robust_penalty} given a pass.
    Only [dtr_eval_fail_probes_total] and the SPF counters show what
    primary-first pricing and reused passes save, and
    [dtr_failure_screened_total] (counted by {!Eval_ctx.fail_probe})
    what the failure probes' flow screen saves. *)

type outcome = {
  cost : Dtr_cost.Lexico.t;
      (** Post-failure objective under the sweep's cost model;
          {!Dtr_cost.Lexico.infinity} when the failure severs demand. *)
  unreachable_pairs : int;
      (** Severed positive-demand (class, src, dst) pairs; [0] exactly
          when [cost] is finite. *)
}

val is_finite : outcome -> bool

val sweep :
  ?model:Objective.model -> th:Dtr_traffic.Matrix.t -> Eval_ctx.t -> outcome array
(** Price every single-link failure against the context's current
    weights via failure probes, one link after the other on the
    calling domain.  [th] is the high-priority matrix the SLA model
    walks delays for (ignored under [Load]).  The context is not
    modified.
    @raise Invalid_argument unless the context has exactly 2 classes. *)

val penalty : ?top_k:int -> outcome array -> Dtr_cost.Lexico.t
(** Mean of the [top_k] worst {e finite} outcomes (default 1 = pure
    worst case), ordered by untolerated {!Dtr_cost.Lexico.compare}.
    Infinite outcomes are excluded: single-link reachability is
    weight-independent, so disconnecting failures price every weight
    setting identically and would drown the signal the search can
    move.  {!Dtr_cost.Lexico.zero} when no finite outcome exists.
    @raise Invalid_argument if [top_k < 1]. *)

val infinite_count : outcome array -> int
(** Outcomes priced as infinite (disconnecting failures). *)

val cut_links : outcome array -> bool array
(** Per link, whether its failure severs positive demand — the links
    a {!sweep} prices infinite.  Single-link reachability does not
    depend on the weights, so one sweep's cut links are every sweep's
    on the same graph and demand, and {!Eval_ctx.severing_links} finds
    the same set without a probe. *)

val primaries : outcome array -> float array
(** Per link, the primary (Φ_H, or Λ under SLA) of a finite outcome,
    [nan] for an infinite one: the class-0 pass {!robust_penalty}
    would rank the same sweep by, bitwise. *)

val robust_penalty :
  ?model:Objective.model ->
  th:Dtr_traffic.Matrix.t ->
  top_k:int ->
  cut:bool array ->
  ?primaries:float array ->
  Eval_ctx.t ->
  Dtr_cost.Lexico.t * float array
(** [penalty ~top_k (sweep ~model ~th ctx)], bitwise, for a [cut] set
    from {!cut_links} of any sweep on the same graph and demand, paired
    with the class-0 pass it ranked the failures by (per link, the
    primary of its failure; [nan] on cut links).  Cut links are priced
    infinite without a probe.  Without [primaries], every other link
    gets a class-0 failure probe ({!Eval_ctx.fail_probe} [~classes:1]),
    which prices its primary (Φ_H, or Λ under SLA) exactly as the full
    probe does, except a link whose arcs carry no committed class-0
    load in a context whose rows never split a flow into zero shares
    ({!Eval_ctx.zero_shares}): behind the flow screen its probe would
    repair and re-project nothing, so it is priced at the context's own
    primary ({!Eval_ctx.primary}, computed once per call), bitwise what
    that probe returns.  [primaries] is an earlier pass (from this function or
    {!primaries}) taken at the context's current class-0 weights: it
    is used as it is, and no class-0 probe runs.  A class-0 failure
    probe reads only class 0's weight group, its demand and the raw
    capacities, so such a pass is the pass a new one would price.
    Only the links whose primary reaches the [top_k]-th largest get
    the full probe, and their outcomes go to {!penalty}: under
    untolerated {!Dtr_cost.Lexico.compare} no other outcome can be
    among the [top_k] worst.  Ties on the primary can send more than
    [top_k] links to the full probe.  The context is not modified.
    @raise Invalid_argument unless the context has exactly 2 classes,
    if [top_k < 1], if [cut] or [primaries] does not match the graph's
    links, or if [cut] misses a link whose failure severs demand (one
    that gets a probe).
    @raise Failure if a full probe prices a primary other than the
    pass's for its link: an engine bug, or a [primaries] taken at
    other class-0 weights. *)
