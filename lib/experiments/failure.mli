(** Extension experiment (not in the paper): robustness of optimized
    weight settings to single-link failures.

    OSPF/MT-OSPF reacts to a failure by re-running SPF on the surviving
    topology with the {e same} weights — no re-optimization.  This
    experiment optimizes STR and DTR weights on the ISP backbone, then
    fails each physical (bidirectional) link in turn and re-prices both
    classes on the surviving topology.  Reported per scheme: the
    no-failure cost, the mean over finite post-failure costs, the worst
    post-failure cost, and the disconnecting-failure count.

    Failures that sever positive demand are {e not} skipped: they are
    priced as infinite outcomes (with their severed-pair counts), so
    the worst-case column reads [inf] whenever the topology has a
    demand-carrying cut link.  The sweep itself runs on the delta
    engine ({!Dtr_routing.Failure_sweep.sweep}): each failure is an
    arc-suppression probe against a live evaluation context, patching
    only the destinations whose shortest-path DAGs used the failed
    link.  The experiment sweeps sequentially: [experiment --jobs]
    parallelizes across experiments, not within this one. *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?target_util:float ->
  unit ->
  Dtr_util.Table.t

val post_failure_costs :
  ?pool:Dtr_util.Pool.t ->
  ?model:Dtr_routing.Objective.model ->
  Scenario.instance ->
  wh:int array ->
  wl:int array ->
  Dtr_routing.Failure_sweep.outcome array
(** Price every single-link failure of the instance's graph against
    [(wh, wl)] on the delta engine, on [pool] if given (default model:
    [Load]).  One outcome per physical link in
    {!Dtr_graph.Graph.undirected_link_pairs} order — disconnecting
    failures appear as infinite-cost outcomes with their severed-pair
    counts.  Identical for every pool width.  Exposed for tests. *)
