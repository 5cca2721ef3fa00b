(** Extension experiment (not in the paper): robustness of optimized
    weight settings to single-link failures.

    OSPF/MT-OSPF reacts to a failure by re-running SPF on the surviving
    topology with the {e same} weights — no re-optimization.  This
    experiment optimizes STR and DTR weights on the ISP backbone, then
    fails each physical (bidirectional) link in turn and re-prices both
    classes on the surviving topology.  Reported per scheme: the
    no-failure cost, the mean over finite post-failure costs, the worst
    post-failure cost, and the disconnecting-failure count — the rows
    of {!Dtr_routing.Report.robustness_rows}, each prefixed with the
    scheme's name.

    Failures that sever positive demand are {e not} skipped: they are
    priced as infinite outcomes (with their severed-pair counts), so
    the worst-case column reads [inf] whenever the topology has a
    demand-carrying cut link.  Each scheme is priced by
    {!Dtr_core.Problem.failure_outcomes} on a context rebuilt from its
    best solution's DAGs: each failure is an arc-suppression probe on
    the delta engine, patching only the destinations whose
    shortest-path DAGs used the failed link.  The experiment sweeps
    sequentially: [experiment --jobs] parallelizes across experiments,
    not within this one. *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?target_util:float ->
  unit ->
  Dtr_util.Table.t
