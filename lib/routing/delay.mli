(** Per-arc and end-to-end mean delays for high-priority traffic
    (paper Eq. 3), averaged over ECMP splits, written into
    caller-owned rows: the kernels of the SLA fold
    ({!Evaluate.sla_lambda}). *)

val core_delays_into :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  arcs:int array ->
  phi_h_per_arc:float array ->
  float array ->
  unit
(** Mean delay (ms) of the arcs [arcs] of the graph (a demand core's,
    in its ids; every arc in an identity core) given their Fortz costs
    of high-priority traffic: entry [j] of the row, of at least
    [arcs]' length, is the delay of arc [arcs.(j)] under the cost
    [phi_h_per_arc.(j)].  @raise Invalid_argument on a length
    mismatch. *)

val expected_into :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  arc_delay:float array ->
  float array ->
  unit
(** [xi.(v)]: expected delay from [v] to [dag.dst] when flow splits
    evenly at every ECMP hop, written into a caller-owned row of at
    least node-count length (fully overwritten); [xi.(dst) = 0.];
    [nan] for unreachable nodes. *)
