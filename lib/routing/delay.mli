(** Per-arc and end-to-end mean delays for high-priority traffic
    (paper Eq. 3), averaged over ECMP splits, written into
    caller-owned rows: the kernels of the SLA fold
    ({!Evaluate.sla_lambda}). *)

val arc_delays_into :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  phi_h_per_arc:float array ->
  float array ->
  unit
(** Mean delay (ms) of every arc given the per-arc Fortz cost of
    high-priority traffic, written into a caller-owned row of at least
    arc-count length.  @raise Invalid_argument on a length
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
