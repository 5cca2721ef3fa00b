(** Per-arc and end-to-end mean delays for high-priority traffic
    (paper Eq. 3), averaged over ECMP splits. *)

val arc_delays :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  phi_h_per_arc:float array ->
  float array
(** Mean delay (ms) of every arc given the per-arc Fortz cost of
    high-priority traffic.  @raise Invalid_argument on length
    mismatch. *)

val arc_delays_into :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  phi_h_per_arc:float array ->
  float array ->
  unit
(** {!arc_delays} written into a caller-owned row of at least arc-count
    length.  @raise Invalid_argument on a length mismatch. *)

val expected_to_destination :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  arc_delay:float array ->
  float array
(** [xi.(v)]: expected delay from [v] to [dag.dst] when flow splits
    evenly at every ECMP hop; [xi.(dst) = 0.]; [nan] for unreachable
    nodes. *)

val expected_into :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  arc_delay:float array ->
  float array ->
  unit
(** {!expected_to_destination} written into a caller-owned row of at
    least node-count length (fully overwritten). *)

type pair_delay = Reachable of float | Unreachable
(** A disconnected SD pair is a data condition (failure sweeps evaluate
    deliberately cut topologies), not an error. *)

val pair_delays :
  Dtr_graph.Graph.t ->
  dags:Dtr_graph.Spf.dag array ->
  arc_delay:float array ->
  pairs:(int * int) list ->
  (int * int * pair_delay) list
(** Expected delays for specific SD pairs; [Unreachable] for pairs with
    no path instead of raising mid-sweep. *)
