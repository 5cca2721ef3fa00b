(** ECMP load distribution: project a traffic matrix onto per-arc
    loads under the OSPF forwarding model (even splitting across all
    shortest-path next hops, per destination), one destination at a
    time.  {!Eval_ctx} sums the per-destination contributions into
    load totals. *)

val destination_loads :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  float array
(** One destination's per-arc load contribution: the even-split
    projection of [demand_to_dst] onto the dag's arcs.  A class's
    loads are the sum of these over all destinations in ascending
    order, which is exactly how {!Eval_ctx} patches totals — each arc
    receives at most one share per destination, so subtotals
    recombine bitwise-identically. *)

val destination_loads_into :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  flow:float array ->
  contrib:float array ->
  unit
(** Arena variant of {!destination_loads}: writes the contribution
    into the caller-owned [contrib] row (length >= arc count) using
    [flow] (length >= node count) as flow scratch.  Both buffers are
    fully reinitialized, so they can be reused across destinations;
    the resulting shares are bitwise identical to
    {!destination_loads}, and [flow] is left holding each node's
    throughflow (own demand plus transit).
    @raise Invalid_argument on a length mismatch or undersized
    scratch. *)

val destination_demand :
  dag:Dtr_graph.Spf.dag -> Dtr_traffic.Matrix.t -> float array option
(** The demand column towards [dag.dst] ([None] when no source has
    positive demand).  Reachability does not depend on (positive)
    weights, so the column can be gathered once and reused across
    re-routings.
    @raise Invalid_argument on positive demand between a pair with no
    path. *)
