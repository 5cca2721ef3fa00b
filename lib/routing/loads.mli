(** ECMP load distribution: project one destination's demand onto
    per-arc load shares under the OSPF forwarding model (even splitting
    across all shortest-path next hops).  {!Eval_ctx} walks each
    demand destination of a class into its own contribution row and
    sums the rows into load totals in ascending destination order;
    each arc receives at most one share per destination, so patched
    totals recombine bitwise-identically. *)

val spread_demand :
  Dtr_graph.Graph.t ->
  dag:Dtr_graph.Spf.dag ->
  demand_to_dst:float array ->
  flow:float array ->
  contrib:float array ->
  bool
(** [spread_demand g ~dag ~demand_to_dst ~flow ~contrib] walks the
    demand toward [dag]'s destination down the dag, upstream nodes
    first, splitting each node's flow evenly over its next-hop arcs,
    and adds every share into [contrib] (length >= arc count).  The
    caller keeps [contrib] zero wherever a share can land (the
    next-hop arcs of the nodes that carry flow), so a zeroed row comes
    out as the destination's contribution.  [flow] (length >= node
    count) is scratch, seeded from [demand_to_dst] (a blit of the
    whole row), so it can be reused across destinations; it is left
    holding the throughflow (own demand plus transit) of each node of
    the order.  The walk reads a node's next-hop set only when the node
    carries flow.  Returns [true] when the walk split some positive
    flow into zero shares (the quotient underflowed): only then can a
    node with positive flow have a next-hop arc that carries none.
    @raise Invalid_argument on a demand length mismatch or undersized
    scratch. *)
