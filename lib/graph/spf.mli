(** Per-destination shortest-path DAGs with ECMP next-hop sets.

    This encodes the OSPF forwarding model: for destination [dst], a
    node [v] forwards over {e all} outgoing arcs [(v, u)] with
    [w(v,u) + d(u, dst) = d(v, dst)], splitting traffic evenly among
    them (Fortz–Thorup). *)

type dag = {
  dst : int;
  dist : int array;
      (** [dist.(v)]: weighted distance from [v] to [dst];
          {!Dijkstra.unreachable} when there is no path. *)
  next_arcs : int array array;
      (** [next_arcs.(v)]: arc ids on shortest paths from [v]; empty for
          [dst] itself and for unreachable nodes. *)
  order_desc : int array;
      (** Nodes that can reach [dst] (excluding [dst]), sorted by
          strictly decreasing [dist]; ties broken by node id.  Pushing
          flow in this order guarantees each node is finalized before
          its downstream neighbors. *)
}

val to_destination : Graph.t -> weights:int array -> dst:int -> dag
(** Build the DAG for one destination.
    @raise Invalid_argument as {!Dijkstra.distances_to}. *)

val of_dist : Graph.t -> weights:int array -> dst:int -> dist:int array -> dag
(** Build the DAG from an already-computed distance array (as from
    {!Dijkstra.distances_to}); the array is owned by the returned dag.
    The construction behind every full sweep: next-hop sets by
    {!node_next_arcs}, and [order_desc] by one counting pass over the
    distances, O(n + max distance) like the Dial sweep that produced
    them. *)

val node_next_arcs :
  Graph.t ->
  weights:int array ->
  dist:int array ->
  old:int array ->
  int ->
  int array
(** [node_next_arcs g ~weights ~dist ~old v] is the ECMP next-hop arc
    set of node [v], filtered from its out-arcs in arc-id order: all
    arcs [(v, u)] with [w(v,u) + dist(u) = dist(v)].  When [old]
    already holds exactly that set, [old] itself is returned and
    nothing is allocated ({!of_dist} passes [[||]]; {!Spf_delta}'s
    repairs pass the previous dag's set, so an unchanged set stays
    shared). *)

val all_destinations :
  ?ws:Dijkstra.workspace -> Graph.t -> weights:int array -> dag array
(** One DAG per destination node, indexed by node id.  [?ws] reuses
    the given Dijkstra arena across the whole sweep (a fresh one is
    used otherwise). *)

val for_destinations :
  ?ws:Dijkstra.workspace ->
  Graph.t ->
  weights:int array ->
  active:bool array ->
  dag array
(** Like {!all_destinations} but builds real DAGs only for
    destinations with [active.(dst)]; the rest get a placeholder dag
    ({!is_placeholder}) carrying just the destination id.  Callers
    must never route demand toward an inactive destination.  An
    evaluation context builds them on its demand core's
    {!Graph.induced} subgraph, at its demand destinations.
    @raise Invalid_argument if [active] has the wrong length. *)

val is_placeholder : dag -> bool
(** True for the placeholder dags produced by {!for_destinations} on
    inactive destinations (their label arrays are empty). *)

val path_count : Graph.t -> dag -> src:int -> float
(** Number of distinct shortest paths from [src] to the destination
    (as a float; can be exponential in pathological graphs).  0. if
    unreachable, 1. for [src = dst]. *)

val first_path : Graph.t -> dag -> src:int -> int list
(** One concrete shortest path (list of arc ids), choosing the
    smallest-id next arc at every step.  Empty for [src = dst].
    @raise Invalid_argument if [src] cannot reach the destination. *)
