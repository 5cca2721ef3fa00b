(** Directed network graph.

    Nodes are integers [0 .. n-1]; arcs (directed links) carry a
    capacity (Mbps) and a propagation delay (ms) and are identified by
    dense integer ids [0 .. arc_count-1], so per-arc state (weights,
    loads, costs) lives in plain arrays.

    Physical bidirectional links are modelled as two arcs, one per
    direction, as in the paper's directed-graph formulation. *)

type arc = {
  src : int;
  dst : int;
  capacity : float;  (** Mbps; must be positive *)
  delay : float;  (** propagation delay, ms; must be non-negative *)
}

type t
(** CSR-style flat-array core: parallel per-arc rows (src, dst,
    capacity, delay) plus offset-indexed out/in adjacency.  Within a
    node's adjacency segment, arc ids appear in ascending order. *)

val build : n:int -> arc list -> t
(** [build ~n arcs] freezes an immutable graph with [n] nodes.
    @raise Invalid_argument on an endpoint out of range, a self-loop,
    a non-positive capacity or a negative delay. *)

val node_count : t -> int

val arc_count : t -> int

val arc : t -> int -> arc
(** @raise Invalid_argument on an id out of range. *)

val arcs : t -> arc array
(** All arcs, indexed by id (fresh copy). *)

val src : t -> int -> int
(** [src t id] — source node of arc [id] (O(1), no allocation). *)

val dst : t -> int -> int
(** [dst t id] — destination node of arc [id] (O(1), no allocation). *)

val capacity : t -> int -> float
(** [capacity t id] — capacity of arc [id] (O(1), no allocation). *)

val delay : t -> int -> float
(** [delay t id] — delay of arc [id] (O(1), no allocation). *)

val srcs : t -> int array
(** Flat per-arc source row, indexed by arc id (shared; do not
    mutate). *)

val dsts : t -> int array
(** Flat per-arc destination row, indexed by arc id (shared; do not
    mutate). *)

val out_offsets : t -> int array
(** CSR offsets (length [n+1]) into {!out_arc_ids}: node [v]'s
    outgoing arc ids occupy positions [out_offsets.(v)] up to
    (excluding) [out_offsets.(v+1)] (shared; do not mutate). *)

val out_arc_ids : t -> int array
(** Flat outgoing-adjacency row, one entry per arc; within each node's
    segment, ids ascend (shared; do not mutate). *)

val in_offsets : t -> int array
(** CSR offsets (length [n+1]) into {!in_arc_ids} (shared; do not
    mutate). *)

val in_arc_ids : t -> int array
(** Flat incoming-adjacency row, like {!out_arc_ids}; within each
    node's segment, ids ascend (shared; do not mutate). *)

val out_arcs : t -> int -> int array
(** Arc ids leaving a node, ascending id (fresh copy; hot paths
    should iterate {!out_offsets}/{!out_arc_ids} instead). *)

val in_arcs : t -> int -> int array
(** Arc ids entering a node, ascending id (fresh copy; hot paths
    should iterate {!in_offsets}/{!in_arc_ids} instead). *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val find_arc : t -> src:int -> dst:int -> int option
(** Lowest-id arc from [src] to [dst], if any.  Binary search over a
    per-source (dst, id)-sorted index: O(log out_degree). *)

val capacities : t -> float array
(** Per-arc capacities, indexed by arc id (cached, shared; do not
    mutate). *)

val delays : t -> float array
(** Per-arc propagation delays, indexed by arc id (cached, shared; do
    not mutate). *)

val is_strongly_connected : t -> bool
(** True when every node can reach every other node. *)

val off_core : t -> endpoints:bool array -> bool array
(** [off_core g ~endpoints] flags, per node, the nodes on no simple
    path between two distinct flagged [endpoints], taking every arc as
    an undirected edge (parallel and anti-parallel arcs included): the
    nodes of a component with fewer than two endpoints, and the nodes
    of every endpoint-free part that a single cut vertex separates from
    the endpoints.  An endpoint is never off-core, and a simple path
    (directed or not) between two nodes that are not off-core visits
    no off-core node: to enter an off-core part it must pass the cut
    vertex, and to leave, pass it again.  One lowpoint DFS, O(n + m).
    @raise Invalid_argument if [endpoints] has the wrong length. *)

val induced : t -> keep:bool array -> t * int array * int array
(** [induced g ~keep] is [(h, nodes, arcs)]: [h] is the subgraph of
    [g] on the flagged nodes and the arcs with both ends flagged,
    numbered densely, and [nodes]/[arcs] map [h]'s node and arc ids
    to [g]'s.  Both maps increase: node [i] of [h] is the [i]-th
    flagged node of [g], and arc [j] the [j]-th kept arc in id order,
    with its capacity and delay.  So every order that breaks ties by
    id, and every ascending walk over an adjacency segment, comes out
    the same in either numbering.  [h] may have no node at all.
    Evaluation contexts route each weight group on the subgraph of its
    demand core ({!off_core}).
    @raise Invalid_argument if [keep] has the wrong length. *)

val reverse : t -> t
(** Graph with every arc flipped (same arc ids). *)

val add_symmetric :
  capacity:float -> delay:float -> int -> int -> arc list -> arc list
(** [add_symmetric ~capacity ~delay u v acc] prepends both directions
    of the physical link [u—v]. *)

val undirected_link_pairs : t -> (int * int) array
(** Pairs of arc ids [(a, b)] where [b] is the reverse arc of [a] and
    [a < b]; arcs with no reverse twin appear as [(a, a)].  Useful for
    treating symmetric topologies link-wise.  Built once by {!build}
    (shared; do not mutate). *)

val to_dot : t -> string
(** Graphviz rendering (one edge per arc) for debugging. *)
