(** Incremental shortest-path recomputation after arc-weight changes.

    Local search probes thousands of one- and two-weight changes per
    iteration; rebuilding all [N] destination DAGs
    ({!Spf.all_destinations}) for each probe wastes almost all of that
    work, because a change to arc [(u, v)] can only affect destinations
    whose labels or next hops actually move.  {!update} screens every
    destination in O(1) per change against the previous labels, keeps
    each clean destination's dag (physically shared), and repairs every
    other one under the whole change batch at once (Ramalingam–Reps):

    - mark the nodes whose every old shortest path uses a raised or
      suppressed arc;
    - re-settle only those nodes and the ones a dropped arc improves,
      with a Dijkstra over a binary heap of packed (label, node) keys,
      seeded from the unaffected frontier, that skips suppressed arcs
      (no bucket queue: that stays with the full runs of {!Dijkstra});
    - recompute next-hop sets only at nodes whose label moved, their
      in-neighbours over arcs that were or became tight, and the tails
      of changed arcs, each compared in place against the old set and
      kept, physically, when equal;
    - merge the moved nodes into the previous traversal order, sharing
      the order and the labels when no label moves.

    Results are structurally identical to a from-scratch
    {!Spf.all_destinations} under the new weights, for any batch:
    labels are the unique shortest distances, next-hop sets come from
    the same {!Spf.node_next_arcs}, and the order is the same
    (distance desc, id asc) permutation.

    The screen and the kernel run into a {!scratch} ({!update_scratch}),
    whose kept buffers hold the kernel's state and the labels, spines
    and orders it writes, undone before reuse: a caller that reuses one
    allocates only the next-hop sets that change.  {!update} is the
    pure form, a fresh scratch and then {!scratch_copy}.  The kernel
    repairs whatever graph it is handed; evaluation contexts hand it
    their demand cores' {!Graph.induced} subgraphs, so its state, the
    dags and the slots are all sized to the core. *)

type change = {
  arc : int;  (** arc id whose weight changed *)
  before : int;  (** weight the [prev] dags were built with *)
  after : int;  (** new weight; must equal [weights.(arc)] *)
}

val update :
  ?ws:Dijkstra.workspace ->
  ?active:bool array ->
  Graph.t ->
  weights:int array ->
  prev:Spf.dag array ->
  changes:change list ->
  Spf.dag array * int list
(** [update g ~weights ~prev ~changes] returns the destination DAGs
    under the new [weights] together with the list of {e dirty}
    destinations — those whose dag differs from [prev] — in ascending
    order.  Unaffected destinations share their dag physically with
    [prev], and a repaired dag shares every next-hop set that did not
    change; [prev] itself is never mutated (with no dirty destination
    it is returned as-is).  Each call allocates a fresh {!scratch}; a
    caller that updates often keeps one.  [?ws] is ignored: the repair
    needs no {!Dijkstra} arena; callers that thread one arena through
    full sweeps may still pass it.
    [weights] must be the full new weight vector and [changes] the
    arcs on which it differs from the vector [prev] was computed with;
    a change may fail an arc ([after = Dijkstra.suppressed]) or restore
    one ([before] suppressed).  [?active] restricts the screen to the
    flagged destinations, any mask the caller chooses per call (a
    demand-only context's demand destinations, whose [prev] holds
    placeholder dags elsewhere, or the destinations a probe's flow
    screen keeps); inactive destinations always keep their previous
    dag and are never reported dirty.
    @raise Invalid_argument on length mismatches, non-positive
    weights, a [change] whose [after] disagrees with [weights], or a
    distance label too large to pack beside a node id (above
    [max_int] shifted right by the bits of [node_count - 1]). *)

val touches : Graph.t -> Spf.dag -> change -> bool
(** [touches g dag c] is the O(1) label test {!update} screens a
    destination with, from [dag]'s labels alone: whether [c] can alter
    [dag] at all — a drop whose new cost reaches its tail's label, or a
    raise of an arc that was tight.  A destination that no change of a
    batch touches is clean, and {!update} keeps its dag; a no-op change
    ([before = after]) touches nothing. *)

type scratch
(** Reusable state for {!update_scratch}: the repair kernel's working
    state (int stacks, heap, per-node stamps, O(n) words), a
    per-destination dag view, and one repair slot (labels, next-hop
    spine, two write logs and orders, about [4n] words) per
    destination it has repaired, created by that destination's first
    repair — about as much memory as the dags themselves.  After the
    updates of a fixed sequence have run once, running it again
    allocates only next-hop sets that change.  Owned by one caller at a
    time (not domain-safe): each evaluation context and each clone
    holds its own. *)

val scratch : unit -> scratch

val update_scratch :
  scratch ->
  ?active:bool array ->
  Graph.t ->
  weights:int array ->
  prev:Spf.dag array ->
  changes:change list ->
  unit
(** [update_scratch s g ~weights ~prev ~changes] is {!update} into
    [s]: afterwards {!scratch_dags} holds the dags under [weights]
    (structurally those {!update} returns: [prev]'s own dag at every
    clean destination, and [prev]'s next-hop set at every node whose
    set did not change) and {!scratch_dirty_at} the dirty
    destinations in ascending order.  Both stay valid until the next
    [update_scratch] on [s]; the repaired dags live in [s]'s buffers,
    so a caller that keeps them beyond that copies them
    ({!scratch_copy}).  [prev] is never
    mutated.  Same arguments and exceptions as {!update}; an exception
    leaves [s] usable. *)

val scratch_dags : scratch -> Spf.dag array
(** The dags of the last {!update_scratch} (treat as immutable). *)

val scratch_dirty : scratch -> int
(** How many destinations the last {!update_scratch} repaired. *)

val scratch_dirty_at : scratch -> int -> int
(** [scratch_dirty_at s i] is the [i]-th dirty destination
    ([0 <= i < scratch_dirty s]), ascending. *)

val scratch_copy : scratch -> Spf.dag array
(** The dags of the last {!update_scratch} in arrays the caller owns,
    which later updates on the scratch leave as they are: [prev]'s dag
    at every clean destination, and fresh labels, spine and order at a
    dirty one ([prev]'s where they did not move; next-hop sets are
    never written, so they stay shared).  [prev] itself when no
    destination is dirty. *)

val scratch_same_flows_at : scratch -> int -> bool
(** [scratch_same_flows_at s i] is [true] when the repair of the
    [i]-th dirty destination ([0 <= i < scratch_dirty s]) cannot move
    any flow toward it: it replaced no next-hop set, and at the head
    of every changed arc on the dag (other than the destination) the
    arc's tail kept its place, in the new traversal order, among the
    head's upstream neighbours.  Then the ECMP even-split walk over the
    new dag ({!Dtr_routing.Loads}) adds the same shares in the same
    order as over the old one, so every per-arc contribution is
    bitwise the old one, for any demand.  The converse does not hold:
    a [false] destination may still keep its flows. *)
