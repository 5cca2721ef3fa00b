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

    One repair kernel serves two entry points.  {!update} is pure: every
    repaired dag gets fresh label, spine and order arrays (next-hop
    sets that did not change are shared with [prev]).
    {!update_scratch} runs the same screen and kernel into a {!scratch}
    the caller reuses from update to update: the kernel's stacks, heap
    and stamps, and the labels, spines and orders it writes, live in
    kept buffers whose writes are undone before reuse, so a steady
    stream of updates allocates only the next-hop sets that change.
    It also tells, per repaired destination, whether the repair can
    move any flow ({!scratch_same_flows_at}). *)

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
    change; [prev] itself is never mutated (with no effective change
    it is returned as-is).  [?ws] is ignored: the repair needs no
    {!Dijkstra} arena (its working state is the kernel's own, fresh per
    call here and kept in a {!scratch} by {!update_scratch}); callers
    that thread one arena through full sweeps may still pass it.
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
  ?off_core:bool array ->
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
    so a caller that keeps one beyond that copies it.  [prev] is never
    mutated.  Same arguments and exceptions as {!update}; an exception
    leaves [s] usable.

    [off_core] masks the repair with a {!Graph.off_core} set: the
    kernel never marks, seeds, settles or re-sets a flagged node,
    never seeds a node from a flagged out-neighbour or over a dropped
    arc with a flagged end, leaves flagged heads out of every next-hop
    set it recomputes, and ignores flagged tails in the same-flow
    rule.  At a destination that is not flagged, every unflagged node
    then gets {!update}'s label and next-hop set, and the unflagged
    nodes keep {!update}'s order among themselves (a simple path
    between unflagged nodes visits no flagged one); flagged nodes keep
    [prev]'s labels and sets, which may be stale.  The dirty list is
    the unmasked one, though a masked repair may leave a dirty dag as
    it was, and the same-flow flags describe the masked dags.  A
    caller that masks keeps every flow-carrying node unflagged, and
    repairs again without the mask where it needs dags exact at every
    node.
    @raise Invalid_argument also if [off_core] has the wrong length. *)

val scratch_dags : scratch -> Spf.dag array
(** The dags of the last {!update_scratch} (treat as immutable). *)

val scratch_dirty : scratch -> int
(** How many destinations the last {!update_scratch} repaired. *)

val scratch_dirty_at : scratch -> int -> int
(** [scratch_dirty_at s i] is the [i]-th dirty destination
    ([0 <= i < scratch_dirty s]), ascending. *)

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
