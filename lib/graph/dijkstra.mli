(** Single-destination / single-source shortest paths over integer arc
    weights (OSPF-style weights in [\[1, 30\]], but any positive ints
    work).

    Distances are computed by Dial's algorithm: bounded positive
    integer weights make tentative distances monotone integer
    priorities, so a bucket queue ({!Dtr_util.Bucket_queue}) settles
    the graph in O(m + maxdist) without a comparison heap.  The
    binary-heap and Bellman–Ford references the property tests check
    it against live in the test-only [dtr_oracle] library.

    Unreachable nodes get distance {!unreachable}. *)

val unreachable : int
(** Sentinel distance ([max_int]). *)

val suppressed : int
(** Sentinel weight ([max_int]) marking an arc as failed/absent: every
    kernel skips such arcs entirely, so a weight vector with
    suppressed entries computes distances on the surviving subgraph.
    Positive by construction, so it passes {!validate_weights} — the
    failure machinery relies on that to reuse unmodified validation
    paths. *)

type workspace
(** Preallocated scratch arena (settled set + bucket queue) reused
    across runs; the distance arrays themselves are always fresh, so
    results never alias the workspace. *)

val workspace : unit -> workspace
(** An empty arena; buffers are sized lazily on first use. *)

val distances_to : Graph.t -> weights:int array -> dst:int -> int array
(** [distances_to g ~weights ~dst] returns [d] with [d.(v)] the least
    total weight of a directed path from [v] to [dst] ([0] for [dst]
    itself).  Runs Dijkstra over incoming arcs.
    @raise Invalid_argument if [weights] has the wrong length, contains
    a non-positive weight, or [dst] is out of range. *)

val distances_to_unchecked :
  ?ws:workspace -> Graph.t -> weights:int array -> dst:int -> int array
(** {!distances_to} without the O(m) weight validation — for callers
    that validate once per weight vector ({!validate_weights}) and
    then sweep every destination ({!Spf.all_destinations}).  The O(1)
    node-range check is kept.  [?ws] reuses the given arena's scratch
    buffers instead of allocating per call.
    @raise Invalid_argument if [dst] is out of range. *)

val distances_from : Graph.t -> weights:int array -> src:int -> int array
(** Distances from [src] to every node, over outgoing arcs. *)

val validate_weights : Graph.t -> weights:int array -> unit
(** @raise Invalid_argument if [weights] has the wrong length or
    contains a non-positive entry.  O(m); callers on the per-candidate
    hot path run it once per weight vector, not once per destination. *)
