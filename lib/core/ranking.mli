(** Cached cost-sorted arc rankings, repaired incrementally across
    context commits.

    A full {!Neighborhood.rank_by_cost} is O(m log m) per search
    iteration; a commit moves the cost rows of only a handful of arcs.
    [arcs] returns exactly the array a full sort would (the ordering's
    arc-id tiebreak makes the sorted permutation unique), but when the
    cache is warm it only re-sorts the arcs whose Φ_H or Φ_L entry
    differs from the core rows it last sorted under
    ({!Problem.ctx_core_costs}) and merges them back.

    A ranking sorts only the live arcs: those the comparator ranks
    above a zero-cost arc (zero Φ_H and Φ_L), its reference.  The arcs
    that tie with the reference, every zero-cost arc under the
    load-model comparators, are appended in id order unsorted.  When an
    arc ranks below the reference (a zero-cost arc is not minimal, as
    under the SLA delay order) the whole ranking is sorted and repaired
    as one run instead.

    A cache is valid for one context (physical identity) and falls
    back to a full sort whenever the context changed identity (a
    search starts a new context after every full evaluation).  Callers
    must treat the returned array as read-only; it stays valid until
    the next [arcs] call on the same cache. *)

type t

val create : unit -> t
(** An empty cache (no context, no ranking). *)

val arcs : t -> Problem.ctx -> cmp:(int -> int -> int) -> int -> int array
(** [arcs t ctx ~cmp n_arcs] is bitwise
    [Neighborhood.rank_by_cost ~cmp n_arcs] for the context's current
    cost rows, served from the repaired cache when possible.  [cmp]
    must be freshly derived from [ctx] (e.g.
    {!Problem.ctx_arc_cmp_h}[ problem ctx] this iteration — the
    closures snapshot live rows, which commits replace), it must order
    an arc by its own entries of the two rows (and constants of the
    arc), and one cache serves one comparator. *)
