(** The Algorithm-2 neighborhood: rank links by cost, draw the
    candidate windows with a heavy-tailed rank distribution, and build
    [m] two-arc moves (one weight up, one weight down) — or, with
    probability [scan_probability], a value scan of one ranked arc.
    DTR's FindH/FindL passes and the MTR searches draw their candidates
    from {!candidates} and {!move_candidates}. *)

type move = {
  up_arc : int;  (** arc whose weight increases (from the high-cost set A) *)
  down_arc : int;  (** arc whose weight decreases (from the low-cost set B) *)
}

val rank_by_cost : cmp:(int -> int -> int) -> int -> int array
(** [rank_by_cost ~cmp n_arcs] returns arc ids sorted into decreasing
    cost order, where [cmp a b] compares the costs of arcs [a] and [b]
    (standard comparison contract); stable ties broken by arc id so
    runs are deterministic. *)

val candidate_sets :
  ?ht:Dtr_util.Dist.heavy_tail ->
  Dtr_util.Prng.t ->
  tau:float ->
  m:int ->
  ranking:int array ->
  int array * int array
(** [(a, b)]: the high-cost window A ([m] consecutive ranks starting at
    a heavy-tail-drawn rank [k1]) and the low-cost window B ([m]
    consecutive ranks ending at a heavy-tail-drawn distance [k2] from
    the bottom).  Both have length [min m n].  [ht], when given, must
    be a heavy-tail sampler over exactly the window support
    [n - min m n + 1] for the same [tau] — the tables are a pure
    function of [(tau, n)], so hoisting one out of a loop is
    draw-for-draw identical to rebuilding it here.
    @raise Invalid_argument if the ranking is empty, [m < 1], or a
    given [ht] has the wrong size. *)

val moves :
  Dtr_util.Prng.t -> a:int array -> b:int array -> move list
(** Random pairing of A and B without replacement; pairs that would
    select the same arc on both sides are dropped.  Length is at most
    [min |A| |B|]. *)

val changes : int array -> (int * int) list -> (int * int) list
(** [changes w sets] is the change list that setting arc [a] to [v]
    for each [(a, v)] of [sets] (distinct arcs) makes to [w]: ascending
    by arc, entries that leave [w] as it is dropped — exactly what
    {!Problem.weight_changes} returns for the vector [sets] produce.
    The searches build candidates this way instead of materializing a
    weight vector per candidate. *)

val move_changes : move -> step:int -> int array -> (int * int) list
(** The {!changes} of a move: its up arc raised and its down arc
    lowered by [step], clamped to the [\[1, 30\]] weight bounds ([[]]
    when both arcs are already pinned at their bound).
    @raise Invalid_argument when [step < 1]. *)

type samplers
(** The heavy-tail rank tables of one search run: a pure function of
    [(tau, m, n_arcs)], built once instead of once per pass. *)

val samplers : Search_config.t -> int -> samplers
(** [samplers cfg n_arcs]: the table over all arcs (value scans) and
    the one over the candidate-window support (two-arc moves). *)

val candidates :
  samplers ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  ranking:int array ->
  int array ->
  (int * int) list list
(** One Algorithm-2 neighborhood of [w] as change lists ({!changes}).
    One coin against [scan_probability] picks the value scan of one
    heavy-tail-ranked arc (every other value, descending) or
    {!move_candidates}.
    @raise Invalid_argument when [ranking] is not over the samplers'
    arcs. *)

val move_candidates :
  samplers ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  ranking:int array ->
  int array ->
  (int * int) list list
(** The [m_neighbors] two-arc moves of {!candidate_sets} and {!moves},
    each with its own step drawn uniformly from [\[1, max_step\]], in
    move order. *)
