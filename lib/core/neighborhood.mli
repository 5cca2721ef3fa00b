(** The Algorithm-2 neighborhood: rank links by cost, draw the
    candidate windows with a heavy-tailed rank distribution, and build
    [m] two-arc moves (one weight up, one weight down). *)

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
(** The {!changes} of {!apply}: the move's clamped up and down steps
    ([[]] when both arcs are already pinned at their bound).
    @raise Invalid_argument when [step < 1]. *)

val apply : move -> step:int -> int array -> int array
(** Fresh weight vector with the move applied ([step >= 1]), clamped to
    the [\[1, 30\]] weight bounds.  Identity moves (both arcs already
    pinned at their bound) still return a fresh copy. *)
