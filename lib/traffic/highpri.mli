(** High-priority traffic models (paper §5.1.2).

    Two pair-selection models — {e random} (a fraction [k] of all SD
    pairs) and {e sink} (popular servers with bidirectional client
    traffic) — combined with a volume model that makes high-priority
    traffic a fraction [f] of the total network traffic, with per-pair
    heterogeneity [m(s,t) ~ Uniform(1, 4)]. *)

val random_pairs :
  Dtr_util.Prng.t -> n:int -> density:float -> (int * int) list
(** [random_pairs g ~n ~density] selects
    [round (density ⋅ n ⋅ (n−1))] distinct ordered SD pairs.
    @raise Invalid_argument if [density] is outside [\[0, 1\]] (NaN
    included) or [n < 2]. *)

val sink_pairs : sinks:int array -> clients:int array -> (int * int) list
(** Bidirectional pairs between every client and every sink (clients
    and sinks must be disjoint; duplicates rejected).
    @raise Invalid_argument on overlap or duplicates. *)

type placement =
  | Uniform  (** clients drawn uniformly among non-sink nodes *)
  | Local
      (** clients are the non-sink nodes nearest (hop count) to any
          sink, emulating §5.2.3's "Local" scenario *)

val select_clients :
  Dtr_util.Prng.t ->
  Dtr_graph.Graph.t ->
  sinks:int array ->
  count:int ->
  placement ->
  int array
(** Choose [count] client nodes.  @raise Invalid_argument if [count]
    exceeds the number of non-sink nodes. *)

val client_count_for_density :
  n:int -> sinks:int -> density:float -> int
(** Number of clients such that the bidirectional client–sink pairs
    make up (approximately) a fraction [density] of all [n(n−1)]
    ordered pairs: [round (density ⋅ n ⋅ (n−1) / (2 ⋅ sinks))],
    clamped to [\[1, n − sinks\]]. *)

val volumes :
  Dtr_util.Prng.t ->
  low:Matrix.t ->
  fraction:float ->
  pairs:(int * int) list ->
  Matrix.t
(** [volumes g ~low ~fraction ~pairs] builds the high-priority matrix:
    total volume [η_L ⋅ f / (1 − f)] (so the high-priority share of
    all traffic is [f]), split across [pairs] proportionally to
    independent [Uniform(1,4)] marks.
    @raise Invalid_argument if [fraction] is outside [(0, 1)] (NaN
    included) or [pairs] is empty or contains a diagonal pair. *)
