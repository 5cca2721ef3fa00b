(** OSPF link-weight vectors: one positive integer per arc, bounded by
    [max_weight] (the paper restricts weights to [\[1, 30\]]). *)

val min_weight : int
(** 1. *)

val max_weight : int
(** 30. *)

val mid_weight : int
(** [(min_weight + max_weight) / 2] = 15: the uniform start weight of
    the searches, from which a first move can go either way. *)

val validate : Dtr_graph.Graph.t -> int array -> unit
(** @raise Invalid_argument if the length differs from the arc count or
    any weight is outside [\[min_weight, max_weight\]]. *)

val uniform : Dtr_graph.Graph.t -> int -> int array
(** All arcs get the same weight.  @raise Invalid_argument if out of
    bounds. *)

val random : Dtr_util.Prng.t -> Dtr_graph.Graph.t -> int array
(** Independent uniform draws in [\[min_weight, max_weight\]]. *)

val inverse_capacity : Dtr_graph.Graph.t -> int array
(** Cisco-style default: weight proportional to the inverse of arc
    capacity, scaled into [\[min_weight, max_weight\]] (the highest
    capacity link gets weight 1). *)

val perturb :
  Dtr_util.Prng.t -> fraction:float -> int array -> int array
(** Fresh vector with [ceil (fraction ⋅ len)] randomly chosen entries
    re-drawn uniformly — the diversification move of Algorithm 1.
    @raise Invalid_argument if [fraction] is outside [\[0, 1\]]. *)

val step :
  int array -> arc:int -> delta:int -> int array
(** Fresh vector with [arc]'s weight moved by [delta], clamped into
    bounds.  @raise Invalid_argument on a bad arc id. *)
