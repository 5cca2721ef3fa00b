(** Generalization of {!Evaluate} to [T >= 2] traffic classes under
    strict priority queueing: class 0 is served first, class [i] sees
    the residual capacity left by classes [0 .. i-1].  A view of an
    evaluation context ({!Eval_ctx.to_multi}), which routes each class
    on its own weight vector (physically equal vectors share one SPF)
    and charges it the Fortz cost against the capacity left by
    higher-priority classes.

    The paper's DTR is the special case [T = 2]; this module is the
    substrate for the multi-topology extension the paper points to
    (RFC 4915 supports up to 128 topologies). *)

type t = {
  graph : Dtr_graph.Graph.t;
  dags : Dtr_graph.Spf.dag array Lazy.t array;
      (** [dags.(k)]: per-destination DAGs of class [k]'s weights, built
          when first forced (one lazy value per weight vector, shared
          by the classes that route on it) *)
  loads : float array array;  (** [loads.(k).(arc)] *)
  capacity_seen : float array array;
      (** [capacity_seen.(k).(arc)]: residual capacity available to
          class [k] ([capacity_seen.(0)] is the raw capacity) *)
  phi_per_arc : float array array;
      (** Fortz cost of class [k] on each arc, against the residual *)
  phi : float array;  (** per-class totals [Φ_k] *)
}

val class_count : t -> int

val objective : t -> float array
(** The lexicographic objective vector: per-class [Φ_k], highest
    priority first (fresh copy). *)

val compare_objective : float array -> float array -> int
(** Lexicographic comparison of objective vectors.
    @raise Invalid_argument on length mismatch. *)

val utilization : t -> float array
(** Per-arc total utilization across all classes. *)

val avg_utilization : t -> float
