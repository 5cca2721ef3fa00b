(** Evaluation scenarios (paper §5.1): topology + two-class traffic
    matrices, reproducibly derived from a seed, with demand scaling to
    hit a target average link utilization. *)

type topology_kind =
  | Random_topo  (** 30 nodes / 150 links (paper Fig. 2a) *)
  | Power_law  (** 30 nodes / 162 links, preferential attachment *)
  | Isp  (** the 16-node / 70-arc backbone *)
  | Waxman  (** 30-node geographic Waxman graph (extension) *)
  | Transit_stub  (** 28-node two-level transit-stub graph (extension) *)
  | Abilene  (** the 11-node Abilene research backbone (extension) *)
  | Large of Dtr_topology.Large.preset
      (** real-ISP-scale preset (1k-10k nodes): PoP-level gravity
          demand, the high class a [Random_density]-probability subset
          of the low-class pairs at [fraction] of each pair's volume;
          {!problem} and {!reference_avg_utilization} switch to
          demand-only destination DAGs.  [Sinks] placement is
          rejected. *)

val topology_name : topology_kind -> string

type hp_model =
  | Random_density of float
      (** fraction [k] of all SD pairs carries high-priority traffic *)
  | Sinks of {
      sinks : int;  (** how many top-degree nodes act as sinks *)
      density : float;  (** target fraction of SD pairs, sets client count *)
      placement : Dtr_traffic.Highpri.placement;
    }

type spec = {
  topology : topology_kind;
  fraction : float;  (** f: high-priority share of total volume *)
  hp : hp_model;
  seed : int;
}

type instance = {
  graph : Dtr_graph.Graph.t;
  th : Dtr_traffic.Matrix.t;
  tl : Dtr_traffic.Matrix.t;
  spec : spec;
}

val make : spec -> instance
(** Generate topology and matrices from the seed (two independent
    PRNG streams, so the topology does not change when traffic
    parameters do).
    @raise Invalid_argument, before generating anything, if [fraction]
    is outside [(0, 1)] or the density (of [Random_density] or
    [Sinks]) is outside [\[0, 1\]], NaN included; and on a [Large]
    spec with [Sinks] placement. *)

val scale_to_utilization : instance -> target:float -> instance
(** Scale both matrices by a common factor so that the average link
    utilization under mid-range uniform STR weights equals [target].
    The utilization under optimized weights then lands close to (and
    is always re-measured at) the target.
    @raise Invalid_argument on a target that is not positive and
    finite. *)

val reference_avg_utilization :
  Dtr_graph.Graph.t -> Dtr_traffic.Matrix.t array -> float
(** Average link utilization of any number of traffic classes (their
    loads summed per arc) under one mid-range uniform weight vector
    shared by every class: the reference that {!scale_to_utilization}
    and the three-class extension ({!Multi_class.problem}) scale demand
    against. *)

val problem :
  instance -> model:Dtr_routing.Objective.model -> Dtr_core.Problem.t
(** Wrap into an optimization problem. *)
