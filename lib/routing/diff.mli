(** Weight-diff churn engine: compare two settings of the same problem
    and report exactly what a deployment would move.

    Operators accept a weight change only if they can see what
    reroutes and what the transition costs.  Given two evaluation
    contexts of the same problem (same graph, same matrices), this
    module computes, per class:

    - the changed arcs (weight before/after);
    - the rerouted OD pairs — a pair (s, t) counts as rerouted when
      the ECMP next-hop structure its flow traverses differs between
      the two settings, detected exactly by diffing per-destination
      DAG membership and propagating "uses an affected node" flags
      backward through both DAGs;
    - the traffic moved, [Σ_a |Δload_a|] (each unit of rerouted flow
      counts once where it left and once where it landed);
    - the Φ / utilization deltas (and Λ under the SLA model);

    plus the MT-OSPF reconvergence price of deploying the diff as one
    batch ({!reconvergence}, via {!Dtr_mtospf.Network.apply_changes}).

    Everything is a pure function of the two committed states:
    results are identical for every [jobs] value (per-destination
    work is folded back in ascending destination order). *)

type class_diff = {
  cd_changed_arcs : (int * int * int) list;
      (** (arc, weight before, weight after), ascending by arc *)
  cd_rerouted_pairs : int;
  cd_total_pairs : int;  (** positive-demand OD pairs of the class *)
  cd_rerouted_demand : float;
  cd_total_demand : float;
  cd_traffic_moved : float;  (** [Σ_a |Δload_a|] *)
  cd_phi_before : float;
  cd_phi_after : float;
  cd_load_delta : float array;  (** per-arc [load_B − load_A] *)
}

type t = {
  classes : class_diff array;
  changed_arcs : int;  (** distinct (class, arc) weight changes *)
  avg_util_before : float;
  avg_util_after : float;
  max_util_before : float;
  max_util_after : float;
  lambda : (float * float) option;
      (** SLA penalty Λ before/after, when requested *)
}

val is_empty : t -> bool
(** No changed arcs, no rerouted pair, no load moved — the self-diff
    of any context. *)

val compute :
  ?jobs:int ->
  ?sla:Dtr_cost.Sla.params * Dtr_traffic.Matrix.t ->
  Eval_ctx.t ->
  Eval_ctx.t ->
  t
(** [compute ctxA ctxB] diffs two committed states of the same
    problem.  [jobs] parallelizes the per-destination DAG diff over a
    domain pool (default 1; the result is bit-identical for every
    value).  [sla] (params and the high-priority matrix) additionally
    prices Λ before/after, each state's own SLA costing of class 0's
    routing ({!Eval_ctx.sla}).
    @raise Invalid_argument when the contexts disagree on graph
    (physical equality) or class structure. *)

val of_changes :
  ?jobs:int ->
  ?sla:Dtr_cost.Sla.params * Dtr_traffic.Matrix.t ->
  Eval_ctx.t ->
  klass:int ->
  changes:(int * int) list ->
  t
(** Diff the incumbent against the candidate obtained by applying
    [changes] to [klass]'s weight vector — probe/commit against a
    throwaway clone; the given context is not modified. *)

type reconvergence = {
  rc_changes : int;  (** weight changes applied (over all topologies) *)
  rc_routers : int;  (** routers that re-originated *)
  rc_stats : Dtr_mtospf.Network.flood_stats;
      (** LSA flooding cost of the batched update *)
}

val reconvergence : Eval_ctx.t -> Eval_ctx.t -> reconvergence
(** Price deploying the diff through the MT-OSPF control plane: build
    a converged area on [ctxA]'s weight vectors (one topology per
    class), apply every changed weight as one batch
    ({!Dtr_mtospf.Network.apply_changes}) and report the reflood
    cost.  Zero stats for an empty diff. *)

val class_label : t -> int -> string
(** ["H"]/["L"] for two-class diffs, ["class k"] otherwise. *)

val summary_table : t -> Dtr_util.Table.t
(** Per-class churn summary: changed arcs, rerouted pairs/demand,
    traffic moved, Φ before/after, plus network-wide utilization (and
    Λ) deltas. *)

val changed_arcs_table :
  ?top:int -> Eval_ctx.t -> t -> Dtr_util.Table.t
(** Per-arc detail of the diff, sorted by decreasing [|Δload|] summed
    over classes: endpoints, per-class weight change and load delta.
    Covers arcs with a weight change or a load change; [top] limits
    the rows (default 20).  The context argument supplies arc
    endpoints/capacities (either side of the diff works). *)

val reconvergence_table : reconvergence -> Dtr_util.Table.t

val to_json : ?reconv:reconvergence -> t -> string
(** Deterministic JSON document (floats as ["%.17g"], arrays in
    ascending order): the churn numbers per class, the network-wide
    deltas, and the reconvergence price when given.  Per-arc load
    deltas are summarized (count of moved arcs), not dumped. *)
