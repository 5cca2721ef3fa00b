(** Human-readable inspection of a two-class evaluation: per-link and
    per-pair tables for operators (and the CLI's [inspect] and
    [report] commands).  The single-link failure summary has one home
    here: {!robustness_rows} feeds both {!robustness_table} and the
    failure extension experiment's per-scheme table. *)

val per_link_table :
  ?top:int -> Evaluate.t -> Dtr_util.Table.t
(** One row per arc — endpoints, capacity, per-class load, residual,
    total utilization, per-class Fortz cost — sorted by decreasing
    utilization.  [top] limits the row count (default: all). *)

val per_pair_delay_table :
  ?top:int ->
  ?node_name:(int -> string) ->
  Evaluate.sla ->
  Dtr_cost.Sla.params ->
  Dtr_util.Table.t
(** High-priority SD pairs sorted by decreasing expected delay, with
    their slack against the SLA bound θ (positive margin = headroom)
    and verdicts.  [node_name] renders endpoints (default: the node
    id). *)

val utilization_percentiles_table : Evaluate.t -> Dtr_util.Table.t
(** Distribution of per-link utilization (total and high-priority
    alone) at the p10/p25/p50/p75/p90/p95/p99/p100 order statistics —
    the load-balance view of a routing. *)

val top_phi_table : ?top:int -> Evaluate.t -> Dtr_util.Table.t
(** Links sorted by their total Fortz cost [Φ_{H,l} + Φ_{L,l}], with
    each link's share of the network-wide cost — where the objective
    is actually being paid.  [top] limits the row count. *)

val convergence_table :
  ?title:string -> (int * float array) list -> Dtr_util.Table.t
(** Render a best-so-far convergence curve — [(evaluations, objective
    vector)] points, e.g. from [Dtr_core.Trace.convergence] — one row
    per improvement, the objective components joined with [" / "]. *)

val summary_table : ?sla:Evaluate.sla -> Evaluate.t -> Dtr_util.Table.t
(** Aggregates: Φ_H, Φ_L, average/max utilization, overloaded-arc
    count (utilization > 1); with [?sla] also Λ, violation /
    unreachable-pair counts and the worst pair delay. *)

val robustness_rows :
  baseline:Dtr_cost.Lexico.t -> Failure_sweep.outcome array -> string list list
(** The two rows (high class, then low) of {!robustness_table}: class,
    no-failure cost, mean finite and worst post-failure cost, and the
    disconnecting-failure count.  Callers that compare several weight
    settings in one table prefix each row with the setting's name. *)

val robustness_table :
  baseline:Dtr_cost.Lexico.t ->
  Failure_sweep.outcome array ->
  Dtr_util.Table.t
(** Per-class single-link failure robustness of a weight setting: the
    no-failure cost against the mean finite and worst post-failure
    costs over a {!Failure_sweep} outcome array, plus the
    disconnecting-failure count (worst reads [inf] when positive —
    never an optimistic skip). *)
