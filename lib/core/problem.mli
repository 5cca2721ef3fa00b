(** A weight-optimization problem instance: network, the two traffic
    matrices, and the objective model — and the one place the searches
    evaluate weight settings.  Every evaluation, from scratch or
    incremental, runs on {!Dtr_routing.Eval_ctx}. *)

type t = {
  graph : Dtr_graph.Graph.t;
  th : Dtr_traffic.Matrix.t;  (** high-priority traffic matrix *)
  tl : Dtr_traffic.Matrix.t;  (** low-priority traffic matrix *)
  model : Dtr_routing.Objective.model;
  dest_mode : Dtr_routing.Eval_ctx.dest_mode;
      (** Always [Demand], and read by nothing here: every evaluation
          routes to the demand destinations on the demand cores
          ({!Dtr_routing.Eval_ctx}).  Kept because perfbench's probe
          replay, its last reader, names it. *)
}

val create :
  graph:Dtr_graph.Graph.t ->
  th:Dtr_traffic.Matrix.t ->
  tl:Dtr_traffic.Matrix.t ->
  model:Dtr_routing.Objective.model ->
  t
(** [dest_mode] is [Demand].
    @raise Invalid_argument on a size mismatch or a graph that is not
    strongly connected (the paper's model needs all pairs routable). *)

type solution = {
  wh : int array;
  wl : int array;
  result : Dtr_routing.Objective.result;
}
(** An evaluated weight setting.  For STR solutions [wh == wl]
    (physical equality is preserved so re-evaluations stay cheap). *)

val objective : solution -> Dtr_cost.Lexico.t

val eval_dtr : t -> wh:int array -> wl:int array -> solution
(** Evaluate a dual setting from scratch: build an
    {!Dtr_routing.Eval_ctx} and materialize it, as {!ctx_solution}
    does (the arrays are defensively copied).  Counted in the
    [dtr_eval_full_total] metric. *)

val eval_str : t -> w:int array -> solution
(** Evaluate a single-topology setting ([wh == wl] in the result). *)

val is_str : solution -> bool

(** {2 Incremental evaluation}

    The search inner loops scan many candidates that differ from the
    incumbent in one or two arc weights.  A {!ctx} keeps the incumbent's
    full evaluation state live (per-destination DAGs, per-destination
    load contributions, the residual cascade, per-arc Fortz costs, via
    {!Dtr_routing.Eval_ctx}), so each candidate costs a {!eval_delta}
    probe — recompute only the destinations the changed arc can affect —
    instead of a from-scratch SPF + load projection.  Probes are
    numerically {e bitwise} identical to {!eval_str} / {!eval_dtr}, so
    switching a search loop to the delta engine preserves its exact
    trajectory for a fixed seed.

    Protocol: take any number of probes from the same context state
    (apply/undo — probes never modify the committed state) and drop
    the losers.  A delta is a view of the context's probe arena
    ({!Dtr_routing.Eval_ctx}): it can be committed with
    {!commit_delta} (advancing the context) only until the context's
    next {!eval_delta}, failure sweep, commit or sync, so a scan
    re-probes its winner before committing it.  Every candidate is a
    probe.  Under
    the SLA model a change that moves [W_H] (any STR change, any [`H]
    change) may move every H path delay, so its probe re-walks the
    delays over its own H DAGs and Φ_H row in the context's SLA scratch
    ({!Dtr_routing.Evaluate.sla_lambda}); a [`L] change leaves Λ as the
    context's. *)

type ctx
(** Live evaluation state of an incumbent solution. *)

type cls = [ `H | `L ]
(** Which class's weight vector a change targets.  For an STR context
    the classes share one vector, so either value moves both. *)

val ctx_of_solution : t -> solution -> ctx
(** Build a context from an evaluated solution: a solution carries
    numbers only, so its weights are routed again (one SPF sweep per
    weight group, on its demand core), and its SLA costing, if any, is
    kept. *)

val eval_dtr_ctx : t -> wh:int array -> wl:int array -> solution * ctx
(** {!eval_dtr}, also handing over the context the evaluation built,
    already in step with the solution: a search starts probing on it
    instead of rebuilding one with {!ctx_of_solution}.  A search that
    goes back to a point it evaluated before syncs a kept clone
    instead ({!clone_ctx}, {!sync_ctx}). *)

val eval_str_ctx : t -> w:int array -> solution * ctx
(** {!eval_str} with its context, as {!eval_dtr_ctx}. *)

val ctx_is_str : ctx -> bool
(** Whether the context's classes share one weight vector. *)

val ctx_weights : ctx -> cls -> int array
(** A class's current weight vector (fresh copy). *)

val ctx_weights_view : ctx -> cls -> int array
(** A class's current weight vector {e without} copying
    ({!Dtr_routing.Eval_ctx.weights_view}).  Commits replace the
    array, so a held view is a stable snapshot — but callers must
    never mutate it. *)

val ctx_cost_rows : ctx -> float array * float array
(** The context's per-arc Fortz cost rows [(Φ_H, Φ_L)]
    ({!Dtr_routing.Eval_ctx.phi_per_arc}), shared, never to be
    mutated.  Commits replace a row rather than mutate it, so a held
    pair is a stable snapshot: an arc whose two entries equal the
    snapshot's bitwise keeps its {!ctx_arc_cmp_h}/{!ctx_arc_cmp_l}
    order against every other such arc, which is what {!Ranking}
    repairs its cached order from. *)

val ctx_dags : ctx -> Dtr_graph.Spf.dag array * Dtr_graph.Spf.dag array
(** The context's per-destination DAGs [(H, L)] in the graph's ids
    ({!Dtr_routing.Eval_ctx.dags}; treat as immutable): the routing
    behind its cost rows, which solutions do not carry. *)

val ctx_base_key : ctx -> int
(** Zobrist base key of the context's current weight vectors:
    [Vhash.vector ~cls:0] of {!ctx_weights_view} [`H] XOR
    [Vhash.vector ~cls:1] of {!ctx_weights_view} [`L] — the key
    {!Scan.evaluate} shifts its memo keys from.  Rehashed on every call
    (O(arcs), once per scan). *)

val clone_ctx : t -> ctx -> ctx
(** A context evaluating identically to [ctx] but owning its mutable
    state ({!Dtr_routing.Eval_ctx.clone}), so another domain can probe
    it concurrently, or keep a state to return to.  Clones are kept in
    step with {!sync_ctx}: the scan engine allocates one per worker and
    reuses it across iterations, and a search run keeps one at its
    best ({!Incumbent}). *)

val sync_ctx : src:ctx -> dst:ctx -> unit
(** Resynchronize a clone with its original, either way round, by
    blitting the shared-row spine (no re-evaluation): commits replace
    rows and never rebuild the context, so the blit reproduces [src]'s
    evaluation state exactly.
    @raise Invalid_argument on incompatible contexts. *)

val ctx_arc_cmp_h : t -> ctx -> int -> int -> int
(** Comparator ranking arcs by the high-priority link cost (load
    model: [(Φ_H,l, Φ_L,l)]; SLA: [(delay_l, Φ_L,l)]), read from the
    live context's rows and ordered as untolerated
    {!Dtr_cost.Lexico.compare} on those pairs, without allocating [m]
    cost records per iteration. *)

val ctx_arc_cmp_l : t -> ctx -> int -> int -> int
(** Same for the low-priority ranking ([Φ_L,l] only). *)

val ctx_solution : t -> ctx -> solution
(** Materialize the context's current state as a solution.  O(arcs):
    the solution snapshots the context's arrays, which later commits
    replace rather than mutate. *)

val weight_changes : int array -> int array -> (int * int) list
(** [weight_changes base w'] lists the [(arc, new_value)] pairs where
    [w'] differs from [base], ascending by arc. *)

type delta
(** An evaluated candidate: objective plus whatever is needed to
    install it. *)

val eval_delta :
  ?count:bool -> t -> ctx -> cls:cls -> changes:(int * int) list -> delta
(** Evaluate the candidate obtained by applying [changes] to [cls]'s
    current weight vector, as a probe against the context.  Counted in
    the [dtr_eval_delta_total] metric; [~count:false] suppresses the
    count: the scan engine uses it to re-derive an already-counted
    winner against the main context, so the metric counts each
    evaluated candidate once for every [--scan-jobs]. *)

val delta_objective : delta -> Dtr_cost.Lexico.t

val delta_phi_h : delta -> float
(** The candidate's Φ_H (for archive bookkeeping under the load model). *)

val delta_phi_l : delta -> float

val commit_delta : t -> ctx -> delta -> solution
(** Install a candidate and return it as a full solution
    ({!ctx_solution}).  The context advances; it is never rebuilt.
    Only deltas evaluated against the context's current state may be
    committed.
    @raise Invalid_argument on a stale delta. *)

val abort_delta : ctx -> delta -> unit
(** Does nothing: a delta that is not committed is dropped.  Kept
    because perfbench's probe replay calls it. *)

val failure_outcomes : t -> ctx -> Dtr_routing.Failure_sweep.outcome array
(** Price every single-link failure against the context's current
    weights under the problem's cost model
    ({!Dtr_routing.Failure_sweep.sweep}).  The context is not
    modified; outcomes are in
    {!Dtr_graph.Graph.undirected_link_pairs} order. *)

type robust_price = {
  rp_objective : Dtr_cost.Lexico.t;
      (** the robust objective [J = normal + alpha * penalty] *)
  rp_penalty : Dtr_cost.Lexico.t;
      (** mean of the [top_k] worst finite post-failure costs *)
  rp_infinite : int;
      (** failures priced as infinite (they sever positive demand) *)
  rp_cut : bool array;
      (** per link ({!Dtr_graph.Graph.undirected_link_pairs} order),
          whether its failure severs positive demand
          ({!Dtr_routing.Failure_sweep.cut_links}) — the same for
          every weight setting, so it can price later sweeps *)
  rp_primaries : float array;
      (** per link, the primary (Φ_H, or Λ under SLA) of its failure,
          [nan] on cut links: the class-0 pass the penalty was ranked
          by ({!Dtr_routing.Failure_sweep.robust_penalty}) *)
  rp_wh : int array;
      (** class 0's weight vector at the price ([W_H], or the shared
          vector of an STR context), which alone determines
          [rp_primaries]; never to be mutated *)
}

val robust_price :
  ?prior:robust_price ->
  t ->
  ctx ->
  alpha:float ->
  top_k:int ->
  normal:Dtr_cost.Lexico.t ->
  robust_price
(** One sequential single-link sweep against the context's current
    weights, aggregated into the robust objective.  [normal] is the
    caller's current normal-cost objective (already known to every
    search loop; not recomputed).  Pure: the context is unchanged.

    Without [prior] this is the reference: a full
    {!Dtr_routing.Failure_sweep.sweep}, every failure priced for both
    classes.  With an earlier price on this problem as [prior] it
    prices primary-first with the prior's cut links
    ({!Dtr_routing.Failure_sweep.robust_penalty}), bitwise the same
    result.  When the context's class-0 weights equal the prior's
    [rp_wh] element for element (physical equality is not needed: a
    context rebuilt by {!ctx_of_solution} qualifies), the prior's
    class-0 pass is reused and only the full probes of the failures
    that reach the [top_k]-th largest primary run.  Under strict
    priority a failure's class-0 primary depends on class 0's weights
    alone, so in a DTR context only a move of [W_H] prices the pass
    again; in an STR context every move does. *)

val robust_start :
  t -> ctx -> alpha:float -> top_k:int -> normal:Dtr_cost.Lexico.t -> robust_price
(** A run's first price: {!robust_price} without a prior, bitwise (J,
    penalty, cut links and class-0 pass), priced primary-first.  The
    cut links come from reachability
    ({!Dtr_routing.Eval_ctx.severing_links}) instead of a full sweep, so
    every survivable failure gets a class-0 probe and only those that
    reach the [top_k]-th largest primary the full probe.  Pure: the
    context is unchanged. *)
