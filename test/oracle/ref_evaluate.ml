(* From-scratch two-class evaluation: SPF sweeps over every
   destination, whole-matrix load projection and Fortz costing, with
   none of the evaluation context's delta screening, re-projection or
   row patching. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Fortz = Dtr_cost.Fortz
module Weights = Dtr_routing.Weights
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx

(** Build the evaluation from per-class loads (the costing half of
    {!evaluate}).  The load arrays are not copied. *)
let assemble g ~h_loads ~l_loads =
  let caps = Graph.capacities g in
  let m = Graph.arc_count g in
  let residual = Array.init m (fun i -> Float.max (caps.(i) -. h_loads.(i)) 0.) in
  let phi_h_per_arc =
    Array.init m (fun i -> Fortz.phi ~load:h_loads.(i) ~capacity:caps.(i))
  in
  let phi_l_per_arc =
    Array.init m (fun i -> Fortz.phi ~load:l_loads.(i) ~capacity:residual.(i))
  in
  {
    Evaluate.graph = g;
    h_loads;
    l_loads;
    residual;
    phi_h_per_arc;
    phi_l_per_arc;
    phi_h = Array.fold_left ( +. ) 0. phi_h_per_arc;
    phi_l = Array.fold_left ( +. ) 0. phi_l_per_arc;
  }

(** The per-destination DAGs of both classes, at every destination.
    Structurally equal vectors share one SPF sweep, so the two arrays
    are then one physical value: equal-but-distinct weight vectors must
    share the SPF too, not silently double the work. *)
let routings g ~wh ~wl =
  let ws = Dijkstra.workspace () in
  let dags_h = Spf.all_destinations ~ws g ~weights:wh in
  let dags_l =
    if wh == wl || wh = wl then dags_h else Spf.all_destinations ~ws g ~weights:wl
  in
  (dags_h, dags_l)

(** {!evaluate} with the DAGs it routed on, [(eval, dags_h, dags_l)]. *)
let evaluate_routed g ~wh ~wl ~th ~tl =
  Weights.validate g wh;
  Weights.validate g wl;
  let dags_h, dags_l = routings g ~wh ~wl in
  let h_loads = Ref_loads.of_matrix g ~dags:dags_h th in
  let l_loads = Ref_loads.of_matrix g ~dags:dags_l tl in
  (assemble g ~h_loads ~l_loads, dags_h, dags_l)

(** High-priority traffic is routed on [wh] and sees full link
    capacities; low-priority traffic is routed on [wl] and sees only
    the residual capacity [max(C_l − H_l, 0)] (paper §3).  Equal
    weight vectors share one SPF sweep.
    @raise Invalid_argument on invalid weights, size mismatches, or
    unroutable positive demand. *)
let evaluate g ~wh ~wl ~th ~tl =
  let eval, _, _ = evaluate_routed g ~wh ~wl ~th ~tl in
  eval

(** The SLA costing of high-priority routing [dags_h] (a dag at every
    destination, in [g]'s ids) under the Fortz row [phi_h_per_arc]:
    {!Evaluate.sla_of} walked on [g] itself, in the identity
    numbering. *)
let sla params g ~th ~dags_h ~phi_h_per_arc =
  Evaluate.sla_of params g ~th ~core:g
    ~node_at:(Array.init (Graph.node_count g) Fun.id)
    ~arcs:(Array.init (Graph.arc_count g) Fun.id)
    ~dags_h ~phi_h_per_arc

(** The same costing of a context's committed state, walked over its
    class-0 dags viewed in the graph's ids ({!Eval_ctx.dags}) rather
    than on its demand core, as {!Eval_ctx.sla} walks them. *)
let ctx_sla params ~th ctx =
  sla params (Eval_ctx.graph ctx) ~th ~dags_h:(Eval_ctx.dags ctx 0)
    ~phi_h_per_arc:(Eval_ctx.phi_per_arc ctx 0)
