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

(** Build the evaluation from precomputed per-class routings (the
    costing half of {!evaluate}).  The load arrays are not copied. *)
let assemble g ~dags_h ~h_loads ~dags_l ~l_loads =
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
    dags_h = Lazy.from_val dags_h;
    dags_l = Lazy.from_val dags_l;
    h_loads;
    l_loads;
    residual;
    phi_h_per_arc;
    phi_l_per_arc;
    phi_h = Array.fold_left ( +. ) 0. phi_h_per_arc;
    phi_l = Array.fold_left ( +. ) 0. phi_l_per_arc;
  }

(** High-priority traffic is routed on [wh] and sees full link
    capacities; low-priority traffic is routed on [wl] and sees only
    the residual capacity [max(C_l − H_l, 0)] (paper §3).  Equal
    weight vectors share one SPF sweep.
    @raise Invalid_argument on invalid weights, size mismatches, or
    unroutable positive demand. *)
let evaluate g ~wh ~wl ~th ~tl =
  Weights.validate g wh;
  Weights.validate g wl;
  let ws = Dijkstra.workspace () in
  let dags_h = Spf.all_destinations ~ws g ~weights:wh in
  (* Structural equality: equal-but-distinct weight vectors must share
     the SPF too, not silently double the work. *)
  let dags_l =
    if wh == wl || wh = wl then dags_h
    else Spf.all_destinations ~ws g ~weights:wl
  in
  let h_loads = Ref_loads.of_matrix g ~dags:dags_h th in
  let l_loads = Ref_loads.of_matrix g ~dags:dags_l tl in
  assemble g ~dags_h ~h_loads ~dags_l ~l_loads
