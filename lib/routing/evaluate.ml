module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Fortz = Dtr_cost.Fortz
module Sla = Dtr_cost.Sla

type t = {
  graph : Graph.t;
  dags_h : Spf.dag array;
  dags_l : Spf.dag array;
  h_loads : float array;
  l_loads : float array;
  residual : float array;
  phi_h_per_arc : float array;
  phi_l_per_arc : float array;
  phi_h : float;
  phi_l : float;
}

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
    graph = g;
    dags_h;
    dags_l;
    h_loads;
    l_loads;
    residual;
    phi_h_per_arc;
    phi_l_per_arc;
    phi_h = Array.fold_left ( +. ) 0. phi_h_per_arc;
    phi_l = Array.fold_left ( +. ) 0. phi_l_per_arc;
  }

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
  let h_loads = Loads.of_matrix g ~dags:dags_h th in
  let l_loads = Loads.of_matrix g ~dags:dags_l tl in
  assemble g ~dags_h ~h_loads ~dags_l ~l_loads

let utilization t =
  let caps = Graph.capacities t.graph in
  Array.init (Array.length caps) (fun i ->
      (t.h_loads.(i) +. t.l_loads.(i)) /. caps.(i))

let h_utilization t =
  let caps = Graph.capacities t.graph in
  Array.init (Array.length caps) (fun i -> t.h_loads.(i) /. caps.(i))

let avg_utilization t = Dtr_util.Stats.mean (utilization t)

let max_utilization t =
  Array.fold_left Float.max 0. (utilization t)

type sla = {
  arc_delay : float array;
  pair_delays : (int * int * float) list;
  lambda : float;
  violations : int;
  unreachable : int;
  worst_delay : float;
}

let sla_of params g ~th ~dags_h ~phi_h_per_arc =
  let arc_delay = Delay.arc_delays params g ~phi_h_per_arc in
  let pairs = List.map (fun (s, d, _) -> (s, d)) (Matrix.pairs th) in
  let raw = Delay.pair_delays g ~dags:dags_h ~arc_delay ~pairs in
  (* Encode a severed pair as an infinite delay: the penalty (and so
     Λ) becomes infinite — any routing that reconnects the pair
     compares strictly better — without aborting the sweep. *)
  let pair_delays =
    List.map
      (fun (s, d, pd) ->
        match pd with
        | Delay.Reachable x -> (s, d, x)
        | Delay.Unreachable -> (s, d, Float.infinity))
      raw
  in
  let lambda = ref 0. and violations = ref 0 and worst = ref 0. in
  let unreachable = ref 0 in
  List.iter
    (fun (_, _, d) ->
      let p = Sla.penalty params ~delay:d in
      lambda := !lambda +. p;
      if Sla.violated params ~delay:d then incr violations;
      if d = Float.infinity then incr unreachable;
      if d > !worst then worst := d)
    pair_delays;
  {
    arc_delay;
    pair_delays;
    lambda = !lambda;
    violations = !violations;
    unreachable = !unreachable;
    worst_delay = !worst;
  }

let evaluate_sla params t ~th =
  sla_of params t.graph ~th ~dags_h:t.dags_h ~phi_h_per_arc:t.phi_h_per_arc
