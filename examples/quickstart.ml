(* Quickstart: build a small two-class scenario, optimize it with both
   STR and DTR, and print the resulting costs.

   Run with:  dune exec examples/quickstart.exe *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem

let () =
  (* 1. A topology: the bundled 16-node ISP backbone. *)
  let g = Dtr_topology.Isp.generate () in
  Printf.printf "topology: %d nodes, %d arcs\n" (Graph.node_count g)
    (Graph.arc_count g);

  (* 2. Traffic: gravity-model low-priority demand plus high-priority
     demand on 10%% of the SD pairs, 30%% of total volume. *)
  let rng = Prng.create 42 in
  let n = Graph.node_count g in
  let tl = Dtr_traffic.Gravity.generate rng ~n Dtr_traffic.Gravity.default in
  let pairs = Dtr_traffic.Highpri.random_pairs rng ~n ~density:0.10 in
  let th = Dtr_traffic.Highpri.volumes rng ~low:tl ~fraction:0.30 ~pairs in

  (* 3. Scale demand so the network runs at ~60%% average utilization. *)
  let problem0 =
    Problem.create ~graph:g ~th ~tl ~model:Dtr_routing.Objective.Load
  in
  let mid = Array.make (Graph.arc_count g) 15 in
  let ref_sol = Problem.eval_str problem0 ~w:mid in
  let u0 =
    Dtr_routing.Evaluate.avg_utilization
      (Dtr_routing.Objective.eval ref_sol.Problem.result)
  in
  let factor = 0.6 /. u0 in
  let th = Matrix.scale th factor and tl = Matrix.scale tl factor in

  (* 4. Optimize: STR (one weight per link) vs DTR (one per class). *)
  let problem =
    Problem.create ~graph:g ~th ~tl ~model:Dtr_routing.Objective.Load
  in
  let cfg = Dtr_core.Search_config.quick in
  let str = Dtr_core.Str_search.run (Prng.create 1) cfg problem in
  let dtr = Dtr_core.Dtr_search.run (Prng.create 2) cfg problem in

  let show name (o : Lexico.t) =
    Printf.printf "%s:  Phi_H = %10.1f   Phi_L = %10.1f\n" name o.Lexico.primary
      o.Lexico.secondary
  in
  show "STR" str.Dtr_core.Str_search.objective;
  show "DTR" dtr.Dtr_core.Dtr_search.objective;
  Printf.printf
    "\nDTR matches STR on high-priority cost (ratio %.2f) and improves\n\
     low-priority cost by a factor of %.1f.\n"
    (str.Dtr_core.Str_search.objective.Lexico.primary
    /. dtr.Dtr_core.Dtr_search.objective.Lexico.primary)
    (str.Dtr_core.Str_search.objective.Lexico.secondary
    /. dtr.Dtr_core.Dtr_search.objective.Lexico.secondary)
