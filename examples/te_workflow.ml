(* End-to-end traffic-engineering workflow: everything an operator
   would do with this library, in one script.

     1. generate (or load) a topology and a two-class demand forecast
     2. optimize a dual-topology weight setting
     3. export the weights to a file (for the provisioning system)
     4. flood them through the MT-OSPF control plane and check that
        every router's forwarding state matches the optimizer's plan
     5. replay the demand packet-by-packet to confirm the predicted
        per-class service levels

   Run with:  dune exec examples/te_workflow.exe *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Problem = Dtr_core.Problem
module Lexico = Dtr_cost.Lexico
module Sim = Dtr_netsim.Sim

let () =
  (* 1. Topology + forecast. *)
  let spec =
    {
      Dtr_experiments.Scenario.topology = Dtr_experiments.Scenario.Transit_stub;
      fraction = 0.30;
      hp = Dtr_experiments.Scenario.Random_density 0.10;
      seed = 12;
    }
  in
  let inst = Dtr_experiments.Scenario.make spec in
  let inst = Dtr_experiments.Scenario.scale_to_utilization inst ~target:0.65 in
  let g = inst.Dtr_experiments.Scenario.graph in
  Printf.printf "1. topology: %d nodes / %d arcs (transit-stub), target util 0.65\n%!"
    (Graph.node_count g) (Graph.arc_count g);

  (* 2. Optimize. *)
  let problem =
    Dtr_experiments.Scenario.problem inst ~model:Dtr_routing.Objective.Load
  in
  let report =
    Dtr_core.Dtr_search.run (Prng.create 1) Dtr_core.Search_config.quick problem
  in
  let sol = report.Dtr_core.Dtr_search.best in
  Printf.printf "2. optimized: PhiH=%.1f PhiL=%.1f (%d evaluations)\n%!"
    report.Dtr_core.Dtr_search.objective.Lexico.primary
    report.Dtr_core.Dtr_search.objective.Lexico.secondary
    report.Dtr_core.Dtr_search.evaluations;

  (* 3. Export. *)
  let path = Filename.temp_file "dtr_weights" ".txt" in
  let graph = Dtr_core.Manifest.topology_digest g in
  Dtr_routing.Weights_io.save ~graph [| sol.Problem.wh; sol.Problem.wl |] path;
  let reloaded =
    match Dtr_routing.Weights_io.load ~graph path with
    | Ok sets -> sets
    | Error e -> failwith e
  in
  Printf.printf "3. weights exported to %s and reloaded (%d arcs, %d topologies)\n%!"
    path
    (Array.length reloaded.(0))
    (Array.length reloaded);
  Sys.remove path;

  (* 4. Deploy via MT-OSPF. *)
  let net = Dtr_mtospf.Network.create g ~weight_sets:reloaded in
  let stats = Dtr_mtospf.Network.flood net in
  let tables_ok =
    let reference = Dtr_graph.Spf.all_destinations g ~weights:reloaded.(0) in
    let local = Dtr_mtospf.Network.routing_table net ~router:0 ~topology:0 in
    Array.for_all2
      (fun (a : Dtr_graph.Spf.dag) (b : Dtr_graph.Spf.dag) ->
        a.Dtr_graph.Spf.dist = b.Dtr_graph.Spf.dist)
      reference local
  in
  Printf.printf
    "4. flooded in %d rounds / %d LSAs; router 0 agrees with the plan: %b\n%!"
    stats.Dtr_mtospf.Network.rounds stats.Dtr_mtospf.Network.messages tables_ok;

  (* 5. Validate with packets. *)
  let sim =
    Sim.run g ~wh:sol.Problem.wh ~wl:sol.Problem.wl
      ~th:inst.Dtr_experiments.Scenario.th ~tl:inst.Dtr_experiments.Scenario.tl
      { Sim.default_config with Sim.duration = 3000.; warmup = 300.; seed = 9 }
  in
  Printf.printf
    "5. packet replay: high mean delay %.3f ms (p95 %.3f), low mean %.3f ms (p95 %.3f)\n"
    sim.Sim.high.Sim.mean_delay sim.Sim.high.Sim.p95_delay
    sim.Sim.low.Sim.mean_delay sim.Sim.low.Sim.p95_delay;
  Printf.printf "   delivered: %d high / %d low packets; done.\n"
    sim.Sim.high.Sim.delivered sim.Sim.low.Sim.delivered
