(* Beyond the paper: three priority classes, three routing topologies.

   The paper evaluates two classes (DTR) but MT-OSPF supports many
   more.  This example runs gold / silver / bronze traffic on the ISP
   backbone and compares full multi-topology routing (one weight
   vector per class) against the single shared topology.

   Run with:  dune exec examples/three_classes.exe *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Mtr_search = Dtr_core.Mtr_search

let () =
  (* Bronze: gravity-model bulk.  Silver and gold: sparser premium
     demand carved out with the paper's volume model, everything scaled
     to ~60% average utilization under mid weights (the ext-3class
     experiment's instance, drawn from seed 21). *)
  let problem = Dtr_experiments.Multi_class.problem ~seed:21 () in
  let n = Graph.node_count problem.Mtr_search.graph in

  let cfg = Dtr_core.Search_config.quick in
  Printf.printf "optimizing 3 classes on %d-node backbone...\n%!" n;
  let str = Mtr_search.run_single_topology (Prng.create 1) cfg problem in
  let mtr = Mtr_search.run (Prng.create 2) cfg problem in

  let name = [| "gold"; "silver"; "bronze" |] in
  Printf.printf "\n%-8s %14s %14s %8s\n" "class" "STR cost" "MTR cost" "ratio";
  Array.iteri
    (fun k s ->
      let m = mtr.Mtr_search.objective.(k) in
      Printf.printf "%-8s %14.1f %14.1f %8.2f\n" name.(k) s m
        (if m > 0. then s /. m else 1.))
    str.Mtr_search.objective;
  Printf.printf
    "\nWith one topology per class, each lower class reclaims the\n\
     capacity the classes above it do not need on its own routes.\n"
