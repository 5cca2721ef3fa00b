(* Beyond the paper: three priority classes, three routing topologies.

   The paper evaluates two classes (DTR) but MT-OSPF supports many
   more.  This example runs gold / silver / bronze traffic on the ISP
   backbone and compares full multi-topology routing (one weight
   vector per class) against the single shared topology.

   Run with:  dune exec examples/three_classes.exe *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Multi = Dtr_routing.Multi
module Eval_ctx = Dtr_routing.Eval_ctx
module Mtr_search = Dtr_core.Mtr_search

let () =
  let g = Dtr_topology.Isp.generate () in
  let n = Graph.node_count g in
  let rng = Prng.create 21 in
  (* Bronze: gravity-model bulk.  Silver and gold: sparser premium
     demand carved out with the paper's volume model. *)
  let bronze = Dtr_traffic.Gravity.generate rng ~n Dtr_traffic.Gravity.default in
  let silver_pairs = Dtr_traffic.Highpri.random_pairs rng ~n ~density:0.15 in
  let silver =
    Dtr_traffic.Highpri.volumes rng ~low:bronze ~fraction:0.25 ~pairs:silver_pairs
  in
  let gold_pairs = Dtr_traffic.Highpri.random_pairs rng ~n ~density:0.05 in
  let gold =
    Dtr_traffic.Highpri.volumes rng ~low:bronze ~fraction:0.10 ~pairs:gold_pairs
  in
  (* Scale everything to ~60% average utilization under mid weights. *)
  let matrices = [| gold; silver; bronze |] in
  let mid = Array.make (Graph.arc_count g) 15 in
  let ref_eval =
    Eval_ctx.to_multi (Eval_ctx.create g ~weights:[| mid; mid; mid |] ~matrices)
  in
  let factor = 0.6 /. Multi.avg_utilization ref_eval in
  let matrices = Array.map (fun m -> Matrix.scale m factor) matrices in
  let problem = Mtr_search.create_problem ~graph:g ~matrices in

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
