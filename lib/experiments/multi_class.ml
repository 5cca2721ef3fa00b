module Table = Dtr_util.Table
module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Mtr_search = Dtr_core.Mtr_search

let problem ?(seed = 83) ?(target_util = 0.6) () =
  let g = Dtr_topology.Isp.generate () in
  let n = Graph.node_count g in
  let rng = Prng.create seed in
  let bronze = Dtr_traffic.Gravity.generate rng ~n Dtr_traffic.Gravity.default in
  let silver_pairs = Dtr_traffic.Highpri.random_pairs rng ~n ~density:0.15 in
  let silver =
    Dtr_traffic.Highpri.volumes rng ~low:bronze ~fraction:0.25 ~pairs:silver_pairs
  in
  let gold_pairs = Dtr_traffic.Highpri.random_pairs rng ~n ~density:0.05 in
  let gold =
    Dtr_traffic.Highpri.volumes rng ~low:bronze ~fraction:0.10 ~pairs:gold_pairs
  in
  let matrices = [| gold; silver; bronze |] in
  let factor = target_util /. Scenario.reference_avg_utilization g matrices in
  let matrices = Array.map (fun m -> Matrix.scale m factor) matrices in
  Mtr_search.create_problem ~graph:g ~matrices

let run ?(cfg = Dtr_core.Search_config.quick) ?(seed = 83) ?(target_util = 0.6)
    () =
  let problem = problem ~seed ~target_util () in
  let str = Mtr_search.run_single_topology (Prng.create (seed + 1)) cfg problem in
  let mtr = Mtr_search.run (Prng.create (seed + 2)) cfg problem in
  let table =
    Table.create
      ~title:
        "Extension: 3 classes x 3 topologies (ISP, load cost, gold/silver/bronze)"
      ~columns:[ "class"; "STR cost"; "MTR cost"; "STR/MTR ratio" ]
  in
  let names = [| "gold"; "silver"; "bronze" |] in
  Array.iteri
    (fun k s ->
      let m = mtr.Mtr_search.objective.(k) in
      Table.add_row table
        [
          names.(k);
          Printf.sprintf "%.4g" s;
          Printf.sprintf "%.4g" m;
          Printf.sprintf "%.2f" (Compare.ratio ~num:s ~den:m);
        ])
    str.Mtr_search.objective;
  table
