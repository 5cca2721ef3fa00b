module Table = Dtr_util.Table
module Prng = Dtr_util.Prng
module Objective = Dtr_routing.Objective
module Report = Dtr_routing.Report
module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config

let run ?(cfg = Search_config.quick) ?(seed = 79) ?(target_util = 0.55) () =
  let spec =
    {
      Scenario.topology = Scenario.Isp;
      fraction = 0.30;
      hp = Scenario.Random_density 0.10;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let inst = Scenario.scale_to_utilization inst ~target:target_util in
  let problem = Scenario.problem inst ~model:Objective.Load in
  let str = Dtr_core.Str_search.run (Prng.create (seed + 1)) cfg problem in
  let dtr = Dtr_core.Dtr_search.run (Prng.create (seed + 2)) cfg problem in
  let table =
    Table.create
      ~title:
        "Extension: single-link failure robustness without re-optimization (ISP, load cost)"
      ~columns:
        [
          "scheme";
          "class";
          "no-failure cost";
          "mean finite post-failure";
          "worst post-failure";
          "disconnecting";
        ]
  in
  let describe name best baseline =
    let outcomes =
      Problem.failure_outcomes problem (Problem.ctx_of_solution problem best)
    in
    List.iter
      (fun row -> Table.add_row table (name :: row))
      (Report.robustness_rows ~baseline outcomes)
  in
  describe "STR" str.Dtr_core.Str_search.best str.Dtr_core.Str_search.objective;
  describe "DTR" dtr.Dtr_core.Dtr_search.best dtr.Dtr_core.Dtr_search.objective;
  table
