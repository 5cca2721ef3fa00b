module Table = Dtr_util.Table
module Prng = Dtr_util.Prng
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Eval_ctx = Dtr_routing.Eval_ctx
module Failure_sweep = Dtr_routing.Failure_sweep
module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config

let post_failure_costs ?pool ?(model = Objective.Load) inst ~wh ~wl =
  let ctx =
    Eval_ctx.create inst.Scenario.graph ~weights:[| wh; wl |]
      ~matrices:[| inst.Scenario.th; inst.Scenario.tl |]
  in
  Failure_sweep.sweep ?pool ~model ~th:inst.Scenario.th ctx

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
  let describe name ~wh ~wl (baseline : Lexico.t) =
    let outcomes = post_failure_costs inst ~wh ~wl in
    let finite =
      Array.to_list outcomes
      |> List.filter Failure_sweep.is_finite
      |> List.map (fun (o : Failure_sweep.outcome) -> o.Failure_sweep.cost)
    in
    let infinite = Failure_sweep.infinite_count outcomes in
    let severed =
      Array.fold_left
        (fun n (o : Failure_sweep.outcome) ->
          n + o.Failure_sweep.unreachable_pairs)
        0 outcomes
    in
    let primaries = Array.of_list (List.map (fun c -> c.Lexico.primary) finite) in
    let secondaries =
      Array.of_list (List.map (fun c -> c.Lexico.secondary) finite)
    in
    let disco =
      if infinite = 0 then "0"
      else Printf.sprintf "%d (%d pairs severed)" infinite severed
    in
    (* A disconnecting failure makes the worst-case cost infinite for
       every weight setting — the honest number, not a skip. *)
    let row klass base arr =
      Table.add_row table
        [
          name;
          klass;
          Printf.sprintf "%.4g" base;
          Printf.sprintf "%.4g" (Dtr_util.Stats.mean arr);
          (if infinite > 0 then "inf"
           else Printf.sprintf "%.4g" (Array.fold_left Float.max 0. arr));
          disco;
        ]
    in
    row "high" baseline.Lexico.primary primaries;
    row "low" baseline.Lexico.secondary secondaries
  in
  let str_sol = str.Dtr_core.Str_search.best in
  let dtr_sol = dtr.Dtr_core.Dtr_search.best in
  describe "STR" ~wh:str_sol.Problem.wh ~wl:str_sol.Problem.wl
    str.Dtr_core.Str_search.objective;
  describe "DTR" ~wh:dtr_sol.Problem.wh ~wl:dtr_sol.Problem.wl
    dtr.Dtr_core.Dtr_search.objective;
  table
