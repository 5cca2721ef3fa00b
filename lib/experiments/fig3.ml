module Table = Dtr_util.Table
module Stats = Dtr_util.Stats
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Problem = Dtr_core.Problem

type panel = A | B | C

let panel_name = function A -> "a" | B -> "b" | C -> "c"

let panel_setting = function
  | A -> (Objective.Load, 0.10)
  | B -> (Objective.Sla Dtr_cost.Sla.default, 0.10)
  | C -> (Objective.Sla Dtr_cost.Sla.default, 0.30)

let run ?cfg ?(seed = 23) ?(target_util = 0.6) panel =
  let model, density = panel_setting panel in
  let spec =
    {
      Scenario.topology = Scenario.Random_topo;
      fraction = 0.30;
      hp = Scenario.Random_density density;
      seed;
    }
  in
  let inst = Scenario.make spec in
  let point = Compare.run_point ?cfg inst ~model ~target_util in
  let str_util =
    Evaluate.utilization
      (Objective.eval point.Compare.str.Dtr_core.Str_search.best.Problem.result)
  in
  let dtr_util =
    Evaluate.utilization
      (Objective.eval point.Compare.dtr.Dtr_core.Dtr_search.best.Problem.result)
  in
  let hi =
    Float.max 1.5
      (Float.max
         (Array.fold_left Float.max 0. str_util)
         (Array.fold_left Float.max 0. dtr_util))
  in
  let bins = int_of_float (Float.ceil (hi /. 0.1)) in
  let hist_str = Stats.histogram ~lo:0. ~hi:(0.1 *. float_of_int bins) ~bins str_util in
  let hist_dtr = Stats.histogram ~lo:0. ~hi:(0.1 *. float_of_int bins) ~bins dtr_util in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig 3%s: link utilization histogram, %s cost, k=%.0f%% (f=30%%)"
           (panel_name panel)
           (Objective.model_name model)
           (density *. 100.))
      ~columns:[ "utilization-bin"; "STR links"; "DTR links" ]
  in
  for i = 0 to bins - 1 do
    Table.add_row table
      [
        Printf.sprintf "%.2f" (Stats.histogram_bin_center hist_str i);
        string_of_int hist_str.Stats.counts.(i);
        string_of_int hist_dtr.Stats.counts.(i);
      ]
  done;
  table
