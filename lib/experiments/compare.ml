module Prng = Dtr_util.Prng
module Table = Dtr_util.Table
module Lexico = Dtr_cost.Lexico
module Evaluate = Dtr_routing.Evaluate
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Problem = Dtr_core.Problem
module Str_search = Dtr_core.Str_search
module Dtr_search = Dtr_core.Dtr_search
module Trace = Dtr_core.Trace

type point = {
  target_util : float;
  measured_util : float;
  rh : float;
  rl : float;
  str : Str_search.report;
  dtr : Dtr_search.report;
}

let ratio ~num ~den =
  let eps = 1e-12 in
  if den <= eps then if num <= eps then 1. else Float.infinity
  else num /. den

let streams ~seed inst =
  let root = Prng.create (seed + (inst.Scenario.spec.Scenario.seed * 7919)) in
  let str_rng = Prng.split root in
  let dtr_rng = Prng.split root in
  (root, str_rng, dtr_rng)

let run_point ?(cfg = Dtr_core.Search_config.default) ?(seed = 0)
    ?(trace = Trace.disabled) ?stop ?str_iters ?w0 inst ~model ~target_util =
  let inst = Scenario.scale_to_utilization inst ~target:target_util in
  let problem = Scenario.problem inst ~model in
  let root, str_rng, dtr_rng = streams ~seed inst in
  (* On the full-mesh-core large presets the mid-range default start
     shortest-hop-routes every PoP pair over its direct core link and
     is already locally optimal, so they start from seeded random
     weights drawn from a third stream, W_L before W_H. *)
  let w0 =
    match (w0, inst.Scenario.spec.Scenario.topology) with
    | None, Scenario.Large _ ->
        let weight_rng = Prng.split root in
        let wl = Weights.random weight_rng inst.Scenario.graph in
        let wh = Weights.random weight_rng inst.Scenario.graph in
        Some (wh, wl)
    | w0, _ -> w0
  in
  (* Each search records into its own ring; the merged stream tags STR
     events [restart = 0] and DTR events [restart = 1]. *)
  let str_ring = if Trace.enabled trace then Trace.ring () else Trace.disabled in
  let dtr_ring = if Trace.enabled trace then Trace.ring () else Trace.disabled in
  let str_w0 = Option.map fst w0 in
  let str =
    Str_search.run ?w0:str_w0 ?iters:str_iters ?stop ~trace:str_ring str_rng
      cfg problem
  in
  let dtr = Dtr_search.run ?w0 ?stop ~trace:dtr_ring dtr_rng cfg problem in
  if Trace.enabled trace then begin
    Trace.replay str_ring ~into:trace ~restart:0;
    Trace.replay dtr_ring ~into:trace ~restart:1
  end;
  let measured_util =
    Evaluate.avg_utilization
      (Objective.eval str.Str_search.best.Problem.result)
  in
  {
    target_util;
    measured_util;
    rh =
      ratio ~num:str.Str_search.objective.Lexico.primary
        ~den:dtr.Dtr_search.objective.Lexico.primary;
    rl =
      ratio ~num:str.Str_search.objective.Lexico.secondary
        ~den:dtr.Dtr_search.objective.Lexico.secondary;
    str;
    dtr;
  }

let sweep ?cfg ?seed spec ~model ~targets =
  let inst = Scenario.make spec in
  List.map (fun t -> run_point ?cfg ?seed inst ~model ~target_util:t) targets

let points_table ~title points =
  let table =
    Table.create ~title
      ~columns:[ "avg-util"; "H-cost-ratio (RH)"; "L-cost-ratio (RL)" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.3f" p.measured_util;
          Printf.sprintf "%.3f" p.rh;
          Printf.sprintf "%.2f" p.rl;
        ])
    points;
  table

let rl_table ~title ~targets columns =
  let table =
    Table.create ~title ~columns:("target-util" :: List.map fst columns)
  in
  List.iteri
    (fun i target ->
      let cells =
        List.map
          (fun (_, points) -> Printf.sprintf "%.2f" (List.nth points i).rl)
          columns
      in
      Table.add_row table (Printf.sprintf "%.2f" target :: cells))
    targets;
  table
