module Graph = Dtr_graph.Graph
module Table = Dtr_util.Table
module Stats = Dtr_util.Stats
module Sla = Dtr_cost.Sla

let per_link_table ?top (e : Evaluate.t) =
  let g = e.Evaluate.graph in
  let util = Evaluate.utilization e in
  let ids = Array.init (Graph.arc_count g) (fun i -> i) in
  Array.sort (fun a b -> Float.compare util.(b) util.(a)) ids;
  let limit = match top with Some t -> min t (Array.length ids) | None -> Array.length ids in
  let table =
    Table.create ~title:"Per-link report (sorted by total utilization)"
      ~columns:
        [ "arc"; "link"; "cap"; "H load"; "L load"; "residual"; "util"; "PhiH"; "PhiL" ]
  in
  for i = 0 to limit - 1 do
    let id = ids.(i) in
    let a = Graph.arc g id in
    Table.add_row table
      [
        string_of_int id;
        Printf.sprintf "%d->%d" a.Graph.src a.Graph.dst;
        Printf.sprintf "%.0f" a.Graph.capacity;
        Printf.sprintf "%.1f" e.Evaluate.h_loads.(id);
        Printf.sprintf "%.1f" e.Evaluate.l_loads.(id);
        Printf.sprintf "%.1f" e.Evaluate.residual.(id);
        Printf.sprintf "%.3f" util.(id);
        Printf.sprintf "%.1f" e.Evaluate.phi_h_per_arc.(id);
        Printf.sprintf "%.1f" e.Evaluate.phi_l_per_arc.(id);
      ]
  done;
  table

let per_pair_delay_table ?top ?(node_name = string_of_int) (sla : Evaluate.sla)
    params =
  let pairs =
    List.sort
      (fun (_, _, a) (_, _, b) -> Float.compare b a)
      sla.Evaluate.pair_delays
  in
  let limit =
    match top with Some t -> min t (List.length pairs) | None -> List.length pairs
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "High-priority pair delays (SLA bound %.1f ms)"
           params.Sla.theta)
      ~columns:[ "src"; "dst"; "delay (ms)"; "margin (ms)"; "verdict"; "penalty" ]
  in
  List.iteri
    (fun i (s, t, d) ->
      if i < limit then
        Table.add_row table
          (if d = Float.infinity then
             [ node_name s; node_name t; "-"; "-inf"; "UNREACHABLE"; "inf" ]
           else
             [
               node_name s;
               node_name t;
               Printf.sprintf "%.2f" d;
               (* Slack against the SLA bound: positive = headroom. *)
               Printf.sprintf "%+.2f" (params.Sla.theta -. d);
               (if Sla.violated params ~delay:d then "VIOLATED" else "ok");
               Printf.sprintf "%.1f" (Sla.penalty params ~delay:d);
             ]))
    pairs;
  table

let utilization_percentiles_table (e : Evaluate.t) =
  let util = Evaluate.utilization e in
  let h_util = Evaluate.h_utilization e in
  let table =
    Table.create ~title:"Link-utilization percentiles"
      ~columns:[ "percentile"; "total util"; "H util" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          (if Float.is_integer p then Printf.sprintf "p%.0f" p
           else Printf.sprintf "p%g" p);
          Printf.sprintf "%.3f" (Stats.percentile util p);
          Printf.sprintf "%.3f" (Stats.percentile h_util p);
        ])
    [ 10.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ];
  table

let top_phi_table ?top (e : Evaluate.t) =
  let g = e.Evaluate.graph in
  let m = Graph.arc_count g in
  let cost id = e.Evaluate.phi_h_per_arc.(id) +. e.Evaluate.phi_l_per_arc.(id) in
  let total = e.Evaluate.phi_h +. e.Evaluate.phi_l in
  let ids = Array.init m (fun i -> i) in
  Array.sort (fun a b -> Float.compare (cost b) (cost a)) ids;
  let limit = match top with Some t -> min t m | None -> m in
  let table =
    Table.create ~title:"Costliest links (by total Fortz cost Phi_H + Phi_L)"
      ~columns:[ "arc"; "link"; "util"; "PhiH"; "PhiL"; "total"; "share" ]
  in
  let util = Evaluate.utilization e in
  for i = 0 to limit - 1 do
    let id = ids.(i) in
    let a = Graph.arc g id in
    Table.add_row table
      [
        string_of_int id;
        Printf.sprintf "%d->%d" a.Graph.src a.Graph.dst;
        Printf.sprintf "%.3f" util.(id);
        Printf.sprintf "%.1f" e.Evaluate.phi_h_per_arc.(id);
        Printf.sprintf "%.1f" e.Evaluate.phi_l_per_arc.(id);
        Printf.sprintf "%.1f" (cost id);
        (if total > 0. then Printf.sprintf "%.1f%%" (100. *. cost id /. total)
         else "-");
      ]
  done;
  table

let convergence_table ?(title = "Convergence (best objective vs. evaluations)")
    curve =
  let table =
    Table.create ~title ~columns:[ "evaluations"; "objective" ]
  in
  List.iter
    (fun (evals, obj) ->
      let obj_str =
        String.concat " / "
          (Array.to_list (Array.map (Printf.sprintf "%.6g") obj))
      in
      Table.add_row table [ string_of_int evals; obj_str ])
    curve;
  table

let summary_table ?sla (e : Evaluate.t) =
  let util = Evaluate.utilization e in
  let overloaded = Array.fold_left (fun acc u -> if u > 1. then acc + 1 else acc) 0 util in
  let table = Table.create ~title:"Evaluation summary" ~columns:[ "metric"; "value" ] in
  Table.add_row table [ "Phi_H"; Printf.sprintf "%.4g" e.Evaluate.phi_h ];
  Table.add_row table [ "Phi_L"; Printf.sprintf "%.4g" e.Evaluate.phi_l ];
  Table.add_row table
    [ "avg utilization"; Printf.sprintf "%.3f" (Evaluate.avg_utilization e) ];
  Table.add_row table
    [ "max utilization"; Printf.sprintf "%.3f" (Evaluate.max_utilization e) ];
  Table.add_row table [ "overloaded arcs (>1.0)"; string_of_int overloaded ];
  (match sla with
  | None -> ()
  | Some (s : Evaluate.sla) ->
      Table.add_row table [ "Lambda"; Printf.sprintf "%.4g" s.Evaluate.lambda ];
      Table.add_row table
        [ "SLA violations"; string_of_int s.Evaluate.violations ];
      Table.add_row table
        [ "unreachable pairs"; string_of_int s.Evaluate.unreachable ];
      Table.add_row table
        [ "worst pair delay (ms)"; Printf.sprintf "%.2f" s.Evaluate.worst_delay ]);
  table

let robustness_rows ~baseline outcomes =
  let module Lexico = Dtr_cost.Lexico in
  let finite =
    Array.to_list outcomes
    |> List.filter Failure_sweep.is_finite
    |> List.map (fun (o : Failure_sweep.outcome) -> o.Failure_sweep.cost)
  in
  let infinite = Failure_sweep.infinite_count outcomes in
  let severed =
    Array.fold_left
      (fun n (o : Failure_sweep.outcome) -> n + o.Failure_sweep.unreachable_pairs)
      0 outcomes
  in
  let disco =
    if infinite = 0 then "0"
    else Printf.sprintf "%d (%d pairs severed)" infinite severed
  in
  let row klass base select =
    let arr = Array.of_list (List.map select finite) in
    [
      klass;
      Printf.sprintf "%.4g" base;
      Printf.sprintf "%.4g" (Stats.mean arr);
      (if infinite > 0 then "inf"
       else Printf.sprintf "%.4g" (Array.fold_left Float.max 0. arr));
      disco;
    ]
  in
  [
    row "high" baseline.Lexico.primary (fun c -> c.Lexico.primary);
    row "low" baseline.Lexico.secondary (fun c -> c.Lexico.secondary);
  ]

let robustness_table ~baseline outcomes =
  let table =
    Table.create ~title:"Single-link failure robustness (same weights, no re-optimization)"
      ~columns:
        [
          "class";
          "no-failure cost";
          "mean finite post-failure";
          "worst post-failure";
          "disconnecting";
        ]
  in
  List.iter (Table.add_row table) (robustness_rows ~baseline outcomes);
  table
