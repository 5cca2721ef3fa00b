module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Table = Dtr_util.Table

type dest_entry = { de_dst : int; de_load : float }

type pair_entry = {
  pe_src : int;
  pe_dst : int;
  pe_demand : float;
  pe_load : float;
}

let check t name ~klass ~arc =
  if klass < 0 || klass >= Eval_ctx.class_count t then
    invalid_arg (Printf.sprintf "Attribution.%s: class out of range" name);
  if arc < 0 || arc >= Graph.arc_count (Eval_ctx.graph t) then
    invalid_arg (Printf.sprintf "Attribution.%s: arc out of range" name)

(* Ascending-destination sum of the committed contribution rows: the
   association Eval_ctx.create and its probes use, so the result is
   bitwise equal to the committed load total. *)
let link_load t ~klass ~arc =
  check t "link_load" ~klass ~arc;
  let n = Graph.node_count (Eval_ctx.graph t) in
  let s = ref 0. in
  for dst = 0 to n - 1 do
    let c = Eval_ctx.contrib_view t ~klass ~dst in
    if Array.length c > 0 then s := !s +. c.(arc)
  done;
  !s

let by_destination t ~klass ~arc =
  check t "by_destination" ~klass ~arc;
  let n = Graph.node_count (Eval_ctx.graph t) in
  let acc = ref [] in
  for dst = n - 1 downto 0 do
    let c = Eval_ctx.contrib_view t ~klass ~dst in
    if Array.length c > 0 && c.(arc) <> 0. then
      acc := { de_dst = dst; de_load = c.(arc) } :: !acc
  done;
  let entries = Array.of_list !acc in
  Array.sort
    (fun a b ->
      let c = Float.compare b.de_load a.de_load in
      if c <> 0 then c else compare a.de_dst b.de_dst)
    entries;
  entries

(* Backward ECMP-fraction pass for one (class, destination, arc):
   frac.(v) is the expected fraction of one unit of flow injected at
   [v] that crosses [arc] en route to the destination.  Nodes are
   finalized in increasing-distance order (the reverse of the DAG's
   order_desc), so every ECMP next hop — strictly closer to the
   destination — is final before its predecessors read it. *)
let fractions g (dag : Spf.dag) ~arc ~frac =
  let order = dag.Spf.order_desc in
  let dsts = Graph.dsts g in
  frac.(dag.Spf.dst) <- 0.;
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    let next = dag.Spf.next_arcs.(v) in
    let deg = Array.length next in
    let s = ref 0. in
    for j = 0 to deg - 1 do
      let e = next.(j) in
      s := !s +. ((if e = arc then 1. else 0.) +. frac.(dsts.(e)))
    done;
    frac.(v) <- (if deg = 0 then 0. else !s /. float_of_int deg)
  done

let by_pair t ~klass ~arc =
  check t "by_pair" ~klass ~arc;
  let g = Eval_ctx.graph t in
  let n = Graph.node_count g in
  let dags = Eval_ctx.dags t klass in
  let frac = Array.make n 0. in
  let acc = ref [] in
  for dst = n - 1 downto 0 do
    let c = Eval_ctx.contrib_view t ~klass ~dst in
    if Array.length c > 0 && c.(arc) <> 0. then begin
      let dem = Eval_ctx.demand_view t ~klass ~dst in
      let dag = dags.(dst) in
      (* Reset only the nodes the pass will write. *)
      Array.iter (fun v -> frac.(v) <- 0.) dag.Spf.order_desc;
      fractions g dag ~arc ~frac;
      for src = n - 1 downto 0 do
        if dem.(src) > 0. && frac.(src) > 0. then
          acc :=
            {
              pe_src = src;
              pe_dst = dst;
              pe_demand = dem.(src);
              pe_load = dem.(src) *. frac.(src);
            }
            :: !acc
      done
    end
  done;
  let entries = Array.of_list !acc in
  Array.sort
    (fun a b ->
      let c = Float.compare b.pe_load a.pe_load in
      if c <> 0 then c
      else
        let c = compare a.pe_src b.pe_src in
        if c <> 0 then c else compare a.pe_dst b.pe_dst)
    entries;
  entries

let class_label t k =
  if Eval_ctx.class_count t = 2 then if k = 0 then "H" else "L"
  else Printf.sprintf "class %d" k

let link_name g arc = Printf.sprintf "%d->%d" (Graph.src g arc) (Graph.dst g arc)

let share ~part ~total =
  if total > 0. then Printf.sprintf "%.1f%%" (100. *. part /. total) else "-"

let explain_table ?(top = 10) t ~arc =
  check t "explain_table" ~klass:0 ~arc;
  let g = Eval_ctx.graph t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Flow attribution for arc %d (%s): top OD pairs" arc
           (link_name g arc))
      ~columns:[ "class"; "pair"; "demand"; "on link"; "link load"; "share" ]
  in
  for k = 0 to Eval_ctx.class_count t - 1 do
    let total = link_load t ~klass:k ~arc in
    let pairs = by_pair t ~klass:k ~arc in
    let limit = min top (Array.length pairs) in
    if limit = 0 then
      Table.add_row table
        [ class_label t k; "(none)"; "-"; "0.0"; Printf.sprintf "%.1f" total; "-" ]
    else
      for i = 0 to limit - 1 do
        let p = pairs.(i) in
        Table.add_row table
          [
            class_label t k;
            Printf.sprintf "%d->%d" p.pe_src p.pe_dst;
            Printf.sprintf "%.1f" p.pe_demand;
            Printf.sprintf "%.1f" p.pe_load;
            Printf.sprintf "%.1f" total;
            share ~part:p.pe_load ~total;
          ]
      done
  done;
  table

let destinations_table ?(top = 10) t ~arc =
  check t "destinations_table" ~klass:0 ~arc;
  let g = Eval_ctx.graph t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Flow attribution for arc %d (%s): top destinations (exact \
            subtotals)"
           arc (link_name g arc))
      ~columns:[ "class"; "dest"; "on link"; "link load"; "share" ]
  in
  for k = 0 to Eval_ctx.class_count t - 1 do
    let total = link_load t ~klass:k ~arc in
    let dests = by_destination t ~klass:k ~arc in
    let limit = min top (Array.length dests) in
    if limit = 0 then
      Table.add_row table
        [ class_label t k; "(none)"; "0.0"; Printf.sprintf "%.1f" total; "-" ]
    else
      for i = 0 to limit - 1 do
        let d = dests.(i) in
        Table.add_row table
          [
            class_label t k;
            string_of_int d.de_dst;
            Printf.sprintf "%.1f" d.de_load;
            Printf.sprintf "%.1f" total;
            share ~part:d.de_load ~total;
          ]
      done
  done;
  table

let hottest_table ?(top = 10) t =
  let g = Eval_ctx.graph t in
  let m = Graph.arc_count g in
  let classes = Eval_ctx.class_count t in
  let cost a =
    let s = ref 0. in
    for k = 0 to classes - 1 do
      s := !s +. (Eval_ctx.phi_per_arc t k).(a)
    done;
    !s
  in
  let total_cost = ref 0. in
  for a = 0 to m - 1 do
    total_cost := !total_cost +. cost a
  done;
  let ids = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare (cost b) (cost a) in
      if c <> 0 then c else compare a b)
    ids;
  let caps = Graph.capacities g in
  let columns =
    [ "arc"; "link"; "util"; "Phi"; "share" ]
    @ List.init classes (fun k ->
          Printf.sprintf "top %s flow" (class_label t k))
  in
  let table =
    Table.create
      ~title:
        "Hottest links by total Fortz cost, with dominant flows \
         (--explain-top)"
      ~columns
  in
  let limit = min top m in
  for i = 0 to limit - 1 do
    let a = ids.(i) in
    let load = ref 0. in
    for k = 0 to classes - 1 do
      load := !load +. (Eval_ctx.loads t k).(a)
    done;
    let util = if caps.(a) > 0. then !load /. caps.(a) else 0. in
    let flows =
      List.init classes (fun k ->
          let pairs = by_pair t ~klass:k ~arc:a in
          if Array.length pairs = 0 then "-"
          else
            let p = pairs.(0) in
            Printf.sprintf "%d->%d (%.1f)" p.pe_src p.pe_dst p.pe_load)
    in
    Table.add_row table
      ([
         string_of_int a;
         link_name g a;
         Printf.sprintf "%.3f" util;
         Printf.sprintf "%.1f" (cost a);
         share ~part:(cost a) ~total:!total_cost;
       ]
      @ flows)
  done;
  table
