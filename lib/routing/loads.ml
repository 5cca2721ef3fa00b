module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix

(* The even-split flow recursion shared by every consumer: walk
   order_desc (upstream nodes first, so all transit inflow has arrived
   by the time a node is reached), split each node's flow evenly over
   its next-hop arcs, add every share to [contrib] and forward it.
   [flow] is mutated in place.  A plain loop, not a per-share
   callback: a float passed to a closure is boxed, one allocation per
   share on the probe hot path. *)
let spread g ~dag ~flow ~contrib =
  let dsts = Graph.dsts g in
  let t = dag.Spf.dst and next = dag.Spf.next_arcs and order = dag.Spf.order_desc in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let out = next.(v) in
    let deg = Array.length out in
    let fv = flow.(v) in
    if fv > 0. && deg > 0 then begin
      let share = fv /. float_of_int deg in
      for j = 0 to deg - 1 do
        let id = out.(j) in
        contrib.(id) <- contrib.(id) +. share;
        let u = dsts.(id) in
        if u <> t then flow.(u) <- flow.(u) +. share
      done
    end
  done

(* Arena variant: the caller owns [flow] (length >= n) and [contrib]
   (length >= m) and reuses them across destinations; both are fully
   reinitialized here, so stale contents never leak through.  Shares
   land identically to {!destination_loads}: same walk, same
   accumulation order. *)
let destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.destination_loads_into: demand length mismatch";
  if Array.length flow < n || Array.length contrib < Graph.arc_count g then
    invalid_arg "Loads.destination_loads_into: scratch too small";
  Array.fill contrib 0 (Graph.arc_count g) 0.;
  Array.blit demand_to_dst 0 flow 0 n;
  flow.(dag.Spf.dst) <- 0.;
  spread g ~dag ~flow ~contrib

let destination_loads g ~dag ~demand_to_dst =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.destination_loads: demand length mismatch";
  let contrib = Array.make (Graph.arc_count g) 0. in
  let flow = Array.make n 0. in
  destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib;
  contrib

let destination_demand ~dag tm =
  let n = Matrix.size tm in
  let t = dag.Spf.dst in
  (* Column walk in ascending source order: O(column entries) on a
     sparse matrix, and identical to the former full row scan (zero
     entries contributed nothing).  [iter_col] yields positive entries
     only, so the row is allocated at the first routable one and a
     demand-free destination allocates nothing. *)
  let demand = ref [||] in
  Matrix.iter_col tm t (fun s r ->
      if s <> t then begin
        if dag.Spf.dist.(s) = Dijkstra.unreachable then
          invalid_arg
            (Printf.sprintf "Loads.destination_demand: no path %d -> %d" s t);
        if Array.length !demand = 0 then demand := Array.make n 0.;
        !demand.(s) <- r
      end);
  if Array.length !demand = 0 then None else Some !demand
