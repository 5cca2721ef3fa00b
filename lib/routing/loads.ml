module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf

(* The even-split flow recursion from the demand sources: [flow]
   starts as the demand, the destination's own set to zero (the demand
   row is blitted in whole: on a context's core graph the order holds
   nearly every node); walk order_desc (upstream nodes first, so all
   transit inflow has arrived by the time a node is reached), split
   each node's flow evenly over its next-hop arcs, add every share to
   [contrib] and forward it.  A plain loop, not a per-share callback: a
   float passed to a closure is boxed, one allocation per share on the
   probe hot path.  Only a node with positive flow has its next-hop set
   read, so a dag may hold anything at the others.  Returns whether a
   positive flow split into zero shares (the quotient underflowed). *)
let spread_demand g ~dag ~demand_to_dst ~flow ~contrib =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.spread_demand: demand length mismatch";
  if Array.length flow < n || Array.length contrib < Graph.arc_count g then
    invalid_arg "Loads.spread_demand: scratch too small";
  Array.blit demand_to_dst 0 flow 0 n;
  flow.(dag.Spf.dst) <- 0.;
  let dsts = Graph.dsts g in
  let t = dag.Spf.dst and next = dag.Spf.next_arcs and order = dag.Spf.order_desc in
  let zero_shares = ref false in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let fv = flow.(v) in
    if fv > 0. then begin
      let out = next.(v) in
      let deg = Array.length out in
      if deg > 0 then begin
        let share = fv /. float_of_int deg in
        if share = 0. then zero_shares := true;
        for j = 0 to deg - 1 do
          let id = out.(j) in
          contrib.(id) <- contrib.(id) +. share;
          let u = dsts.(id) in
          if u <> t then flow.(u) <- flow.(u) +. share
        done
      end
    end
  done;
  !zero_shares
