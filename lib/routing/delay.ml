module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Sla = Dtr_cost.Sla

let arc_delays_into params g ~phi_h_per_arc delay =
  let m = Graph.arc_count g in
  if Array.length phi_h_per_arc <> m || Array.length delay < m then
    invalid_arg "Delay.arc_delays_into: length mismatch";
  let caps = Graph.capacities g and dels = Graph.delays g in
  for id = 0 to m - 1 do
    delay.(id) <-
      Sla.link_delay params ~capacity:caps.(id) ~phi_h:phi_h_per_arc.(id)
        ~prop_delay:dels.(id)
  done

let expected_into g ~dag ~arc_delay xi =
  let n = Graph.node_count g in
  Array.fill xi 0 n Float.nan;
  xi.(dag.Spf.dst) <- 0.;
  let dsts = Graph.dsts g and next = dag.Spf.next_arcs in
  (* Walk order_desc backwards: nearest nodes first, so every ECMP
     next hop already has its expectation. *)
  for i = Array.length dag.Spf.order_desc - 1 downto 0 do
    let v = dag.Spf.order_desc.(i) in
    let out = next.(v) in
    let deg = Array.length out in
    assert (deg > 0);
    let acc = ref 0. in
    for j = 0 to deg - 1 do
      let id = out.(j) in
      acc := !acc +. arc_delay.(id) +. xi.(dsts.(id))
    done;
    xi.(v) <- !acc /. float_of_int deg
  done
