(* The whole-matrix ECMP load projection: per-destination demand
   columns and even-split contributions summed in ascending destination
   order — the association the incremental engine reproduces bitwise.
   Each destination is walked afresh here, into rows of its own. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix

(** One destination's even-split walk into caller-owned rows: [contrib]
    (length >= arc count) is cleared and [flow] (length >= node count)
    seeded from [demand_to_dst], then the flow goes down [dag.order_desc]
    (upstream nodes first), each node's split evenly over its next-hop
    arcs.  [flow] is left holding each node's throughflow.  Returns
    whether a positive flow split into zero shares.
    @raise Invalid_argument on a length mismatch or undersized
    scratch. *)
let destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib =
  let n = Graph.node_count g and m = Graph.arc_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.destination_loads_into: demand length mismatch";
  if Array.length flow < n || Array.length contrib < m then
    invalid_arg "Loads.destination_loads_into: scratch too small";
  Array.fill contrib 0 m 0.;
  Array.blit demand_to_dst 0 flow 0 n;
  flow.(dag.Spf.dst) <- 0.;
  let zero_shares = ref false in
  Array.iter
    (fun v ->
      let fv = flow.(v) in
      if fv > 0. then begin
        let out = dag.Spf.next_arcs.(v) in
        if Array.length out > 0 then begin
          let share = fv /. float_of_int (Array.length out) in
          if share = 0. then zero_shares := true;
          Array.iter
            (fun a ->
              contrib.(a) <- contrib.(a) +. share;
              let u = Graph.dst g a in
              if u <> dag.Spf.dst then flow.(u) <- flow.(u) +. share)
            out
        end
      end)
    dag.Spf.order_desc;
  !zero_shares

(** One destination's per-arc load contribution: the even-split
    projection of [demand_to_dst] onto the dag's arcs, in fresh rows. *)
let destination_loads g ~dag ~demand_to_dst =
  let contrib = Array.make (Graph.arc_count g) 0. in
  let flow = Array.make (Graph.node_count g) 0. in
  ignore (destination_loads_into g ~dag ~demand_to_dst ~flow ~contrib : bool);
  contrib

(** The demand column towards [dag.dst] ([None] when no source has
    positive demand), in ascending source order.
    @raise Invalid_argument on positive demand between a pair with no
    path. *)
let destination_demand ~dag tm =
  let t = dag.Spf.dst in
  let demand = ref [||] in
  Matrix.iter_col tm t (fun s r ->
      if s <> t then begin
        if dag.Spf.dist.(s) = Dijkstra.unreachable then
          invalid_arg (Printf.sprintf "Loads.destination_demand: no path %d -> %d" s t);
        if Array.length !demand = 0 then demand := Array.make (Matrix.size tm) 0.;
        !demand.(s) <- r
      end);
  if Array.length !demand = 0 then None else Some !demand

(** Per-node total flow towards [dag.dst] (own demand plus transit),
    the intermediate quantity of the even-split recursion (flow
    conservation checks). *)
let node_throughflow g ~dag ~demand_to_dst =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.node_throughflow: demand length mismatch";
  let flow = Array.make n 0. in
  ignore
    (destination_loads_into g ~dag ~demand_to_dst ~flow
       ~contrib:(Array.make (Graph.arc_count g) 0.)
      : bool);
  flow

(** The demand column towards [dag.dst] without the sources that have
    no path to it ([None] when nothing routable is left). *)
let routable_demand ~dag tm =
  let t = dag.Spf.dst in
  let demand = Array.make (Matrix.size tm) 0. in
  let any = ref false in
  Matrix.iter_col tm t (fun s r ->
      if s <> t && dag.Spf.dist.(s) <> Dijkstra.unreachable then begin
        demand.(s) <- r;
        any := true
      end);
  if !any then Some demand else None

(** [of_matrix g ~dags tm] returns per-arc loads (indexed by arc id).
    [dags.(t)] must be the shortest-path DAG for destination [t] (as
    from {!Dtr_graph.Spf.all_destinations}).

    Demand between a pair with no path raises [Invalid_argument]
    unless [drop_unroutable] is set (default [false]), in which case
    it is silently discarded.
    @raise Invalid_argument on a matrix/graph size mismatch. *)
let of_matrix ?(drop_unroutable = false) g ~dags tm =
  let n = Graph.node_count g in
  if Matrix.size tm <> n then invalid_arg "Loads.of_matrix: size mismatch";
  if Array.length dags <> n then invalid_arg "Loads.of_matrix: dags length mismatch";
  let m = Graph.arc_count g in
  let loads = Array.make m 0. in
  for t = 0 to n - 1 do
    let dag = dags.(t) in
    if dag.Spf.dst <> t then invalid_arg "Loads.of_matrix: dag/destination mismatch";
    let demand =
      if drop_unroutable then routable_demand ~dag tm else destination_demand ~dag tm
    in
    match demand with
    | None -> ()
    | Some demand ->
        let contrib = destination_loads g ~dag ~demand_to_dst:demand in
        for a = 0 to m - 1 do
          loads.(a) <- loads.(a) +. contrib.(a)
        done
  done;
  loads
