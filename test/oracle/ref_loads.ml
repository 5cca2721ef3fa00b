(* The whole-matrix ECMP load projection: per-destination demand
   columns and even-split contributions summed in ascending destination
   order — the association the incremental engine reproduces bitwise. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Matrix = Dtr_traffic.Matrix
module Loads = Dtr_routing.Loads

(** Per-node total flow towards [dag.dst] (own demand plus transit),
    the intermediate quantity of the even-split recursion (flow
    conservation checks). *)
let node_throughflow g ~dag ~demand_to_dst =
  let n = Graph.node_count g in
  if Array.length demand_to_dst <> n then
    invalid_arg "Loads.node_throughflow: demand length mismatch";
  let flow = Array.make n 0. in
  ignore
    (Loads.destination_loads_into g ~dag ~demand_to_dst ~flow
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
      if s <> t && dag.Spf.dist.(s) <> Dtr_graph.Dijkstra.unreachable then begin
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
      if drop_unroutable then routable_demand ~dag tm
      else Loads.destination_demand ~dag tm
    in
    match demand with
    | None -> ()
    | Some demand ->
        let contrib = Loads.destination_loads g ~dag ~demand_to_dst:demand in
        for a = 0 to m - 1 do
          loads.(a) <- loads.(a) +. contrib.(a)
        done
  done;
  loads
