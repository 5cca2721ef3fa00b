(* Allocating, pair-list forms of the delay model (paper Eq. 3) over
   the arena kernels {!Dtr_routing.Delay.core_delays_into} and
   {!Dtr_routing.Delay.expected_into}. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Delay = Dtr_routing.Delay

(** Mean delay (ms) of every arc given the per-arc Fortz cost of
    high-priority traffic.  @raise Invalid_argument on length
    mismatch. *)
let arc_delays params g ~phi_h_per_arc =
  let m = Graph.arc_count g in
  let delay = Array.make m 0. in
  Delay.core_delays_into params g ~arcs:(Array.init m Fun.id) ~phi_h_per_arc delay;
  delay

(** [xi.(v)]: expected delay from [v] to [dag.dst] when flow splits
    evenly at every ECMP hop; [xi.(dst) = 0.]; [nan] for unreachable
    nodes. *)
let expected_to_destination g ~dag ~arc_delay =
  let xi = Array.make (Graph.node_count g) Float.nan in
  Delay.expected_into g ~dag ~arc_delay xi;
  xi

(** A disconnected SD pair is a data condition (failure sweeps evaluate
    deliberately cut topologies), not an error. *)
type pair_delay = Reachable of float | Unreachable

(** Expected delays for specific SD pairs; [Unreachable] for pairs with
    no path instead of raising mid-sweep. *)
let pair_delays g ~dags ~arc_delay ~pairs =
  (* Compute expectations lazily, one destination at a time. *)
  let n = Graph.node_count g in
  let cache = Array.make n None in
  let xi_for t =
    match cache.(t) with
    | Some xi -> xi
    | None ->
        let xi = expected_to_destination g ~dag:dags.(t) ~arc_delay in
        cache.(t) <- Some xi;
        xi
  in
  List.map
    (fun (s, t) ->
      (* A disconnected pair is data, not a programming error: failure
         sweeps evaluate deliberately cut topologies, and one severed
         pair must not abort the whole sweep. *)
      if dags.(t).Spf.dist.(s) = Dijkstra.unreachable then (s, t, Unreachable)
      else (s, t, Reachable (xi_for t).(s)))
    pairs
