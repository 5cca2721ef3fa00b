(* From-scratch [T]-class evaluation under strict priority: class 0 is
   served first, class [k] sees the residual capacity left by classes
   [0 .. k-1]. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Matrix = Dtr_traffic.Matrix
module Fortz = Dtr_cost.Fortz
module Weights = Dtr_routing.Weights
module Multi = Dtr_routing.Multi

(** [evaluate g ~weights ~matrices] routes class [k] on
    [weights.(k)] and charges it the Fortz cost against the capacity
    left by higher-priority classes.  Physically equal weight vectors
    share their shortest-path DAGs.
    @raise Invalid_argument if fewer than one class is given, the
    arrays disagree in length, or any class has unroutable demand. *)
let evaluate g ~weights ~matrices =
  let classes = Array.length weights in
  if classes < 1 then invalid_arg "Multi.evaluate: need at least one class";
  if Array.length matrices <> classes then
    invalid_arg "Multi.evaluate: weights/matrices length mismatch";
  Array.iter (fun w -> Weights.validate g w) weights;
  let n = Graph.node_count g in
  Array.iter
    (fun m ->
      if Matrix.size m <> n then invalid_arg "Multi.evaluate: matrix size mismatch")
    matrices;
  (* Share DAGs between physically identical weight vectors. *)
  let dags = Array.make classes [||] in
  for k = 0 to classes - 1 do
    let shared = ref None in
    for j = 0 to k - 1 do
      if !shared = None && weights.(j) == weights.(k) then shared := Some dags.(j)
    done;
    dags.(k) <-
      (match !shared with
      | Some d -> d
      | None -> Spf.all_destinations g ~weights:weights.(k))
  done;
  let loads =
    Array.init classes (fun k -> Ref_loads.of_matrix g ~dags:dags.(k) matrices.(k))
  in
  let m = Graph.arc_count g in
  let caps = Graph.capacities g in
  let capacity_seen = Array.make_matrix classes m 0. in
  for a = 0 to m - 1 do
    capacity_seen.(0).(a) <- caps.(a)
  done;
  for k = 1 to classes - 1 do
    for a = 0 to m - 1 do
      capacity_seen.(k).(a) <-
        Float.max (capacity_seen.(k - 1).(a) -. loads.(k - 1).(a)) 0.
    done
  done;
  let phi_per_arc =
    Array.init classes (fun k ->
        Array.init m (fun a ->
            Fortz.phi ~load:loads.(k).(a) ~capacity:capacity_seen.(k).(a)))
  in
  let phi = Array.map (Array.fold_left ( +. ) 0.) phi_per_arc in
  { Multi.graph = g; dags = Array.map Lazy.from_val dags; loads; capacity_seen; phi_per_arc; phi }
