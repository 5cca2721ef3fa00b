(* From-scratch price of single-link failures: rebuild the reduced
   graph, remap the weights and evaluate it from scratch.  The
   specification the delta sweep ({!Dtr_routing.Failure_sweep.sweep})
   must match bitwise, outcome for outcome, on both cost models. *)

module Graph = Dtr_graph.Graph
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Failure_sweep = Dtr_routing.Failure_sweep

(** Remove exactly the undirected link [(a, b)] — arc [a] and its
    reverse twin [b] as paired by
    {!Dtr_graph.Graph.undirected_link_pairs} ([a = b] for a one-way
    arc) — never any parallel arcs between the same endpoints.
    Returns the reduced graph and, for each surviving arc, its
    original arc id (for weight remapping).  The reduced graph may be
    disconnected; callers decide what that means.
    @raise Invalid_argument if the ids are out of range or not reverse
    twins of each other. *)
let fail_link g ~link:(a, b) =
  let m = Graph.arc_count g in
  if a < 0 || a >= m || b < 0 || b >= m then
    invalid_arg "Failure_sweep.fail_link: arc out of range";
  (if a <> b then begin
     let aa = Graph.arc g a and ab = Graph.arc g b in
     if aa.Graph.src <> ab.Graph.dst || aa.Graph.dst <> ab.Graph.src then
       invalid_arg "Failure_sweep.fail_link: arcs are not reverse twins"
   end);
  let survivors = ref [] and mapping = ref [] in
  Array.iteri
    (fun id arc ->
      if id <> a && id <> b then begin
        survivors := arc :: !survivors;
        mapping := id :: !mapping
      end)
    (Graph.arcs g);
  ( Graph.build ~n:(Graph.node_count g) (List.rev !survivors),
    Array.of_list (List.rev !mapping) )

let remap_weights w mapping = Array.map (fun orig -> w.(orig)) mapping

(* Severed positive-demand pairs on the reduced graph, with the same
   counting rule as Eval_ctx.fail_probe: one per (class, src, dst)
   with positive matrix demand and no surviving path.  Reachability is
   weight-independent, so unit weights do. *)
let severed_pairs reduced ~matrices =
  let n = Graph.node_count reduced in
  let ones = Array.make (Graph.arc_count reduced) 1 in
  let count = ref 0 in
  for dst = 0 to n - 1 do
    let dist = Dijkstra.distances_to_unchecked reduced ~weights:ones ~dst in
    Array.iter
      (fun tm ->
        for s = 0 to n - 1 do
          if
            s <> dst
            && Matrix.get tm s dst > 0.
            && dist.(s) = Dijkstra.unreachable
          then incr count
        done)
      matrices
  done;
  !count

(** From-scratch price of one link failure: build the reduced graph,
    remap the weights, count severed positive-demand pairs, and (when
    none) evaluate the model on the reduced graph. *)
let oracle ~model g ~wh ~wl ~th ~tl ~link =
  let reduced, mapping = fail_link g ~link in
  let unreachable_pairs = severed_pairs reduced ~matrices:[| th; tl |] in
  if unreachable_pairs > 0 then
    { Failure_sweep.cost = Lexico.infinity; unreachable_pairs }
  else begin
    let wh' = remap_weights wh mapping in
    let wl' = remap_weights wl mapping in
    let r = Ref_objective.evaluate model reduced ~wh:wh' ~wl:wl' ~th ~tl in
    { Failure_sweep.cost = r.Objective.objective; unreachable_pairs = 0 }
  end

(** {!oracle} over every physical link, in
    {!Dtr_graph.Graph.undirected_link_pairs} order. *)
let oracle_sweep ?(model = Objective.Load) g ~wh ~wl ~th ~tl =
  let links = Graph.undirected_link_pairs g in
  let k = Array.length links in
  let out = Array.make k { Failure_sweep.cost = Lexico.zero; unreachable_pairs = 0 } in
  for i = 0 to k - 1 do
    out.(i) <- oracle ~model g ~wh ~wl ~th ~tl ~link:links.(i)
  done;
  out
