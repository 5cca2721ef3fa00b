(* Reference shortest-path kernels for the kernel-equivalence property
   tests: the same distances as {!Dtr_graph.Dijkstra.distances_to},
   computed by a float-keyed binary heap and by Bellman–Ford. *)

module Graph = Dtr_graph.Graph
module Dijkstra = Dtr_graph.Dijkstra

let unreachable = Dijkstra.unreachable
let suppressed = Dijkstra.suppressed

let validate g ~weights ~node =
  Dijkstra.validate_weights g ~weights;
  if node < 0 || node >= Graph.node_count g then
    invalid_arg "Dijkstra: node out of range"

(* Binary-heap Dijkstra, kept as an independent reference
   implementation for the kernel-equivalence property tests. *)
let run_heap n ~adj ~other ~weights ~start =
  let dist = Array.make n unreachable in
  let settled = Array.make n false in
  let q = Dtr_util.Pqueue.create () in
  dist.(start) <- 0;
  Dtr_util.Pqueue.add q 0. start;
  let continue = ref true in
  while !continue do
    match Dtr_util.Pqueue.pop_min q with
    | None -> continue := false
    | Some (_, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          Array.iter
            (fun id ->
              let u = other id in
              if (not settled.(u)) && weights.(id) <> suppressed then begin
                let cand = dist.(v) + weights.(id) in
                if cand < dist.(u) then begin
                  dist.(u) <- cand;
                  Dtr_util.Pqueue.add q (float_of_int cand) u
                end
              end)
            (adj v)
        end
  done;
  dist

(** Same result as {!Dtr_graph.Dijkstra.distances_to} computed with a
    float-keyed binary heap; reference implementation for
    kernel-equivalence tests. *)
let distances_to_heap g ~weights ~dst =
  validate g ~weights ~node:dst;
  run_heap (Graph.node_count g)
    ~adj:(Graph.in_arcs g)
    ~other:(fun id -> Graph.src g id)
    ~weights ~start:dst

(** Same result as {!Dtr_graph.Dijkstra.distances_to} computed by
    Bellman–Ford in O(nm); kept as an independent oracle for property
    tests. *)
let bellman_ford_to g ~weights ~dst =
  validate g ~weights ~node:dst;
  let n = Graph.node_count g in
  let m = Graph.arc_count g in
  let srcs = Graph.srcs g and dsts = Graph.dsts g in
  let dist = Array.make n unreachable in
  dist.(dst) <- 0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for id = 0 to m - 1 do
      if dist.(dsts.(id)) <> unreachable && weights.(id) <> suppressed then begin
        let cand = dist.(dsts.(id)) + weights.(id) in
        if cand < dist.(srcs.(id)) then begin
          dist.(srcs.(id)) <- cand;
          changed := true
        end
      end
    done
  done;
  dist
