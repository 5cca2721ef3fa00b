module Graph = Dtr_graph.Graph
module Prng = Dtr_util.Prng

let min_weight = 1

let max_weight = 30

let mid_weight = (min_weight + max_weight) / 2

let validate g w =
  if Array.length w <> Graph.arc_count g then
    invalid_arg "Weights.validate: length mismatch";
  Array.iter
    (fun x ->
      if x < min_weight || x > max_weight then
        invalid_arg "Weights.validate: weight out of bounds")
    w

let uniform g w =
  if w < min_weight || w > max_weight then
    invalid_arg "Weights.uniform: weight out of bounds";
  Array.make (Graph.arc_count g) w

let random rng g =
  Array.init (Graph.arc_count g) (fun _ -> Prng.int_incl rng min_weight max_weight)

let inverse_capacity g =
  let caps = Graph.capacities g in
  let cmax = Array.fold_left Float.max 0. caps in
  Array.map
    (fun c ->
      let w = int_of_float (Float.round (float_of_int min_weight *. cmax /. c)) in
      Stdlib.min max_weight (Stdlib.max min_weight w))
    caps

let perturb rng ~fraction w =
  if fraction < 0. || fraction > 1. then
    invalid_arg "Weights.perturb: fraction out of range";
  let n = Array.length w in
  let count = int_of_float (Float.ceil (fraction *. float_of_int n)) in
  let count = Stdlib.min count n in
  let result = Array.copy w in
  let idx = Prng.sample_without_replacement rng count n in
  Array.iter
    (fun i -> result.(i) <- Prng.int_incl rng min_weight max_weight)
    idx;
  result

let step w ~arc ~delta =
  if arc < 0 || arc >= Array.length w then invalid_arg "Weights.step: bad arc id";
  let result = Array.copy w in
  result.(arc) <- Stdlib.min max_weight (Stdlib.max min_weight (w.(arc) + delta));
  result
