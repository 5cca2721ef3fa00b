module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist

type params = {
  demand_levels : (float * float * float) array;
  mass_range : float * float;
}

let default =
  {
    demand_levels = [| (0.6, 10., 50.); (0.35, 80., 130.); (0.05, 150., 200.) |];
    mass_range = (1.0, 1.5);
  }

(* Eq. (6) over a set of PoP nodes — a realistic ISP matrix
   concentrates demand between a few dozen PoPs, not all n² pairs, and
   the matrix's memory scales with PoP pairs, not nodes².  Draw order
   follows the [pops] array, so results are deterministic in
   (seed, pops).  The denominator excludes the source's own mass. *)
let generate_pop rng ~n ~pops p =
  let k = Array.length pops in
  if k < 2 then invalid_arg "Gravity.generate_pop: need at least 2 PoPs";
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Gravity.generate_pop: PoP out of range")
    pops;
  let mlo, mhi = p.mass_range in
  if mhi < mlo then invalid_arg "Gravity.generate_pop: bad mass range";
  let mass = Array.map (fun _ -> Prng.uniform rng mlo mhi) pops in
  let attraction = Array.map exp mass in
  let d = Array.init k (fun _ -> Dist.three_level rng p.demand_levels) in
  let m = Matrix.create n in
  let total_attraction = Array.fold_left ( +. ) 0. attraction in
  for i = 0 to k - 1 do
    let denom = total_attraction -. attraction.(i) in
    for j = 0 to k - 1 do
      if j <> i && pops.(i) <> pops.(j) then
        Matrix.set m pops.(i) pops.(j) (d.(i) *. attraction.(j) /. denom)
    done
  done;
  m

(* The paper's all-pairs model: every node a PoP, in id order. *)
let generate rng ~n p =
  if n < 2 then invalid_arg "Gravity.generate: need at least 2 nodes";
  let mlo, mhi = p.mass_range in
  if mhi < mlo then invalid_arg "Gravity.generate: bad mass range";
  generate_pop rng ~n ~pops:(Array.init n Fun.id) p
