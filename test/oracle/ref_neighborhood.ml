(* The weight vector a two-arc move produces, built directly: the
   reference the change lists of Neighborhood.move_changes are checked
   against. *)

module Neighborhood = Dtr_core.Neighborhood
module Weights = Dtr_routing.Weights

(** Fresh weight vector with the move applied ([step >= 1]): the up arc
    raised and the down arc lowered by [step], clamped to the
    [\[1, 30\]] weight bounds.  Identity moves (both arcs already
    pinned at their bound) still return a fresh copy. *)
let apply (move : Neighborhood.move) ~step w =
  if step < 1 then invalid_arg "Ref_neighborhood.apply: step must be positive";
  let result = Array.copy w in
  let up = move.Neighborhood.up_arc and down = move.Neighborhood.down_arc in
  result.(up) <- min Weights.max_weight (w.(up) + step);
  result.(down) <- max Weights.min_weight (w.(down) - step);
  result
