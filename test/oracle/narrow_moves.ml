(* Weight moves for the flow-screen tests.  Every weight stays within
   1–3, so equal-cost ties, where a drop test's ≤ decides, are common.
   A move is a single raise, a single drop, one raise and one drop (a
   FindH move) or two drops. *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph

type kind = Raise | Drop | Move | Two_drops

let weights rng g = Array.init (Graph.arc_count g) (fun _ -> Prng.int_incl rng 1 3)

(** A move of a random kind on [w], as [(arc, weight)] changes on
    distinct arcs.  Arcs are drawn until one fits, so the list is
    shorter when none does. *)
let changes rng w =
  let m = Array.length w in
  let rec pick fits taken tries =
    if tries = 0 then None
    else
      let a = Prng.int rng m in
      if fits w.(a) && not (List.mem a taken) then Some a
      else pick fits taken (tries - 1)
  in
  let up taken =
    Option.map
      (fun a -> (a, Prng.int_incl rng (w.(a) + 1) 3))
      (pick (fun x -> x < 3) taken 50)
  in
  let down taken =
    Option.map
      (fun a -> (a, Prng.int_incl rng 1 (w.(a) - 1)))
      (pick (fun x -> x > 1) taken 50)
  in
  let two f g =
    match f [] with
    | None -> []
    | Some ((a, _) as c) -> c :: Option.to_list (g [ a ])
  in
  match Prng.int rng 4 with
  | 0 -> (Raise, Option.to_list (up []))
  | 1 -> (Drop, Option.to_list (down []))
  | 2 -> (Move, two up down)
  | _ -> (Two_drops, two down down)
