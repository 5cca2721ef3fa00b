module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist
module Weights = Dtr_routing.Weights

type move = { up_arc : int; down_arc : int }

let rank_by_cost ~cmp n_arcs =
  let ids = Array.init n_arcs (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = cmp b a in
      (* decreasing cost *)
      if c <> 0 then c else compare a b)
    ids;
  ids

let candidate_sets ?ht rng ~tau ~m ~ranking =
  let n = Array.length ranking in
  if n = 0 then invalid_arg "Neighborhood.candidate_sets: empty ranking";
  if m < 1 then invalid_arg "Neighborhood.candidate_sets: m must be positive";
  let m = min m n in
  let support = n - m + 1 in
  let ht =
    match ht with
    | Some t ->
        if Dist.heavy_tail_size t <> support then
          invalid_arg "Neighborhood.candidate_sets: sampler size mismatch";
        t
    | None -> Dist.heavy_tail ~tau ~n:support
  in
  let k1 = Dist.heavy_tail_sample ht rng in
  let k2 = Dist.heavy_tail_sample ht rng in
  (* A: ranks k1 .. k1+m-1 (1-based from the top). *)
  let a = Array.init m (fun i -> ranking.(k1 - 1 + i)) in
  (* B: ranks n+1-k2 down to n+2-k2-m (1-based), i.e. m consecutive
     ranks ending k2-1 above the bottom. *)
  let b = Array.init m (fun i -> ranking.(n - k2 - i)) in
  (a, b)

let moves rng ~a ~b =
  let a = Array.copy a and b = Array.copy b in
  Prng.shuffle rng a;
  Prng.shuffle rng b;
  let count = min (Array.length a) (Array.length b) in
  let acc = ref [] in
  for i = count - 1 downto 0 do
    if a.(i) <> b.(i) then acc := { up_arc = a.(i); down_arc = b.(i) } :: !acc
  done;
  !acc

let changes w sets =
  List.filter
    (fun (arc, v) -> w.(arc) <> v)
    (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) sets)

let move_changes move ~step w =
  if step < 1 then invalid_arg "Neighborhood.move_changes: step must be positive";
  changes w
    [
      (move.up_arc, min Weights.max_weight (w.(move.up_arc) + step));
      (move.down_arc, max Weights.min_weight (w.(move.down_arc) - step));
    ]

type samplers = { arc : Dist.heavy_tail; window : Dist.heavy_tail }

let samplers cfg n_arcs =
  let tau = cfg.Search_config.tau in
  {
    arc = Dist.heavy_tail ~tau ~n:n_arcs;
    window =
      Dist.heavy_tail ~tau
        ~n:(n_arcs - min Search_config.m n_arcs + 1);
  }

(* The Fortz–Thorup move: every other value of one heavy-tail-ranked
   arc, in descending value order. *)
let scan_candidates samplers rng ~ranking w =
  if Dist.heavy_tail_size samplers.arc <> Array.length ranking then
    invalid_arg "Neighborhood.candidates: sampler size mismatch";
  let arc = ranking.(Dist.heavy_tail_sample samplers.arc rng - 1) in
  let acc = ref [] in
  for v = Weights.min_weight to Weights.max_weight do
    if v <> w.(arc) then acc := changes w [ (arc, v) ] :: !acc
  done;
  !acc

let move_candidates samplers rng cfg ~ranking w =
  let a, b =
    candidate_sets ~ht:samplers.window rng ~tau:cfg.Search_config.tau
      ~m:Search_config.m ~ranking
  in
  List.map
    (fun move ->
      let step = Prng.int_incl rng 1 cfg.Search_config.max_step in
      move_changes move ~step w)
    (moves rng ~a ~b)

let candidates samplers rng cfg ~ranking w =
  if Prng.float rng 1.0 < cfg.Search_config.scan_probability then
    scan_candidates samplers rng ~ranking w
  else move_candidates samplers rng cfg ~ranking w
