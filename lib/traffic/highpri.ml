module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph

let random_pairs rng ~n ~density =
  if n < 2 then invalid_arg "Highpri.random_pairs: need at least 2 nodes";
  if not (0. <= density && density <= 1.) then
    invalid_arg "Highpri.random_pairs: density must be in [0, 1]";
  let all = n * (n - 1) in
  let count = int_of_float (Float.round (density *. float_of_int all)) in
  let chosen = Prng.sample_without_replacement rng count all in
  (* Ordered-pair index p maps to (s, t): s = p / (n-1); t skips s. *)
  Array.to_list
    (Array.map
       (fun p ->
         let s = p / (n - 1) in
         let r = p mod (n - 1) in
         let t = if r >= s then r + 1 else r in
         (s, t))
       chosen)

let sink_pairs ~sinks ~clients =
  let seen = Hashtbl.create 16 in
  let check_distinct label arr =
    Array.iter
      (fun v ->
        if Hashtbl.mem seen v then
          invalid_arg ("Highpri.sink_pairs: duplicate/overlapping " ^ label);
        Hashtbl.add seen v ())
      arr
  in
  check_distinct "sinks" sinks;
  check_distinct "clients" clients;
  let acc = ref [] in
  Array.iter
    (fun c ->
      Array.iter
        (fun s ->
          acc := (c, s) :: (s, c) :: !acc)
        sinks)
    clients;
  List.rev !acc

type placement = Uniform | Local

let hop_distance_to_set g sinks =
  (* Multi-source BFS over outgoing arcs (graphs here are symmetric). *)
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  Array.iter
    (fun s ->
      dist.(s) <- 0;
      Queue.add s q)
    sinks;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let off = Graph.out_offsets g and ids = Graph.out_arc_ids g in
    for k = off.(v) to off.(v + 1) - 1 do
      let u = Graph.dst g ids.(k) in
      if dist.(u) = max_int then begin
        dist.(u) <- dist.(v) + 1;
        Queue.add u q
      end
    done
  done;
  dist

let select_clients rng g ~sinks ~count placement =
  let n = Graph.node_count g in
  let is_sink = Array.make n false in
  Array.iter (fun s -> is_sink.(s) <- true) sinks;
  let candidates = ref [] in
  for v = n - 1 downto 0 do
    if not is_sink.(v) then candidates := v :: !candidates
  done;
  let candidates = Array.of_list !candidates in
  if count < 0 || count > Array.length candidates then
    invalid_arg "Highpri.select_clients: count out of range";
  match placement with
  | Uniform ->
      let idx = Prng.sample_without_replacement rng count (Array.length candidates) in
      Array.map (fun i -> candidates.(i)) idx
  | Local ->
      let dist = hop_distance_to_set g sinks in
      (* Shuffle first so equal-distance ties break randomly. *)
      Prng.shuffle rng candidates;
      let sorted = Array.copy candidates in
      Array.sort (fun a b -> compare dist.(a) dist.(b)) sorted;
      Array.sub sorted 0 count

let client_count_for_density ~n ~sinks ~density =
  if sinks <= 0 then invalid_arg "Highpri.client_count_for_density: no sinks";
  let ideal =
    density *. float_of_int (n * (n - 1)) /. (2. *. float_of_int sinks)
  in
  let c = int_of_float (Float.round ideal) in
  max 1 (min c (n - sinks))

let volumes rng ~low ~fraction ~pairs =
  if not (0. < fraction && fraction < 1.) then
    invalid_arg "Highpri.volumes: fraction must be in (0, 1)";
  if pairs = [] then invalid_arg "Highpri.volumes: no pairs";
  List.iter
    (fun (s, t) -> if s = t then invalid_arg "Highpri.volumes: diagonal pair")
    pairs;
  let eta_l = Matrix.total low in
  let target = eta_l *. fraction /. (1. -. fraction) in
  let marks = List.map (fun _ -> Prng.uniform rng 1. 4.) pairs in
  let mark_sum = List.fold_left ( +. ) 0. marks in
  let m = Matrix.create (Matrix.size low) in
  List.iter2
    (fun (s, t) mk -> Matrix.add m s t (target *. mk /. mark_sum))
    pairs marks;
  m
