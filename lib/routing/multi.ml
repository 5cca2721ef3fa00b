module Graph = Dtr_graph.Graph

type t = {
  graph : Graph.t;
  loads : float array array;
  capacity_seen : float array array;
  phi_per_arc : float array array;
  phi : float array;
}

let class_count t = Array.length t.phi

let objective t = Array.copy t.phi

let compare_objective a b =
  if Array.length a <> Array.length b then
    invalid_arg "Multi.compare_objective: length mismatch";
  let rec go i =
    if i = Array.length a then 0
    else begin
      let c = Float.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

let utilization t =
  let caps = Graph.capacities t.graph in
  Array.init (Array.length caps) (fun a ->
      let total = ref 0. in
      Array.iter (fun l -> total := !total +. l.(a)) t.loads;
      !total /. caps.(a))

let avg_utilization t = Dtr_util.Stats.mean (utilization t)
