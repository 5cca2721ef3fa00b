module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Random_topo = Dtr_topology.Random_topo
module Power_law = Dtr_topology.Power_law
module Isp = Dtr_topology.Isp
module Large = Dtr_topology.Large
module Eval_ctx = Dtr_routing.Eval_ctx
module Weights = Dtr_routing.Weights

type topology_kind =
  | Random_topo
  | Power_law
  | Isp
  | Waxman
  | Transit_stub
  | Abilene
  | Large of Large.preset

let topology_name = function
  | Random_topo -> "random"
  | Power_law -> "power-law"
  | Isp -> "isp"
  | Waxman -> "waxman"
  | Transit_stub -> "transit-stub"
  | Abilene -> "abilene"
  | Large p -> p.Large.name

type hp_model =
  | Random_density of float
  | Sinks of {
      sinks : int;
      density : float;
      placement : Highpri.placement;
    }

type spec = {
  topology : topology_kind;
  fraction : float;
  hp : hp_model;
  seed : int;
}

type instance = {
  graph : Graph.t;
  th : Matrix.t;
  tl : Matrix.t;
  spec : spec;
}

let build_topology rng = function
  | Random_topo -> Dtr_topology.Random_topo.generate rng Dtr_topology.Random_topo.default
  | Power_law -> Dtr_topology.Power_law.generate rng Dtr_topology.Power_law.default
  | Isp -> Dtr_topology.Isp.generate ()
  | Waxman -> Dtr_topology.Waxman.generate rng Dtr_topology.Waxman.default
  | Transit_stub ->
      Dtr_topology.Transit_stub.generate rng Dtr_topology.Transit_stub.default
  | Abilene -> Dtr_topology.Abilene.generate ()
  | Large p -> Large.generate rng p

(* Large presets: PoP-level gravity demand (sparse) with the high
   class riding a density-[k] subset of the low-class pairs at
   [fraction] of the pair's volume — the same f/k knobs as the dense
   scenarios, applied to the sparse tier. *)
let make_large spec p =
  let density =
    match spec.hp with
    | Random_density k -> k
    | Sinks _ ->
        invalid_arg
          "Scenario.make: sink placement is not supported on large presets \
           (PoP demand pairs have no per-node client model); use \
           Random_density"
  in
  let root = Prng.create spec.seed in
  let topo_rng = Prng.split root in
  let traffic_rng = Prng.split root in
  let graph = Large.generate topo_rng p in
  let n = Graph.node_count graph in
  let pops = Large.pop_nodes graph p in
  let tl = Gravity.generate_pop traffic_rng ~n ~pops Gravity.default in
  let th = Matrix.create_sparse n in
  Matrix.iter tl (fun s t v ->
      if Prng.float traffic_rng 1.0 < density then
        Matrix.set th s t (spec.fraction *. v));
  { graph; th; tl; spec }

(* Range tests written so that NaN fails them too. *)
let validate spec =
  if not (0. < spec.fraction && spec.fraction < 1.) then
    invalid_arg "Scenario.make: fraction must be in (0, 1)";
  let density =
    match spec.hp with Random_density k -> k | Sinks { density; _ } -> density
  in
  if not (0. <= density && density <= 1.) then
    invalid_arg "Scenario.make: density must be in [0, 1]"

let make spec =
  validate spec;
  match spec.topology with
  | Large p -> make_large spec p
  | _ ->
  let root = Prng.create spec.seed in
  let topo_rng = Prng.split root in
  let traffic_rng = Prng.split root in
  let graph = build_topology topo_rng spec.topology in
  let n = Graph.node_count graph in
  let tl = Gravity.generate traffic_rng ~n Gravity.default in
  let pairs =
    match spec.hp with
    | Random_density k -> Highpri.random_pairs traffic_rng ~n ~density:k
    | Sinks { sinks; density; placement } ->
        let sink_nodes = Dtr_topology.Power_law.top_degree_nodes graph sinks in
        let count =
          Highpri.client_count_for_density ~n ~sinks ~density
        in
        let clients =
          Highpri.select_clients traffic_rng graph ~sinks:sink_nodes ~count
            placement
        in
        Highpri.sink_pairs ~sinks:sink_nodes ~clients
  in
  let th =
    Highpri.volumes traffic_rng ~low:tl ~fraction:spec.fraction ~pairs
  in
  { graph; th; tl; spec }

let reference_avg_utilization graph matrices =
  let w = Weights.uniform graph Weights.mid_weight in
  let ctx =
    Eval_ctx.create graph
      ~weights:(Array.make (Array.length matrices) w)
      ~matrices
  in
  let loads = Array.init (Array.length matrices) (Eval_ctx.loads ctx) in
  Dtr_util.Stats.mean
    (Array.mapi
       (fun a cap ->
         let total = ref 0. in
         Array.iter (fun l -> total := !total +. l.(a)) loads;
         !total /. cap)
       (Graph.capacities graph))

let scale_to_utilization inst ~target =
  if not (target > 0. && Float.is_finite target) then
    invalid_arg "Scenario.scale_to_utilization: bad target";
  let current = reference_avg_utilization inst.graph [| inst.th; inst.tl |] in
  let factor = target /. current in
  {
    inst with
    th = Matrix.scale inst.th factor;
    tl = Matrix.scale inst.tl factor;
  }

let problem inst ~model =
  Dtr_core.Problem.create ~graph:inst.graph ~th:inst.th ~tl:inst.tl ~model
