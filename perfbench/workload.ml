(* The workloads and their set-up.

   A workload fixes the network and its traffic (one
   scenario instance, generated from the workload's own instance
   seed), the cost model, the kind of start, the iteration caps and the
   scan width.  A run is a series of episodes: each episode sets the
   workload up from scratch and runs one capped search.  The run's seed
   generates the episodes' start weights where the start is random, and
   their search streams where it is the fixed mid-range start.
   Everything an episode computes is a pure function of (workload,
   seed, episode), so wall time is the only thing that varies between
   runs.  README.md says why each workload was chosen. *)

module Scenario = Dtr_experiments.Scenario
module Large = Dtr_topology.Large
module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Prng = Dtr_util.Prng

type start =
  | Random_start  (** seeded uniform weights, as in Search_bench *)
  | Mid_start  (** every weight at the middle of [1, 30] *)

type t = {
  name : string;
  topology : Scenario.topology_kind;
  instance_seed : int;  (** seed of the network and traffic matrices *)
  model : Objective.model;
  util : float;  (** target average link utilization *)
  start : start;
  cfg : Search_config.t;  (** caps, scan width, robust mode *)
  episode_s : float;
      (** nominal wall time of one episode on a 2-core x86 container;
          sizes the number of episodes a run of [--seconds] makes *)
}

let ts1k =
  match Large.find "ts-1k" with
  | Some p -> Scenario.Large p
  | None -> failwith "ts-1k preset missing"

(* [n] iterations in each of DTR's routines 1 and 2, [k] in the
   refinement routine, diversification after [stall] iterations
   without improvement. *)
let caps ~n ~k ~stall =
  {
    Search_config.quick with
    Search_config.n_iters = n;
    k_iters = k;
    diversify_after = stall;
  }

(* [tiny] shrinks every cap to a handful of iterations for the
   self-test; the workloads are otherwise unchanged. *)
let all ~tiny =
  let cap full small = if tiny then small else full in
  [
    {
      name = "dtr-ts1k-load";
      topology = ts1k;
      instance_seed = 1;
      model = Objective.Load;
      util = 0.6;
      start = Random_start;
      cfg = caps ~n:(cap 10 2) ~k:(cap 10 2) ~stall:(cap 10 2);
      episode_s = 3.0;
    };
    {
      name = "dtr-isp-sla";
      topology = Scenario.Isp;
      instance_seed = 1;
      model = Objective.Sla Dtr_cost.Sla.default;
      util = 0.6;
      start = Mid_start;
      cfg = caps ~n:(cap 1500 3) ~k:(cap 3000 3) ~stall:(cap 60 2);
      episode_s = 4.8;
    };
    {
      name = "dtr-rand30-robust";
      topology = Scenario.Random_topo;
      instance_seed = 1;
      model = Objective.Load;
      util = 0.6;
      start = Mid_start;
      cfg =
        {
          (caps ~n:(cap 30 2) ~k:(cap 60 2) ~stall:(cap 30 2)) with
          robust = Some { Search_config.alpha = 1.; top_k = 1 };
        };
      episode_s = 1.6;
    };
  ]

let find ~tiny name = List.find_opt (fun w -> w.name = name) (all ~tiny)

let names () = List.map (fun w -> w.name) (all ~tiny:false)

let episodes w ~seconds =
  max 3 (int_of_float (seconds /. w.episode_s))

(* Per-episode seeds, drawn in episode order from the run's seed. *)
let episode_seeds ~seed n =
  let root = Prng.create seed in
  List.init n (fun _ -> Prng.int root (1 lsl 30))

(* ------------------------------------------------------------------ *)
(* Set-up: topology and demand generation, utilization scaling, the
   problem, and the first full evaluation of the start weights. *)

type instance = {
  problem : Problem.t;
  w0 : int array * int array;  (** start weights (W_H, W_L) *)
  start : Problem.solution;  (** the first full evaluation *)
  search_seed : int;  (** seed of the search stream *)
}

let setup w ~episode_seed ~index =
  let spec =
    {
      Scenario.topology = w.topology;
      fraction = 0.30;
      hp = Scenario.Random_density 0.10;
      seed = w.instance_seed;
    }
  in
  let inst = Scenario.make spec in
  let inst = Scenario.scale_to_utilization inst ~target:w.util in
  let problem = Scenario.problem inst ~model:w.model in
  let g = problem.Problem.graph in
  let root = Prng.create episode_seed in
  let w0, search_seed =
    match w.start with
    | Random_start ->
        let wh = Weights.random root g in
        let wl = Weights.random root g in
        (* Common random numbers: episode [index] draws the same search
           stream in every run, so runs differ in their inputs, not in
           the heuristic's own choices.  A search's cost on the ts-1k
           network hinges on which arcs those choices hit (README.md,
           "Runs, episodes and seeds"). *)
        ((wh, wl), Prng.int (Prng.create (1_000 + index)) (1 lsl 30))
    | Mid_start ->
        let mid = (Weights.min_weight + Weights.max_weight) / 2 in
        ((Weights.uniform g mid, Weights.uniform g mid), Prng.int root (1 lsl 30))
  in
  let start = Problem.eval_dtr problem ~wh:(fst w0) ~wl:(snd w0) in
  { problem; w0; start; search_seed }

let count_pairs m =
  let c = ref 0 in
  Matrix.iter m (fun _ _ _ -> incr c);
  !c

(* Input size, recorded next to the manifest. *)
let size_json w inst ~episodes =
  let p = inst.problem in
  let g = p.Problem.graph in
  let cfg = w.cfg in
  Printf.sprintf
    "{\"nodes\": %d, \"arcs\": %d, \"demand_pairs_h\": %d, \
     \"demand_pairs_l\": %d, \"model\": %S, \"start\": %S, \
     \"n_iters\": %d, \"k_iters\": %d, \"scan_jobs\": %d, \
     \"robust\": %b, \"instance_seed\": %d, \"episodes\": %d}"
    (Graph.node_count g) (Graph.arc_count g) (count_pairs p.Problem.th)
    (count_pairs p.Problem.tl)
    (Objective.model_name w.model)
    (match w.start with Random_start -> "random" | Mid_start -> "mid")
    cfg.Search_config.n_iters cfg.Search_config.k_iters
    cfg.Search_config.scan_jobs
    (cfg.Search_config.robust <> None)
    w.instance_seed episodes
