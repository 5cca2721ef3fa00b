(* Trajectory golden: STR, DTR, their robust modes and simulated
   annealing on the 16-node ISP scenario at Search_config.quick, under
   both cost models, and the two MTR searches on the ext-3class
   problem, from fixed seeds.  The robust modes run again at top_k = 2
   on the ISP, and at CI's robust-smoke settings on transit-stub seed 3,
   where 8 of the 38 links are cut.  Two DTR searches run on the
   1,000-node ts-1k preset, whose demand-only contexts route on the
   30-PoP demand core: one under the load model at the iteration caps
   of the benchmark's ts-1k workload (10/10/10) from a random start,
   one robust at 2/2/2, and one under the SLA model at 10/10/10, whose
   Λ walk runs on a core that is not the whole graph.  STR runs there
   too, ten iterations under the load model, its one weight group
   routed on the core of both classes' demand.  One line per search pins its final
   objective (hex floats, so a match is bitwise), its evaluation
   count, its improvements (accepted moves for annealing), its memo
   hits/misses, a digest of the final weight vectors and the MD5 of
   its timestamp-free trace.  Any change to a search's trajectory —
   one accepted move more or less, one ULP of drift — or to one field
   of one trace event changes some line.

   Regenerate trajectory.golden with DTR_UPDATE_GOLDEN=1, and only
   when a trajectory change is intended. *)

module Prng = Dtr_util.Prng
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Search_config = Dtr_core.Search_config
module Problem = Dtr_core.Problem
module Str_search = Dtr_core.Str_search
module Dtr_search = Dtr_core.Dtr_search
module Anneal_search = Dtr_core.Anneal_search
module Mtr_search = Dtr_core.Mtr_search
module Trace = Dtr_core.Trace
module Scenario = Dtr_experiments.Scenario

let golden_file = "trajectory.golden"

(* The annealing schedule of the core tests: about twenty temperature
   levels of ten proposals per phase. *)
let fast_schedule =
  {
    Anneal_search.t0_ratio = 0.05;
    cooling = 0.8;
    moves_per_temp = 10;
    t_min_ratio = 0.01;
  }

let isp_problem model =
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Isp;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed = 1;
      }
  in
  let inst = Scenario.scale_to_utilization inst ~target:0.6 in
  Scenario.problem inst ~model

(* The instance of CI's robust smoke
   (optimize --topology transit-stub --seed 3). *)
let transit_stub_problem () =
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Transit_stub;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed = 3;
      }
  in
  Scenario.problem (Scenario.scale_to_utilization inst ~target:0.6)
    ~model:Objective.Load

(* The ts-1k preset's instance, built as the benchmark's ts-1k
   workload builds it, and a random start drawn from [seed]. *)
let ts1k_problem ?(model = Objective.Load) () =
  let p = Option.get (Dtr_topology.Large.find "ts-1k") in
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Large p;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed = 1;
      }
  in
  Scenario.problem (Scenario.scale_to_utilization inst ~target:0.6) ~model

let random_start p seed =
  let rng = Prng.create seed in
  let g = p.Problem.graph in
  let wh = Dtr_routing.Weights.random rng g in
  (wh, Dtr_routing.Weights.random rng g)

let digest_vectors ws =
  let b = Buffer.create 256 in
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b '|';
      Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) w)
    ws;
  Digest.to_hex (Digest.string (Buffer.contents b))

let weights_digest (s : Problem.solution) =
  digest_vectors [ s.Problem.wh; s.Problem.wl ]

(* Run a search into a timestamp-free ring and return its result with
   the MD5 of the JSONL the ring holds. *)
let traced f =
  let trace = Trace.ring ~timestamps:false () in
  let r = f trace in
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Trace.to_json e);
      Buffer.add_char b '\n')
    (Trace.events trace);
  (r, Digest.to_hex (Digest.string (Buffer.contents b)))

let line ~algo ~model ~seed ~(objective : Lexico.t) ~evaluations ~improvements
    ~memo ~trace best =
  Printf.sprintf "%s %s seed=%d obj=%h,%h evals=%d impr=%d memo=%s w=%s trace=%s"
    algo (Objective.model_name model) seed objective.Lexico.primary
    objective.Lexico.secondary evaluations improvements memo
    (weights_digest best) trace

let memo hits misses = Printf.sprintf "%d/%d" hits misses

let robust_cfg ?(alpha = 1.) ?(top_k = 1) () =
  {
    Search_config.quick with
    Search_config.robust = Some { Search_config.alpha; top_k };
  }

let str_line ?w0 ?iters ~algo ~model p seed cfg =
  let r, trace =
    traced (fun trace -> Str_search.run ?w0 ?iters ~trace (Prng.create seed) cfg p)
  in
  line ~algo ~model ~seed ~objective:r.Str_search.objective
    ~evaluations:r.Str_search.evaluations
    ~improvements:r.Str_search.improvements
    ~memo:(memo r.Str_search.memo_hits r.Str_search.memo_misses)
    ~trace r.Str_search.best

let dtr_line ?w0 ~algo ~model p seed cfg =
  let r, trace =
    traced (fun trace -> Dtr_search.run ?w0 ~trace (Prng.create seed) cfg p)
  in
  line ~algo ~model ~seed ~objective:r.Dtr_search.objective
    ~evaluations:r.Dtr_search.evaluations
    ~improvements:r.Dtr_search.improvements
    ~memo:(memo r.Dtr_search.memo_hits r.Dtr_search.memo_misses)
    ~trace r.Dtr_search.best

let runs model p seed =
  let str_line algo cfg = str_line ~algo ~model p seed cfg in
  let dtr_line algo cfg = dtr_line ~algo ~model p seed cfg in
  let ann, ann_trace =
    traced (fun trace ->
        Anneal_search.run ~schedule:fast_schedule ~trace (Prng.create seed)
          Search_config.quick p)
  in
  [
    str_line "str" Search_config.quick;
    str_line "str-robust" (robust_cfg ());
    dtr_line "dtr" Search_config.quick;
    dtr_line "dtr-robust" (robust_cfg ());
    line ~algo:"anneal" ~model ~seed ~objective:ann.Anneal_search.objective
      ~evaluations:ann.Anneal_search.evaluations
      ~improvements:ann.Anneal_search.accepted ~memo:"-" ~trace:ann_trace
      ann.Anneal_search.best;
  ]

(* The multi-topology search and its shared-vector baseline on the
   ext-3class problem (three classes, load cost). *)
let mtr_runs p seed =
  let mtr_line algo run =
    let r, trace = traced (fun trace -> run ~trace (Prng.create seed)) in
    Printf.sprintf "%s load seed=%d obj=%s evals=%d impr=%d memo=- w=%s trace=%s"
      algo seed
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%h") r.Mtr_search.objective)))
      r.Mtr_search.evaluations r.Mtr_search.improvements
      (digest_vectors (Array.to_list r.Mtr_search.weights))
      trace
  in
  [
    mtr_line "mtr" (fun ~trace rng ->
        Mtr_search.run ~trace rng Search_config.quick p);
    mtr_line "mtr-single" (fun ~trace rng ->
        Mtr_search.run_single_topology ~trace rng Search_config.quick p);
  ]

let trajectories () =
  List.concat_map
    (fun model ->
      let p = isp_problem model in
      List.concat_map (runs model p) [ 1; 2 ])
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]
  @ (let p = Dtr_experiments.Multi_class.problem () in
     List.concat_map (mtr_runs p) [ 1; 2 ])
  @ List.concat_map
      (fun model ->
        let p = isp_problem model and cfg = robust_cfg ~top_k:2 () in
        [
          str_line ~algo:"str-robust-top2" ~model p 1 cfg;
          dtr_line ~algo:"dtr-robust-top2" ~model p 1 cfg;
        ])
      [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]
  @
  (let p = transit_stub_problem () and cfg = robust_cfg ~alpha:0.5 () in
   [
     str_line ~algo:"str-robust-ts" ~model:Objective.Load p 1 cfg;
     dtr_line ~algo:"dtr-robust-ts" ~model:Objective.Load p 1 cfg;
   ])
  @
  let p = ts1k_problem () in
  let caps n =
    {
      Search_config.quick with
      Search_config.n_iters = n;
      k_iters = n;
      diversify_after = n;
    }
  in
  [
    dtr_line ~w0:(random_start p 1) ~algo:"dtr-ts1k" ~model:Objective.Load p 1
      (caps 10);
    dtr_line ~w0:(random_start p 1) ~algo:"dtr-robust-ts1k" ~model:Objective.Load p 1
      { (caps 2) with Search_config.robust = Some { Search_config.alpha = 0.5; top_k = 1 } };
    str_line ~iters:10 ~algo:"str-ts1k" ~model:Objective.Load p 1 (caps 10);
    (let model = Objective.Sla Dtr_cost.Sla.default in
     dtr_line ~w0:(random_start p 1) ~algo:"dtr-ts1k" ~model (ts1k_problem ~model ()) 1
       (caps 10));
  ]

let test_trajectories_match_golden () =
  let out = String.concat "\n" (trajectories ()) ^ "\n" in
  match Sys.getenv_opt "DTR_UPDATE_GOLDEN" with
  | Some _ ->
      let oc = open_out golden_file in
      output_string oc out;
      close_out oc
  | None ->
      let golden =
        let ic = open_in golden_file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "search trajectories match golden" golden out

let () =
  Alcotest.run "trajectory"
    [
      ( "golden",
        [
          Alcotest.test_case "ISP quick searches, both models" `Quick
            test_trajectories_match_golden;
        ] );
    ]
