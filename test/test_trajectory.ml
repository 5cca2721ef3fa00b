(* Trajectory golden: STR, DTR, robust DTR and simulated annealing on
   the 16-node ISP scenario at Search_config.quick, under both cost
   models, from fixed seeds.  One line per search pins its final
   objective (hex floats, so a match is bitwise), its evaluation
   count, its improvements (accepted moves for annealing), its memo
   hits/misses and a digest of the final weight vectors.  Any change
   to a search's trajectory — one accepted move more or less, one ULP
   of drift — changes some line.

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

let weights_digest (s : Problem.solution) =
  let b = Buffer.create 256 in
  Array.iter (fun w -> Buffer.add_string b (string_of_int w ^ ",")) s.Problem.wh;
  Buffer.add_char b '|';
  Array.iter (fun w -> Buffer.add_string b (string_of_int w ^ ",")) s.Problem.wl;
  Digest.to_hex (Digest.string (Buffer.contents b))

let line ~algo ~model ~seed ~(objective : Lexico.t) ~evaluations ~improvements
    ~memo best =
  Printf.sprintf "%s %s seed=%d obj=%h,%h evals=%d impr=%d memo=%s w=%s" algo
    (Objective.model_name model) seed objective.Lexico.primary
    objective.Lexico.secondary evaluations improvements memo
    (weights_digest best)

let memo hits misses = Printf.sprintf "%d/%d" hits misses

let robust_cfg =
  {
    Search_config.quick with
    Search_config.robust = Some { Search_config.alpha = 1.; top_k = 1 };
  }

let runs model p seed =
  let str = Str_search.run (Prng.create seed) Search_config.quick p in
  let dtr = Dtr_search.run (Prng.create seed) Search_config.quick p in
  let rob = Dtr_search.run (Prng.create seed) robust_cfg p in
  let ann =
    Anneal_search.run ~schedule:fast_schedule (Prng.create seed)
      Search_config.quick p
  in
  let dtr_line algo (r : Dtr_search.report) =
    line ~algo ~model ~seed ~objective:r.Dtr_search.objective
      ~evaluations:r.Dtr_search.evaluations
      ~improvements:r.Dtr_search.improvements
      ~memo:(memo r.Dtr_search.memo_hits r.Dtr_search.memo_misses)
      r.Dtr_search.best
  in
  [
    line ~algo:"str" ~model ~seed ~objective:str.Str_search.objective
      ~evaluations:str.Str_search.evaluations
      ~improvements:str.Str_search.improvements
      ~memo:(memo str.Str_search.memo_hits str.Str_search.memo_misses)
      str.Str_search.best;
    dtr_line "dtr" dtr;
    dtr_line "dtr-robust" rob;
    line ~algo:"anneal" ~model ~seed ~objective:ann.Anneal_search.objective
      ~evaluations:ann.Anneal_search.evaluations
      ~improvements:ann.Anneal_search.accepted ~memo:"-"
      ann.Anneal_search.best;
  ]

let trajectories () =
  List.concat_map
    (fun model ->
      let p = isp_problem model in
      List.concat_map (runs model p) [ 1; 2 ])
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]

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
