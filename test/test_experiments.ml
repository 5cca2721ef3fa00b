(* Tests for Dtr_experiments: scenario construction and scaling, the
   STR/DTR comparison runner, the Fig. 1 exact numbers, the registry,
   and smoke runs of the cheap experiment runners. *)

module Scenario = Dtr_experiments.Scenario
module Compare = Dtr_experiments.Compare
module Fig1_joint = Dtr_experiments.Fig1_joint
module Registry = Dtr_experiments.Registry
module Matrix = Dtr_traffic.Matrix
module Graph = Dtr_graph.Graph
module Objective = Dtr_routing.Objective
module Table = Dtr_util.Table
module Highpri = Dtr_traffic.Highpri
module Search_config = Dtr_core.Search_config
module Trace = Dtr_core.Trace

let checkf eps = Alcotest.(check (float eps))

let tiny_cfg =
  {
    Search_config.quick with
    Search_config.n_iters = 30;
    k_iters = 40;
    diversify_after = 10;
  }

let random_spec =
  {
    Scenario.topology = Scenario.Random_topo;
    fraction = 0.30;
    hp = Scenario.Random_density 0.10;
    seed = 3;
  }

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_make_shapes () =
  let inst = Scenario.make random_spec in
  Alcotest.(check int) "30 nodes" 30 (Graph.node_count inst.Scenario.graph);
  Alcotest.(check int) "300 arcs" 300 (Graph.arc_count inst.Scenario.graph);
  Alcotest.(check int) "matrix size" 30 (Matrix.size inst.Scenario.th)

let test_scenario_fraction () =
  let inst = Scenario.make random_spec in
  let f =
    Matrix.total inst.Scenario.th
    /. (Matrix.total inst.Scenario.th +. Matrix.total inst.Scenario.tl)
  in
  checkf 1e-9 "f = 30%" 0.30 f

let test_scenario_hp_density () =
  let inst = Scenario.make random_spec in
  (* 10% of 30*29 = 87 pairs. *)
  Alcotest.(check int) "87 hp pairs" 87 (Matrix.pair_count inst.Scenario.th)

let test_scenario_reproducible () =
  let a = Scenario.make random_spec in
  let b = Scenario.make random_spec in
  Alcotest.(check bool) "same traffic" true
    (Matrix.equal a.Scenario.th b.Scenario.th
    && Matrix.equal a.Scenario.tl b.Scenario.tl)

let test_scenario_seed_changes_traffic () =
  let a = Scenario.make random_spec in
  let b = Scenario.make { random_spec with Scenario.seed = 4 } in
  Alcotest.(check bool) "different traffic" false
    (Matrix.equal a.Scenario.tl b.Scenario.tl)

let test_scenario_scaling () =
  let inst = Scenario.make random_spec in
  let scaled = Scenario.scale_to_utilization inst ~target:0.6 in
  checkf 1e-6 "reference utilization hits target" 0.6
    (Scenario.reference_avg_utilization scaled);
  (* The class mix is preserved. *)
  let f m =
    Matrix.total m.Scenario.th
    /. (Matrix.total m.Scenario.th +. Matrix.total m.Scenario.tl)
  in
  checkf 1e-9 "fraction preserved" (f inst) (f scaled)

let test_scenario_sink_model () =
  let spec =
    {
      Scenario.topology = Scenario.Power_law;
      fraction = 0.20;
      hp = Scenario.Sinks { sinks = 3; density = 0.10; placement = Highpri.Uniform };
      seed = 5;
    }
  in
  let inst = Scenario.make spec in
  (* Bidirectional client-sink pairs only. *)
  let sinks = Dtr_topology.Power_law.top_degree_nodes inst.Scenario.graph 3 in
  let is_sink v = Array.mem v sinks in
  Matrix.iter inst.Scenario.th (fun s t _ ->
      Alcotest.(check bool) "one endpoint is a sink" true (is_sink s <> is_sink t))

let test_scenario_isp () =
  let inst = Scenario.make { random_spec with Scenario.topology = Scenario.Isp } in
  Alcotest.(check int) "16 nodes" 16 (Graph.node_count inst.Scenario.graph)

let test_scenario_names () =
  Alcotest.(check string) "random" "random" (Scenario.topology_name Scenario.Random_topo);
  Alcotest.(check string) "power-law" "power-law" (Scenario.topology_name Scenario.Power_law);
  Alcotest.(check string) "isp" "isp" (Scenario.topology_name Scenario.Isp);
  Alcotest.(check string) "waxman" "waxman" (Scenario.topology_name Scenario.Waxman);
  Alcotest.(check string) "transit-stub" "transit-stub"
    (Scenario.topology_name Scenario.Transit_stub);
  Alcotest.(check string) "abilene" "abilene" (Scenario.topology_name Scenario.Abilene)

let test_scenario_extension_topologies_build () =
  List.iter
    (fun kind ->
      let inst = Scenario.make { random_spec with Scenario.topology = kind } in
      Alcotest.(check bool)
        (Scenario.topology_name kind ^ " connected")
        true
        (Graph.is_strongly_connected inst.Scenario.graph))
    [ Scenario.Waxman; Scenario.Transit_stub; Scenario.Abilene ]

(* Out-of-range fractions and densities, NaN among them, are rejected
   before anything is generated — on a large preset too, which builds
   its demand without the Highpri range checks. *)
let test_scenario_rejects_bad_ranges () =
  let ts1k =
    match Dtr_topology.Large.find "ts-1k" with
    | Some p -> Scenario.Large p
    | None -> Alcotest.fail "ts-1k preset missing"
  in
  let raises what msg spec =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Scenario.make spec))
  in
  List.iter
    (fun topology ->
      let name = Scenario.topology_name topology in
      List.iter
        (fun fraction ->
          raises
            (Printf.sprintf "%s: fraction %g" name fraction)
            "Scenario.make: fraction must be in (0, 1)"
            { random_spec with Scenario.topology; fraction })
        [ 0.; 1.; 5.; Float.nan ];
      List.iter
        (fun density ->
          raises
            (Printf.sprintf "%s: density %g" name density)
            "Scenario.make: density must be in [0, 1]"
            { random_spec with Scenario.topology; hp = Scenario.Random_density density };
          raises
            (Printf.sprintf "%s: sink density %g" name density)
            "Scenario.make: density must be in [0, 1]"
            {
              random_spec with
              Scenario.topology;
              hp = Scenario.Sinks { sinks = 3; density; placement = Highpri.Uniform };
            })
        [ -0.1; 3.; Float.nan ])
    [ Scenario.Random_topo; ts1k ]

let test_scenario_scaling_rejects_bad_targets () =
  let inst = Scenario.make random_spec in
  List.iter
    (fun target ->
      Alcotest.check_raises
        (Printf.sprintf "target %g" target)
        (Invalid_argument "Scenario.scale_to_utilization: bad target")
        (fun () -> ignore (Scenario.scale_to_utilization inst ~target)))
    [ 0.; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Compare *)

let test_ratio_guards () =
  checkf 1e-9 "normal" 2. (Compare.ratio ~num:4. ~den:2.);
  checkf 1e-9 "both zero" 1. (Compare.ratio ~num:0. ~den:0.);
  Alcotest.(check bool) "zero denominator" true
    (Compare.ratio ~num:1. ~den:0. = Float.infinity)

let isp_point =
  lazy
    (let inst =
       Scenario.make { random_spec with Scenario.topology = Scenario.Isp }
     in
     Compare.run_point ~cfg:tiny_cfg ~seed:1 inst ~model:Objective.Load
       ~target_util:0.6)

let test_run_point_sane () =
  let p = Lazy.force isp_point in
  Alcotest.(check bool) "measured utilization in range" true
    (p.Compare.measured_util > 0.3 && p.Compare.measured_util < 0.9);
  Alcotest.(check bool) "rh close to 1" true (p.Compare.rh > 0.5 && p.Compare.rh < 2.);
  Alcotest.(check bool) "rl at least ~1" true (p.Compare.rl > 0.5)

let test_run_point_str_iters () =
  (* [str_iters] caps STR alone: one Str_scan event per iteration. *)
  let inst = Scenario.make { random_spec with Scenario.topology = Scenario.Isp } in
  let ring = Trace.ring () in
  ignore
    (Compare.run_point ~cfg:tiny_cfg ~seed:1 ~trace:ring ~str_iters:3 inst
       ~model:Objective.Load ~target_util:0.6);
  let scans =
    List.filter
      (fun (e : Trace.event) -> e.Trace.kind = Trace.Str_scan)
      (Trace.events ring)
  in
  Alcotest.(check int) "three STR scans" 3 (List.length scans);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check int) "tagged as STR" 0 e.Trace.restart)
    scans

let test_points_table_render () =
  let p = Lazy.force isp_point in
  let table = Compare.points_table ~title:"t" [ p ] in
  Alcotest.(check int) "one row" 1 (List.length (Table.rows table));
  Alcotest.(check int) "three columns" 3 (List.length (Table.columns table))

(* ------------------------------------------------------------------ *)
(* Fig 1: the paper's exact numbers *)

let test_fig1_lexicographic_and_alpha35 () =
  let h, l = Fig1_joint.optimum_for_alpha ~alpha:35. in
  checkf 1e-6 "PhiH = 1/3" (1. /. 3.) h;
  checkf 1e-6 "PhiL = 64/9" (64. /. 9.) l

let test_fig1_alpha30_priority_inversion () =
  let h, l = Fig1_joint.optimum_for_alpha ~alpha:30. in
  checkf 1e-6 "PhiH = 1/2" 0.5 h;
  checkf 1e-6 "PhiL = 4/3" (4. /. 3.) l

let test_fig1_table_rows () =
  let t = Fig1_joint.run ~alphas:[ 35.; 30. ] in
  (* lexicographic + two alphas *)
  Alcotest.(check int) "three rows" 3 (List.length (Table.rows t))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_covers_every_figure () =
  let names = Registry.names () in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true
        (List.mem required names))
    [
      "fig1"; "fig2a"; "fig2b"; "fig2c"; "fig2d"; "fig2e"; "fig2f"; "fig3a";
      "fig3b"; "fig3c"; "fig4"; "fig5a"; "fig5b"; "fig6"; "fig7"; "fig8a";
      "fig8b"; "fig9"; "table1-random"; "table1-powerlaw"; "table1-isp";
      "val-netsim"; "ablation-neighborhood"; "ablation-tau";
      "ablation-diversification"; "ablation-optimizer"; "ext-failure"; "ext-3class"; "ext-queueing"; "ext-diurnal";
      "ext-fig2-waxman"; "ext-fig2-transit";
    ]

let test_registry_unique_names () =
  let names = Registry.names () in
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_find () =
  (match Registry.find "fig9" with
  | Some e -> Alcotest.(check string) "found" "fig9" e.Registry.name
  | None -> Alcotest.fail "fig9 missing");
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None)

(* ------------------------------------------------------------------ *)
(* Smoke runs of the cheap experiments (tiny budgets, ISP topology
   where a topology choice exists). *)

let test_smoke_fig2_isp () =
  let t =
    Dtr_experiments.Fig2.run ~cfg:tiny_cfg ~seed:2 ~targets:[ 0.6 ]
      ~topology:Scenario.Isp ~model:Objective.Load ()
  in
  Alcotest.(check int) "one row" 1 (List.length (Table.rows t))

let test_smoke_fig3 () =
  let t = Dtr_experiments.Fig3.run ~cfg:tiny_cfg ~seed:2 ~target_util:0.6 Dtr_experiments.Fig3.A in
  Alcotest.(check bool) "has rows" true (List.length (Table.rows t) > 5);
  (* Total link count in each column equals the number of arcs (300)
     minus overflow; just check columns parse as ints summing > 0. *)
  let sum_col idx =
    List.fold_left
      (fun acc row -> acc + int_of_string (List.nth row idx))
      0 (Table.rows t)
  in
  Alcotest.(check bool) "STR links counted" true (sum_col 1 > 0);
  Alcotest.(check bool) "DTR links counted" true (sum_col 2 > 0)

let test_smoke_table1_isp () =
  let t =
    Dtr_experiments.Table1.run ~cfg:tiny_cfg ~seed:2 ~targets:[ 0.6 ]
      ~topology:Scenario.Isp ()
  in
  Alcotest.(check int) "one row" 1 (List.length (Table.rows t));
  Alcotest.(check int) "four columns" 4 (List.length (Table.columns t))

let test_smoke_fig6 () =
  let t = Dtr_experiments.Fig6.run ~cfg:tiny_cfg ~seed:2 ~stride:25 () in
  Alcotest.(check bool) "rows sampled" true (List.length (Table.rows t) >= 5);
  (* The last row is the Gini summary; the rank rows above it are
     sorted descending per column. *)
  let rank_rows =
    List.filter (fun row -> List.nth row 0 <> "gini") (Table.rows t)
  in
  Alcotest.(check int) "gini row present" (List.length (Table.rows t) - 1)
    (List.length rank_rows);
  let col idx =
    List.map (fun row -> float_of_string (List.nth row idx)) rank_rows
  in
  let rec desc = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted descending" true (desc (col 1))

(* ------------------------------------------------------------------ *)
(* Failure extension *)

let test_fail_link_removes_both_directions () =
  let g = Dtr_topology.Isp.generate () in
  let link = (Graph.undirected_link_pairs g).(0) in
  let reduced, mapping = Dtr_oracle.Ref_failure.fail_link g ~link in
  Alcotest.(check int) "two arcs removed" (Graph.arc_count g - 2)
    (Graph.arc_count reduced);
  Alcotest.(check int) "mapping matches" (Graph.arc_count reduced)
    (Array.length mapping);
  (* Mapped arcs agree with their originals. *)
  Array.iteri
    (fun i orig ->
      let a = Graph.arc reduced i and b = Graph.arc g orig in
      Alcotest.(check bool) "same endpoints" true
        (a.Graph.src = b.Graph.src && a.Graph.dst = b.Graph.dst))
    mapping;
  Alcotest.(check bool) "still connected" true
    (Graph.is_strongly_connected reduced)

let test_fail_link_disconnection_is_priced_infinite () =
  (* A line graph disconnects when any link fails; fail_link still
     returns the reduced graph (disconnection is the caller's
     business), and the sweep prices such failures as infinite. *)
  let g = Dtr_topology.Classic.line 3 in
  let link = (Graph.undirected_link_pairs g).(0) in
  let reduced, _ = Dtr_oracle.Ref_failure.fail_link g ~link in
  Alcotest.(check int) "two arcs removed" (Graph.arc_count g - 2)
    (Graph.arc_count reduced);
  Alcotest.(check bool) "reduced graph is disconnected" false
    (Graph.is_strongly_connected reduced)

let test_smoke_ext_3class () =
  let t = Dtr_experiments.Multi_class.run ~cfg:tiny_cfg ~seed:2 () in
  Alcotest.(check int) "three rows" 3 (List.length (Table.rows t));
  (* Gold (row 0) must have ratio ~1: MTR never hurts the top class. *)
  match Table.rows t with
  | gold :: _ ->
      let ratio = float_of_string (List.nth gold 3) in
      Alcotest.(check bool) "gold ratio sane" true (ratio > 0.5 && ratio < 2.)
  | [] -> Alcotest.fail "empty table"

let test_smoke_ablation_neighborhood () =
  let t = Dtr_experiments.Ablation.run_neighborhood ~cfg:tiny_cfg ~seed:2 () in
  Alcotest.(check int) "three variants" 3 (List.length (Table.rows t))

let test_smoke_validation_netsim () =
  let sim_config =
    { Dtr_netsim.Sim.default_config with Dtr_netsim.Sim.duration = 300.; warmup = 50. }
  in
  let t = Dtr_experiments.Validation.run ~cfg:tiny_cfg ~seed:2 ~sim_config () in
  Alcotest.(check bool) "has rows" true (List.length (Table.rows t) >= 5)

let test_smoke_ext_failure () =
  let t = Dtr_experiments.Failure.run ~cfg:tiny_cfg ~seed:2 () in
  (* Two schemes x two classes. *)
  Alcotest.(check int) "four rows" 4 (List.length (Table.rows t));
  (* Post-failure costs dominate the no-failure cost; the ISP survives
     every single failure, so all outcomes are finite. *)
  List.iter
    (fun row ->
      let base = float_of_string (List.nth row 2) in
      let mean = float_of_string (List.nth row 3) in
      let worst = float_of_string (List.nth row 4) in
      Alcotest.(check string) "no disconnecting failures" "0" (List.nth row 5);
      Alcotest.(check bool) "mean >= base" true (mean >= base *. 0.999);
      Alcotest.(check bool) "worst >= mean" true (worst >= mean *. 0.999))
    (Table.rows t)

let test_smoke_ext_diurnal () =
  let t =
    Dtr_experiments.Diurnal_exp.run ~cfg:tiny_cfg ~seed:2 ~hours:[ 20.; 4. ] ()
  in
  Alcotest.(check int) "two hours" 2 (List.length (Table.rows t));
  (* Re-optimized cost tracks the snapshot; tiny budgets add noise, so
     just require it stays within a generous factor of static. *)
  List.iter
    (fun row ->
      let static = float_of_string (List.nth row 2) in
      let reopt = float_of_string (List.nth row 3) in
      Alcotest.(check bool) "reopt no worse than 2x static" true
        (reopt <= 2. *. Float.max static 1.))
    (Table.rows t)

let test_smoke_ext_queueing () =
  let t =
    Dtr_experiments.Queueing.run ~cfg:tiny_cfg ~seed:2 ~sim_duration:1500. ()
  in
  Alcotest.(check int) "four rows" 4 (List.length (Table.rows t));
  let mean_of scheme klass =
    let row =
      List.find
        (fun r -> List.nth r 0 = scheme && List.nth r 1 = klass)
        (Table.rows t)
    in
    float_of_string (List.nth row 2)
  in
  (* Priority differentiates; FIFO keeps the classes together. *)
  let prio_gap = mean_of "priority" "low" -. mean_of "priority" "high" in
  let fifo_gap = Float.abs (mean_of "fifo" "low" -. mean_of "fifo" "high") in
  Alcotest.(check bool) "priority gap positive" true (prio_gap > 0.);
  Alcotest.(check bool) "fifo gap smaller" true
    (fifo_gap < Float.max prio_gap 0.5)

let () =
  Alcotest.run "dtr_experiments"
    [
      ( "scenario",
        [
          Alcotest.test_case "shapes" `Quick test_scenario_make_shapes;
          Alcotest.test_case "fraction" `Quick test_scenario_fraction;
          Alcotest.test_case "hp density" `Quick test_scenario_hp_density;
          Alcotest.test_case "reproducible" `Quick test_scenario_reproducible;
          Alcotest.test_case "seed changes traffic" `Quick
            test_scenario_seed_changes_traffic;
          Alcotest.test_case "scaling" `Quick test_scenario_scaling;
          Alcotest.test_case "sink model" `Quick test_scenario_sink_model;
          Alcotest.test_case "isp" `Quick test_scenario_isp;
          Alcotest.test_case "names" `Quick test_scenario_names;
          Alcotest.test_case "extension topologies build" `Quick
            test_scenario_extension_topologies_build;
          Alcotest.test_case "rejects bad fraction or density" `Quick
            test_scenario_rejects_bad_ranges;
          Alcotest.test_case "scaling rejects bad targets" `Quick
            test_scenario_scaling_rejects_bad_targets;
        ] );
      ( "compare",
        [
          Alcotest.test_case "ratio guards" `Quick test_ratio_guards;
          Alcotest.test_case "run_point sane" `Slow test_run_point_sane;
          Alcotest.test_case "run_point str_iters" `Quick
            test_run_point_str_iters;
          Alcotest.test_case "points table" `Slow test_points_table_render;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "alpha 35 matches paper" `Quick
            test_fig1_lexicographic_and_alpha35;
          Alcotest.test_case "alpha 30 priority inversion" `Quick
            test_fig1_alpha30_priority_inversion;
          Alcotest.test_case "table rows" `Quick test_fig1_table_rows;
        ] );
      ( "registry",
        [
          Alcotest.test_case "covers every figure" `Quick
            test_registry_covers_every_figure;
          Alcotest.test_case "unique names" `Quick test_registry_unique_names;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "fig2 isp" `Slow test_smoke_fig2_isp;
          Alcotest.test_case "fig3 histogram" `Slow test_smoke_fig3;
          Alcotest.test_case "table1 isp" `Slow test_smoke_table1_isp;
          Alcotest.test_case "fig6 sorted" `Slow test_smoke_fig6;
          Alcotest.test_case "netsim validation" `Slow
            test_smoke_validation_netsim;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "fail_link removes both directions" `Quick
            test_fail_link_removes_both_directions;
          Alcotest.test_case "fail_link keeps disconnecting failures" `Quick
            test_fail_link_disconnection_is_priced_infinite;
          Alcotest.test_case "3-class smoke" `Slow test_smoke_ext_3class;
          Alcotest.test_case "ablation smoke" `Slow
            test_smoke_ablation_neighborhood;
          Alcotest.test_case "failure smoke" `Slow test_smoke_ext_failure;
          Alcotest.test_case "diurnal smoke" `Slow test_smoke_ext_diurnal;
          Alcotest.test_case "queueing smoke" `Slow test_smoke_ext_queueing;
        ] );
    ]
