(* Tests for Dtr_core: the search configuration, the Algorithm-2
   neighborhood, the problem wrapper, and the DTR/STR searches
   themselves (on small instances with small budgets). *)

module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist
module Metrics = Dtr_util.Metrics
module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Search_config = Dtr_core.Search_config
module Problem = Dtr_core.Problem
module Neighborhood = Dtr_core.Neighborhood
module Trace = Dtr_core.Trace
module Dtr_search = Dtr_core.Dtr_search
module Str_search = Dtr_core.Str_search
module Classic = Dtr_topology.Classic

let checkf = Alcotest.(check (float 1e-9))

let tiny_config =
  {
    Search_config.quick with
    Search_config.n_iters = 40;
    k_iters = 60;
    diversify_after = 10;
  }

(* A 6-node ring with capacity 1 and a mixed demand: enough structure
   for the searches to have something to do, small enough to be fast. *)
let ring_problem ?(model = Objective.Load) () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 3 0.3;
  Matrix.set th 1 4 0.2;
  Matrix.set tl 0 3 0.4;
  Matrix.set tl 2 5 0.5;
  Matrix.set tl 4 1 0.3;
  Problem.create ~graph:g ~th ~tl ~model

(* ------------------------------------------------------------------ *)
(* Search_config *)

let test_config_presets_valid () =
  Search_config.validate Search_config.paper;
  Search_config.validate Search_config.default;
  Search_config.validate Search_config.quick

let test_config_paper_values () =
  let p = Search_config.paper in
  Alcotest.(check int) "N" 300_000 p.Search_config.n_iters;
  Alcotest.(check int) "K" 800_000 p.Search_config.k_iters;
  Alcotest.(check int) "m" 5 Search_config.m;
  Alcotest.(check int) "M" 300 p.Search_config.diversify_after;
  checkf "g1" 0.05 Search_config.g1;
  checkf "g2" 0.05 Search_config.g2;
  checkf "g3" 0.03 Search_config.g3;
  checkf "tau" 1.5 p.Search_config.tau;
  checkf "literal neighborhood" 0. p.Search_config.scan_probability

let test_config_scale () =
  let s = Search_config.scale Search_config.quick 2. in
  Alcotest.(check int) "doubled N" 500 s.Search_config.n_iters;
  Alcotest.(check int) "doubled K" 1000 s.Search_config.k_iters;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Search_config.scale: non-positive factor") (fun () ->
      ignore (Search_config.scale Search_config.quick 0.))

let test_config_validate_rejects () =
  Alcotest.check_raises "n_iters"
    (Invalid_argument "Search_config: n_iters must be positive") (fun () ->
      Search_config.validate
        { Search_config.quick with Search_config.n_iters = 0 });
  Alcotest.check_raises "scan_probability"
    (Invalid_argument "Search_config: scan_probability out of [0,1]") (fun () ->
      Search_config.validate
        { Search_config.quick with Search_config.scan_probability = 1.5 })

(* ------------------------------------------------------------------ *)
(* Neighborhood *)

let test_rank_by_cost_decreasing () =
  let costs = [| 3.; 9.; 1.; 5. |] in
  let ranking =
    Neighborhood.rank_by_cost
      ~cmp:(fun a b -> Float.compare costs.(a) costs.(b))
      4
  in
  Alcotest.(check (array int)) "decreasing" [| 1; 3; 0; 2 |] ranking

let test_rank_by_cost_stable_ties () =
  let costs = [| 1.; 1.; 1. |] in
  let ranking =
    Neighborhood.rank_by_cost
      ~cmp:(fun a b -> Float.compare costs.(a) costs.(b))
      3
  in
  Alcotest.(check (array int)) "tie broken by id" [| 0; 1; 2 |] ranking

let test_candidate_sets_shape () =
  let rng = Prng.create 1 in
  let ranking = Array.init 20 (fun i -> i) in
  let ht = Dist.heavy_tail ~tau:1.5 ~n:16 in
  for _ = 1 to 100 do
    let a, b = Neighborhood.candidate_sets ht rng ~m:5 ~ranking in
    Alcotest.(check int) "A size" 5 (Array.length a);
    Alcotest.(check int) "B size" 5 (Array.length b);
    Array.iter
      (fun id -> Alcotest.(check bool) "A valid" true (id >= 0 && id < 20))
      a;
    Array.iter
      (fun id -> Alcotest.(check bool) "B valid" true (id >= 0 && id < 20))
      b
  done

let test_candidate_sets_small_ranking () =
  let rng = Prng.create 2 in
  let ranking = [| 0; 1; 2 |] in
  let ht = Dist.heavy_tail ~tau:1.5 ~n:1 in
  let a, b = Neighborhood.candidate_sets ht rng ~m:5 ~ranking in
  Alcotest.(check int) "clamped to n" 3 (Array.length a);
  Alcotest.(check int) "clamped to n" 3 (Array.length b);
  Alcotest.check_raises "table over another support"
    (Invalid_argument "Neighborhood.candidate_sets: sampler size mismatch") (fun () ->
      ignore
        (Neighborhood.candidate_sets (Dist.heavy_tail ~tau:1.5 ~n:3) rng ~m:5 ~ranking))

let test_candidate_sets_biased_to_extremes () =
  (* With tau large, A must start at rank 1 and B end at rank n. *)
  let rng = Prng.create 3 in
  let ranking = Array.init 10 (fun i -> 100 + i) in
  let ht = Dist.heavy_tail ~tau:8. ~n:8 in
  let hits_top = ref 0 and hits_bottom = ref 0 in
  for _ = 1 to 200 do
    let a, b = Neighborhood.candidate_sets ht rng ~m:3 ~ranking in
    if Array.mem 100 a then incr hits_top;
    if Array.mem 109 b then incr hits_bottom
  done;
  Alcotest.(check bool) "top rank almost always in A" true (!hits_top > 180);
  Alcotest.(check bool) "bottom rank almost always in B" true (!hits_bottom > 180)

let test_moves_pairing () =
  let rng = Prng.create 4 in
  let moves = Neighborhood.moves rng ~a:[| 0; 1; 2 |] ~b:[| 3; 4; 5 |] in
  Alcotest.(check int) "three moves" 3 (List.length moves);
  List.iter
    (fun m ->
      Alcotest.(check bool) "up from A" true (m.Neighborhood.up_arc < 3);
      Alcotest.(check bool) "down from B" true (m.Neighborhood.down_arc >= 3))
    moves;
  let ups = List.map (fun m -> m.Neighborhood.up_arc) moves in
  Alcotest.(check int) "distinct ups" 3 (List.length (List.sort_uniq compare ups))

let test_moves_drops_self_pairs () =
  let rng = Prng.create 5 in
  let moves = Neighborhood.moves rng ~a:[| 7 |] ~b:[| 7 |] in
  Alcotest.(check int) "self pair dropped" 0 (List.length moves)

let test_apply_move () =
  let w = [| 10; 20; 30 |] in
  let m = { Neighborhood.up_arc = 0; down_arc = 1 } in
  let w' = Dtr_oracle.Ref_neighborhood.apply m ~step:3 w in
  Alcotest.(check (array int)) "applied" [| 13; 17; 30 |] w';
  Alcotest.(check (array int)) "original intact" [| 10; 20; 30 |] w;
  let m2 = { Neighborhood.up_arc = 2; down_arc = 0 } in
  let w2 = Dtr_oracle.Ref_neighborhood.apply m2 ~step:25 w in
  Alcotest.(check int) "clamped up" 30 w2.(2);
  Alcotest.(check int) "clamped down" 1 w2.(0)

(* ------------------------------------------------------------------ *)
(* Problem *)

let test_problem_rejects_disconnected () =
  let g =
    Graph.build ~n:3 [ { Graph.src = 0; dst = 1; capacity = 1.; delay = 1. } ]
  in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Problem.create: graph must be strongly connected")
    (fun () -> ignore (Problem.create ~graph:g ~th ~tl ~model:Objective.Load))

let test_problem_eval_str_is_str () =
  let p = ring_problem () in
  let w = Weights.uniform p.Problem.graph 15 in
  let s = Problem.eval_str p ~w in
  Alcotest.(check bool) "wh == wl" true (Problem.is_str s)

let test_problem_eval_dtr_distinct () =
  let p = ring_problem () in
  let wh = Weights.uniform p.Problem.graph 15 in
  let wl = Weights.uniform p.Problem.graph 10 in
  let s = Problem.eval_dtr p ~wh ~wl in
  Alcotest.(check bool) "not str" false (Problem.is_str s)

let test_problem_defensive_copies () =
  let p = ring_problem () in
  let w = Weights.uniform p.Problem.graph 15 in
  let s = Problem.eval_str p ~w in
  w.(0) <- 1;
  Alcotest.(check int) "solution unaffected" 15 s.Problem.wh.(0)

(* Problem counts its evaluations in the (process-wide, off by
   default) metrics registry; the test leaves it off and zeroed. *)
let test_problem_evaluation_counter () =
  let p = ring_problem () in
  let metric name = Metrics.counter_value (Metrics.counter ~help:"" name) in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let w = Weights.uniform p.Problem.graph 15 in
  ignore (Problem.eval_str p ~w);
  let sol = Problem.eval_str p ~w in
  let ctx = Problem.ctx_of_solution p sol in
  ignore (Problem.eval_delta ~count:false p ctx ~cls:`H ~changes:[ (0, 3) ]);
  Alcotest.(check int) "two evaluations" 2 (metric "dtr_eval_full_total");
  Alcotest.(check int) "uncounted probe" 0 (metric "dtr_eval_delta_total")

(* ------------------------------------------------------------------ *)
(* Dtr_search / Str_search *)

let objective_of_initial p =
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  let w = Array.make (Graph.arc_count p.Problem.graph) mid in
  Problem.objective (Problem.eval_str p ~w)

(* FindH and FindL as Dtr_search.run passes them, read off a trace
   ring: each pass's event holds the objective before and after it. *)
let ring_passes seed ~kind ~routine =
  let p = ring_problem () in
  let trace = Trace.ring () in
  ignore (Dtr_search.run ~trace (Prng.create seed) tiny_config p : Dtr_search.report);
  let passes =
    List.filter
      (fun (e : Trace.event) -> e.Trace.kind = kind && e.Trace.detail = routine)
      (Trace.events trace)
  in
  Alcotest.(check int) "one event per pass" tiny_config.Search_config.n_iters
    (List.length passes);
  Alcotest.(check bool) "some pass moved" true
    (List.exists (fun (e : Trace.event) -> e.Trace.accepted) passes);
  let obj a = Lexico.make ~primary:a.(0) ~secondary:a.(1) in
  List.map (fun (e : Trace.event) -> (obj e.Trace.before, obj e.Trace.after)) passes

(* Routine 1's FindH passes move only to a candidate the searches'
   tolerance ranks better. *)
let test_find_h_never_worsens () =
  List.iter
    (fun (before, after) ->
      Alcotest.(check bool) "monotone" true
        (Lexico.compare ~rel_tol:1e-9 after before <= 0))
    (ring_passes 6 ~kind:Trace.Find_h ~routine:0)

(* Routine 2's FindL passes move W_L only, with W_H frozen. *)
let test_find_l_preserves_high_priority () =
  List.iter
    (fun ((before : Lexico.t), (after : Lexico.t)) ->
      Alcotest.(check bool) "primary bitwise untouched by FindL" true
        (Int64.equal
           (Int64.bits_of_float before.Lexico.primary)
           (Int64.bits_of_float after.Lexico.primary)))
    (ring_passes 7 ~kind:Trace.Find_l ~routine:1)

let test_dtr_run_improves () =
  let p = ring_problem () in
  let report = Dtr_search.run (Prng.create 8) tiny_config p in
  Alcotest.(check bool) "no worse than initial" true
    (Lexico.compare report.Dtr_search.objective (objective_of_initial p) <= 0);
  Alcotest.(check bool) "evaluations counted" true
    (report.Dtr_search.evaluations > 0);
  Alcotest.(check int) "three phase records" 3
    (List.length report.Dtr_search.phase_objectives)

let test_dtr_run_deterministic () =
  let p = ring_problem () in
  let a = Dtr_search.run (Prng.create 9) tiny_config p in
  let b = Dtr_search.run (Prng.create 9) tiny_config p in
  checkf "same primary" a.Dtr_search.objective.Lexico.primary
    b.Dtr_search.objective.Lexico.primary;
  checkf "same secondary" a.Dtr_search.objective.Lexico.secondary
    b.Dtr_search.objective.Lexico.secondary

let test_dtr_run_custom_start () =
  let p = ring_problem () in
  let m = Graph.arc_count p.Problem.graph in
  let w0 = (Array.make m 1, Array.make m 30) in
  let report = Dtr_search.run ~w0 (Prng.create 10) tiny_config p in
  let w0_obj =
    Problem.objective (Problem.eval_dtr p ~wh:(fst w0) ~wl:(snd w0))
  in
  Alcotest.(check bool) "no worse than its start" true
    (Lexico.compare report.Dtr_search.objective w0_obj <= 0)

let test_dtr_progress_callback () =
  let p = ring_problem () in
  let count = ref 0 in
  let seen_phases = Hashtbl.create 4 in
  let on_progress pr =
    incr count;
    Hashtbl.replace seen_phases pr.Dtr_search.phase ()
  in
  ignore (Dtr_search.run ~on_progress (Prng.create 11) tiny_config p);
  Alcotest.(check int) "N + N + K notifications" (40 + 40 + 60) !count;
  Alcotest.(check int) "all three phases seen" 3 (Hashtbl.length seen_phases)

let test_str_run_improves () =
  let p = ring_problem () in
  let report = Str_search.run ~iters:60 (Prng.create 12) tiny_config p in
  Alcotest.(check bool) "no worse than initial" true
    (Lexico.compare report.Str_search.objective (objective_of_initial p) <= 0);
  Alcotest.(check bool) "solution is STR" true
    (Problem.is_str report.Str_search.best)

let test_str_archive_pareto () =
  let p = ring_problem () in
  let report = Str_search.run ~iters:60 (Prng.create 13) tiny_config p in
  let pts = report.Str_search.archive in
  Alcotest.(check bool) "non-empty" true (pts <> []);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            Alcotest.(check bool) "nondominated" false
              (a.Str_search.phi_h <= b.Str_search.phi_h
              && a.Str_search.phi_l <= b.Str_search.phi_l
              && (a.Str_search.phi_h < b.Str_search.phi_h
                 || a.Str_search.phi_l < b.Str_search.phi_l)))
        pts)
    pts;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Str_search.phi_h <= b.Str_search.phi_h && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted pts)

let test_str_relaxed_best_monotone () =
  let p = ring_problem () in
  let report = Str_search.run ~iters:80 (Prng.create 14) tiny_config p in
  let phi_l_at eps =
    match Str_search.relaxed_best report ~epsilon:eps with
    | Some a -> a.Str_search.phi_l
    | None -> Float.infinity
  in
  Alcotest.(check bool) "epsilon 0 exists" true
    (Str_search.relaxed_best report ~epsilon:0. <> None);
  Alcotest.(check bool) "looser epsilon never hurts" true
    (phi_l_at 0.3 <= phi_l_at 0.05 && phi_l_at 0.05 <= phi_l_at 0.);
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Str_search.relaxed_best: negative epsilon") (fun () ->
      ignore (Str_search.relaxed_best report ~epsilon:(-0.1)))

let test_str_archive_empty_under_sla () =
  let p = ring_problem ~model:(Objective.Sla Dtr_cost.Sla.default) () in
  let report = Str_search.run ~iters:20 (Prng.create 15) tiny_config p in
  Alcotest.(check bool) "no archive under SLA" true
    (report.Str_search.archive = []);
  Alcotest.(check bool) "relaxed query yields none" true
    (Str_search.relaxed_best report ~epsilon:0.3 = None)

let test_default_iters_budget () =
  Alcotest.(check int) "tiny config"
    (2 * (((2 * 40) + 60) * 5) / 29)
    (Str_search.default_iters tiny_config)

let test_dtr_beats_or_ties_str_secondary () =
  (* DTR's space contains every STR solution, so with a comparable
     budget it should match STR on both components (tiny slack for
     search noise). *)
  let p = ring_problem () in
  let cfg = { tiny_config with Search_config.n_iters = 80; k_iters = 120 } in
  let str = Str_search.run (Prng.create 16) cfg p in
  let dtr = Dtr_search.run (Prng.create 17) cfg p in
  Alcotest.(check bool) "DTR primary no worse" true
    (dtr.Dtr_search.objective.Lexico.primary
    <= str.Str_search.objective.Lexico.primary +. 1e-6);
  Alcotest.(check bool) "DTR secondary no worse" true
    (dtr.Dtr_search.objective.Lexico.secondary
    <= str.Str_search.objective.Lexico.secondary +. 1e-6)

let test_dtr_finds_known_optimum_on_triangle () =
  (* Fig. 1 instance: 1/3 high- and 2/3 low-priority units from A to C
     on the unit triangle.  The DTR optimum is provably
     ⟨Φ_H, Φ_L⟩ = ⟨1/3, 11/9⟩: H takes the direct arc
     (Φ_H = φ(1/3, 1) = 1/3); L splits evenly between the direct arc
     (residual 2/3) and the two-hop detour, costing
     φ(1/3, 2/3) + 2 φ(1/3, 1) = 5/9 + 2/3 = 11/9 — better than
     direct-only (64/9) or detour-only (8/3). *)
  let g = Classic.triangle ~capacity:1.0 ~delay:1.0 () in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 2 (1. /. 3.);
  Matrix.set tl 0 2 (2. /. 3.);
  let p = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let cfg = { tiny_config with Search_config.n_iters = 120; k_iters = 150 } in
  let report = Dtr_search.run (Prng.create 40) cfg p in
  Alcotest.(check (float 1e-9)) "optimal Phi_H" (1. /. 3.)
    report.Dtr_search.objective.Lexico.primary;
  Alcotest.(check (float 1e-9)) "optimal Phi_L" (11. /. 9.)
    report.Dtr_search.objective.Lexico.secondary

let test_str_finds_known_optimum_on_triangle () =
  (* Same instance: under STR both classes share the routing, so the
     strict lexicographic optimum is direct-only — ⟨1/3, 64/9⟩ (the
     even split would halve Φ_L's pain but costs Φ_H = 1/2). *)
  let g = Classic.triangle ~capacity:1.0 ~delay:1.0 () in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 2 (1. /. 3.);
  Matrix.set tl 0 2 (2. /. 3.);
  let p = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let report = Str_search.run ~iters:150 (Prng.create 41) tiny_config p in
  Alcotest.(check (float 1e-9)) "optimal Phi_H" (1. /. 3.)
    report.Str_search.objective.Lexico.primary;
  Alcotest.(check (float 1e-9)) "optimal Phi_L" (64. /. 9.)
    report.Str_search.objective.Lexico.secondary

let test_str_relaxation_reaches_split_on_triangle () =
  (* §5.3.1 on the Fig. 1 triangle, exactly: the candidate trade-offs
     are direct-only ⟨1/3, 64/9⟩, even split ⟨1/2, 4/3⟩ and
     detour-only ⟨2/3, 8/3⟩.  With ε = 50 % the split qualifies
     (Φ_H = 1/2 = 1.5 · Φ*_H) and its Φ_L = 4/3 is the best
     admissible value; with ε = 5 % only direct-only qualifies. *)
  let g = Classic.triangle ~capacity:1.0 ~delay:1.0 () in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 2 (1. /. 3.);
  Matrix.set tl 0 2 (2. /. 3.);
  let p = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let report = Str_search.run ~iters:150 (Prng.create 42) tiny_config p in
  (match Str_search.relaxed_best report ~epsilon:0.51 with
  | None -> Alcotest.fail "expected a relaxed solution"
  | Some a ->
      Alcotest.(check (float 1e-9)) "split Phi_L" (4. /. 3.) a.Str_search.phi_l;
      Alcotest.(check (float 1e-9)) "split Phi_H" 0.5 a.Str_search.phi_h);
  match Str_search.relaxed_best report ~epsilon:0.05 with
  | None -> Alcotest.fail "expected the strict solution"
  | Some a ->
      Alcotest.(check (float 1e-9)) "strict Phi_L" (64. /. 9.) a.Str_search.phi_l

(* ------------------------------------------------------------------ *)
(* Anneal_search *)

module Anneal_search = Dtr_core.Anneal_search

let fast_schedule =
  {
    Anneal_search.t0_ratio = 0.05;
    cooling = 0.8;
    moves_per_temp = 10;
    t_min_ratio = 0.01;
  }

let test_anneal_schedule_validation () =
  Anneal_search.validate_schedule Anneal_search.default_schedule;
  Alcotest.check_raises "bad cooling"
    (Invalid_argument "Anneal_search: cooling must be in (0, 1)") (fun () ->
      Anneal_search.validate_schedule
        { fast_schedule with Anneal_search.cooling = 1.0 })

let test_anneal_improves () =
  let p = ring_problem () in
  let report =
    Anneal_search.run ~schedule:fast_schedule (Prng.create 30) tiny_config p
  in
  Alcotest.(check bool) "no worse than initial" true
    (Lexico.compare report.Anneal_search.objective (objective_of_initial p) <= 0);
  Alcotest.(check bool) "evaluations counted" true
    (report.Anneal_search.evaluations > 0);
  Alcotest.(check bool) "some proposals accepted" true
    (report.Anneal_search.accepted > 0)

let test_anneal_deterministic () =
  let p = ring_problem () in
  let a = Anneal_search.run ~schedule:fast_schedule (Prng.create 31) tiny_config p in
  let b = Anneal_search.run ~schedule:fast_schedule (Prng.create 31) tiny_config p in
  checkf "same primary" a.Anneal_search.objective.Lexico.primary
    b.Anneal_search.objective.Lexico.primary;
  checkf "same secondary" a.Anneal_search.objective.Lexico.secondary
    b.Anneal_search.objective.Lexico.secondary

let test_anneal_sla_model () =
  let p = ring_problem ~model:(Objective.Sla Dtr_cost.Sla.default) () in
  let report =
    Anneal_search.run ~schedule:fast_schedule (Prng.create 32) tiny_config p
  in
  Alcotest.(check bool) "finite objective" true
    (Float.is_finite report.Anneal_search.objective.Lexico.primary)

(* ------------------------------------------------------------------ *)
(* Mtr_search (multi-class extension) *)

module Mtr_search = Dtr_core.Mtr_search

let three_class_problem () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let m0 = Matrix.create 6 and m1 = Matrix.create 6 and m2 = Matrix.create 6 in
  Matrix.set m0 0 3 0.2;
  Matrix.set m1 1 4 0.3;
  Matrix.set m1 5 2 0.2;
  Matrix.set m2 0 3 0.4;
  Matrix.set m2 2 5 0.4;
  Mtr_search.create_problem ~graph:g ~matrices:[| m0; m1; m2 |]

let test_mtr_create_rejects () =
  let g = Classic.ring 4 in
  Alcotest.check_raises "one class"
    (Invalid_argument "Mtr_search.create_problem: need at least 2 classes")
    (fun () ->
      ignore (Mtr_search.create_problem ~graph:g ~matrices:[| Matrix.create 4 |]))

let test_mtr_run_improves () =
  let problem = three_class_problem () in
  let report = Mtr_search.run (Prng.create 20) tiny_config problem in
  let mid = Array.make 12 15 in
  let initial =
    Dtr_oracle.Ref_multi.evaluate problem.Mtr_search.graph
      ~weights:[| mid; mid; mid |]
      ~matrices:problem.Mtr_search.matrices
  in
  Alcotest.(check bool) "no worse than initial" true
    (Lexico.compare_vectors report.Mtr_search.objective
       initial.Dtr_oracle.Ref_multi.phi
    <= 0);
  Alcotest.(check int) "three weight vectors" 3
    (Array.length report.Mtr_search.weights);
  Alcotest.(check bool) "evaluations counted" true
    (report.Mtr_search.evaluations > 0)

let test_mtr_deterministic () =
  let problem = three_class_problem () in
  let a = Mtr_search.run (Prng.create 21) tiny_config problem in
  let b = Mtr_search.run (Prng.create 21) tiny_config problem in
  Alcotest.(check int) "same objective" 0
    (Lexico.compare_vectors a.Mtr_search.objective b.Mtr_search.objective)

let test_mtr_single_topology_shares_vector () =
  let problem = three_class_problem () in
  let report =
    Mtr_search.run_single_topology (Prng.create 22) tiny_config problem
  in
  Alcotest.(check bool) "one shared vector" true
    (report.Mtr_search.weights.(0) = report.Mtr_search.weights.(1)
    && report.Mtr_search.weights.(1) = report.Mtr_search.weights.(2))

let test_mtr_no_worse_than_single_topology () =
  let problem = three_class_problem () in
  let cfg = { tiny_config with Search_config.n_iters = 60; k_iters = 80 } in
  let str = Mtr_search.run_single_topology (Prng.create 23) cfg problem in
  let mtr = Mtr_search.run (Prng.create 24) cfg problem in
  (* The multi-topology space contains the shared-vector space. *)
  Alcotest.(check bool) "lexicographically no worse" true
    (Lexico.compare_vectors mtr.Mtr_search.objective str.Mtr_search.objective
    <= 0
    ||
    (* allow equality within noise on the leading components *)
    Array.for_all2
      (fun a b -> a <= b +. 1e-6)
      mtr.Mtr_search.objective str.Mtr_search.objective)

(* A report's objective is the evaluation of its weights: the run reads
   them from the context it keeps of its best, synced at every new
   best, and the objective from its own record of that best.  The
   instance is the ext-3class one; a short budget with quick
   diversification exercises restarts and both searches' returns to
   the best. *)
let test_mtr_report_is_oracle_evaluation () =
  let problem = Dtr_experiments.Multi_class.problem () in
  let cfg =
    { tiny_config with Search_config.n_iters = 6; k_iters = 8; diversify_after = 2 }
  in
  let bits a = Array.map Int64.bits_of_float a in
  let check what (r : Mtr_search.report) =
    Alcotest.(check bool) (what ^ ": improved") true
      (r.Mtr_search.improvements > 0);
    let oracle =
      Dtr_oracle.Ref_multi.evaluate problem.Mtr_search.graph
        ~weights:r.Mtr_search.weights ~matrices:problem.Mtr_search.matrices
    in
    Alcotest.(check (array int64))
      (what ^ ": objective = oracle of weights, bitwise")
      (bits oracle.Dtr_oracle.Ref_multi.phi)
      (bits r.Mtr_search.objective)
  in
  check "mtr" (Mtr_search.run (Prng.create 25) cfg problem);
  let single = Mtr_search.run_single_topology (Prng.create 26) cfg problem in
  check "single topology" single;
  Alcotest.(check bool) "single topology: one physical vector" true
    (Array.for_all (fun w -> w == single.Mtr_search.weights.(0))
       single.Mtr_search.weights)

(* ------------------------------------------------------------------ *)
(* Warm-start validation.  Every search validates a caller-supplied w0
   at entry, so an out-of-range weight is an immediate
   Invalid_argument instead of a crash (or silent corruption) deep
   inside the first scan — the former failure mode was an overflow in
   the candidate-value tables once an over-max weight reached them. *)

let out_of_bounds = Invalid_argument "Weights.validate: weight out of bounds"
let length_mismatch = Invalid_argument "Weights.validate: length mismatch"

let check_rejects label exn f = Alcotest.check_raises label exn f

let test_str_rejects_bad_w0 () =
  let p = ring_problem () in
  let m = Graph.arc_count p.Problem.graph in
  let over = Array.make m (Weights.max_weight + 1) in
  check_rejects "over max" out_of_bounds (fun () ->
      ignore (Str_search.run ~w0:over (Prng.create 40) tiny_config p));
  check_rejects "short vector" length_mismatch (fun () ->
      ignore (Str_search.run ~w0:(Array.make (m - 1) 1) (Prng.create 40)
                tiny_config p))

let test_dtr_rejects_bad_w0 () =
  let p = ring_problem () in
  let m = Graph.arc_count p.Problem.graph in
  check_rejects "zero weight in wl" out_of_bounds (fun () ->
      ignore
        (Dtr_search.run ~w0:(Array.make m 1, Array.make m 0) (Prng.create 41)
           tiny_config p));
  check_rejects "short wh" length_mismatch (fun () ->
      ignore
        (Dtr_search.run ~w0:(Array.make (m - 1) 1, Array.make m 1)
           (Prng.create 41) tiny_config p))

let test_mtr_rejects_bad_w0 () =
  let problem = three_class_problem () in
  let m = Graph.arc_count problem.Mtr_search.graph in
  let good = Array.make m 1 in
  let bad = Array.make m (Weights.max_weight + 1) in
  check_rejects "bad class vector" out_of_bounds (fun () ->
      ignore
        (Mtr_search.run ~w0:[| good; bad; good |] (Prng.create 42) tiny_config
           problem));
  check_rejects "single topology" out_of_bounds (fun () ->
      ignore
        (Mtr_search.run_single_topology ~w0:bad (Prng.create 42) tiny_config
           problem))

let test_anneal_rejects_bad_w0 () =
  let p = ring_problem () in
  let m = Graph.arc_count p.Problem.graph in
  check_rejects "over max in wh" out_of_bounds (fun () ->
      ignore
        (Anneal_search.run ~schedule:fast_schedule
           ~w0:(Array.make m (Weights.max_weight + 1), Array.make m 1)
           (Prng.create 43) tiny_config p))

let () =
  Alcotest.run "dtr_core"
    [
      ( "config",
        [
          Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
          Alcotest.test_case "paper values" `Quick test_config_paper_values;
          Alcotest.test_case "scale" `Quick test_config_scale;
          Alcotest.test_case "validate rejects" `Quick
            test_config_validate_rejects;
        ] );
      ( "neighborhood",
        [
          Alcotest.test_case "rank decreasing" `Quick test_rank_by_cost_decreasing;
          Alcotest.test_case "rank stable ties" `Quick
            test_rank_by_cost_stable_ties;
          Alcotest.test_case "candidate sets shape" `Quick
            test_candidate_sets_shape;
          Alcotest.test_case "small ranking clamps" `Quick
            test_candidate_sets_small_ranking;
          Alcotest.test_case "biased to extremes" `Quick
            test_candidate_sets_biased_to_extremes;
          Alcotest.test_case "moves pairing" `Quick test_moves_pairing;
          Alcotest.test_case "self pairs dropped" `Quick
            test_moves_drops_self_pairs;
          Alcotest.test_case "apply move" `Quick test_apply_move;
        ] );
      ( "problem",
        [
          Alcotest.test_case "rejects disconnected" `Quick
            test_problem_rejects_disconnected;
          Alcotest.test_case "eval_str is STR" `Quick test_problem_eval_str_is_str;
          Alcotest.test_case "eval_dtr distinct" `Quick
            test_problem_eval_dtr_distinct;
          Alcotest.test_case "defensive copies" `Quick
            test_problem_defensive_copies;
          Alcotest.test_case "evaluation counter" `Quick
            test_problem_evaluation_counter;
        ] );
      ( "search",
        [
          Alcotest.test_case "FindH never worsens" `Quick test_find_h_never_worsens;
          Alcotest.test_case "FindL preserves high priority" `Quick
            test_find_l_preserves_high_priority;
          Alcotest.test_case "DTR run improves" `Quick test_dtr_run_improves;
          Alcotest.test_case "DTR deterministic" `Quick test_dtr_run_deterministic;
          Alcotest.test_case "DTR custom start" `Quick test_dtr_run_custom_start;
          Alcotest.test_case "progress callback" `Quick test_dtr_progress_callback;
          Alcotest.test_case "STR run improves" `Quick test_str_run_improves;
          Alcotest.test_case "STR archive is Pareto" `Quick test_str_archive_pareto;
          Alcotest.test_case "relaxed best monotone" `Quick
            test_str_relaxed_best_monotone;
          Alcotest.test_case "archive empty under SLA" `Quick
            test_str_archive_empty_under_sla;
          Alcotest.test_case "STR default budget" `Quick test_default_iters_budget;
          Alcotest.test_case "DTR no worse than STR" `Slow
            test_dtr_beats_or_ties_str_secondary;
          Alcotest.test_case "finds known optimum on the Fig.1 triangle"
            `Quick test_dtr_finds_known_optimum_on_triangle;
          Alcotest.test_case "STR finds its known optimum on the triangle"
            `Quick test_str_finds_known_optimum_on_triangle;
          Alcotest.test_case "relaxation reaches the split on the triangle"
            `Quick test_str_relaxation_reaches_split_on_triangle;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "schedule validation" `Quick
            test_anneal_schedule_validation;
          Alcotest.test_case "improves" `Quick test_anneal_improves;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "SLA model" `Quick test_anneal_sla_model;
        ] );
      ( "mtr",
        [
          Alcotest.test_case "create rejects" `Quick test_mtr_create_rejects;
          Alcotest.test_case "run improves" `Quick test_mtr_run_improves;
          Alcotest.test_case "deterministic" `Quick test_mtr_deterministic;
          Alcotest.test_case "single topology shares vector" `Quick
            test_mtr_single_topology_shares_vector;
          Alcotest.test_case "MTR no worse than single topology" `Slow
            test_mtr_no_worse_than_single_topology;
          Alcotest.test_case "report is the oracle's evaluation of its weights"
            `Quick test_mtr_report_is_oracle_evaluation;
        ] );
      ( "w0-validation",
        [
          Alcotest.test_case "STR rejects bad w0" `Quick test_str_rejects_bad_w0;
          Alcotest.test_case "DTR rejects bad w0" `Quick test_dtr_rejects_bad_w0;
          Alcotest.test_case "MTR rejects bad w0" `Quick test_mtr_rejects_bad_w0;
          Alcotest.test_case "anneal rejects bad w0" `Quick
            test_anneal_rejects_bad_w0;
        ] );
    ]
