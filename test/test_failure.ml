(* Single-link failure sweeps: the delta engine against the
   from-scratch oracle (Dtr_oracle.Ref_failure; bitwise, on both cost models, including
   disconnecting failures), exact fail_link semantics on parallel
   links, infinite-cost handling through the Lexico comparison,
   penalty aggregation, memo key consistency across commits, and the
   robust search mode. *)

module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Vmemo = Dtr_util.Vmemo
module Graph = Dtr_graph.Graph
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Weights = Dtr_routing.Weights
module Eval_ctx = Dtr_routing.Eval_ctx
module Failure_sweep = Dtr_routing.Failure_sweep
module Ref_failure = Dtr_oracle.Ref_failure
module Objective = Dtr_routing.Objective
module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config
module Scan = Dtr_core.Scan

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* Mix topologies where every failure is survivable with ones where
   failures disconnect: the line graph loses a positive-demand pair on
   every link failure, the sparse Waxman/random graphs usually have at
   least one cut link. *)
let fixture seed =
  match seed mod 4 with
  | 0 -> Dtr_topology.Classic.line (4 + (seed mod 3))
  | 1 ->
      let rec go attempt =
        let rng = Prng.create (seed + (1000 * attempt)) in
        let g =
          Dtr_topology.Waxman.generate rng
            { Dtr_topology.Waxman.default with nodes = 12 }
        in
        if Graph.is_strongly_connected g then g else go (attempt + 1)
      in
      go 0
  | 2 ->
      let rec go attempt =
        let rng = Prng.create (seed + (1000 * attempt)) in
        let g =
          Dtr_topology.Random_topo.generate rng
            { Dtr_topology.Random_topo.default with nodes = 12; links = 22 }
        in
        if Graph.is_strongly_connected g then g else go (attempt + 1)
      in
      go 0
  | _ -> Dtr_topology.Classic.ring 8

let random_matrices rng g =
  let n = Graph.node_count g in
  let tl = Gravity.generate rng ~n Gravity.default in
  let pairs = Highpri.random_pairs rng ~n ~density:0.2 in
  let th = Highpri.volumes rng ~low:tl ~fraction:0.3 ~pairs in
  (th, tl)

let check_outcome ~what i (e : Failure_sweep.outcome)
    (a : Failure_sweep.outcome) =
  (* Stdlib float compare: exact, and total on infinities. *)
  Alcotest.(check int)
    (Printf.sprintf "%s: link %d cost (bitwise)" what i)
    0
    (Lexico.compare e.Failure_sweep.cost a.Failure_sweep.cost);
  Alcotest.(check int)
    (Printf.sprintf "%s: link %d severed pairs" what i)
    e.Failure_sweep.unreachable_pairs a.Failure_sweep.unreachable_pairs

(* ------------------------------------------------------------------ *)
(* Delta sweep vs from-scratch oracle *)

(* An instance is a graph, its two matrices and a weight pair. *)
let fixture_instance seed =
  let g = fixture seed in
  let rng = Prng.create ((seed * 13) + 5) in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  (g, th, tl, wh, wl)

(* A 50-node / 250-link random network with gravity low-class
   traffic, a density-0.10 high class at 30 % of its pairs' volume and
   random weights: far larger than the fixtures above. *)
let random50_instance () =
  let root = Prng.create 1 in
  let topo_rng = Prng.split root in
  let traffic_rng = Prng.split root in
  let weight_rng = Prng.split root in
  let g =
    Dtr_topology.Random_topo.generate topo_rng
      { Dtr_topology.Random_topo.default with nodes = 50; links = 250 }
  in
  let n = Graph.node_count g in
  let tl = Gravity.generate traffic_rng ~n Gravity.default in
  let pairs = Highpri.random_pairs traffic_rng ~n ~density:0.10 in
  let th = Highpri.volumes traffic_rng ~low:tl ~fraction:0.30 ~pairs in
  let wh = Weights.random weight_rng g in
  let wl = Weights.random weight_rng g in
  (g, th, tl, wh, wl)

let sweep_matches_oracle ~model (g, th, tl, wh, wl) =
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let delta = Failure_sweep.sweep ~model ~th ctx in
  let oracle = Ref_failure.oracle_sweep ~model g ~wh ~wl ~th ~tl in
  Alcotest.(check int)
    "one outcome per link"
    (Array.length (Graph.undirected_link_pairs g))
    (Array.length delta);
  Alcotest.(check int) "same length" (Array.length oracle) (Array.length delta);
  Array.iteri (fun i e -> check_outcome ~what:"delta=oracle" i e delta.(i)) oracle

let test_sweep_matches_oracle_load () =
  for seed = 0 to 11 do
    sweep_matches_oracle ~model:Objective.Load (fixture_instance seed)
  done;
  sweep_matches_oracle ~model:Objective.Load (random50_instance ())

let test_sweep_matches_oracle_sla () =
  for seed = 0 to 7 do
    sweep_matches_oracle ~model:(Objective.Sla Dtr_cost.Sla.default)
      (fixture_instance seed)
  done;
  sweep_matches_oracle ~model:(Objective.Sla Dtr_cost.Sla.default)
    (random50_instance ())

let test_sweep_str_weights () =
  (* An STR setting (wh == wl, one routing group) takes the grouped
     path through fail_probe; it must still match the oracle. *)
  let g = fixture 1 in
  let rng = Prng.create 42 in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  let delta = Failure_sweep.sweep ~th ctx in
  let oracle = Ref_failure.oracle_sweep g ~wh:w ~wl:w ~th ~tl in
  Array.iteri (fun i e -> check_outcome ~what:"str" i e delta.(i)) oracle

let test_disconnecting_failures_are_infinite () =
  (* Every link of a line graph severs positive demand: all outcomes
     must be infinite, carry positive severed-pair counts, and survive
     the Lexico comparison (inf = inf, not dropped). *)
  let g = Dtr_topology.Classic.line 4 in
  let rng = Prng.create 7 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let outcomes = Failure_sweep.sweep ~th ctx in
  Alcotest.(check bool) "has outcomes" true (Array.length outcomes > 0);
  Array.iter
    (fun (o : Failure_sweep.outcome) ->
      Alcotest.(check bool) "infinite" false (Failure_sweep.is_finite o);
      Alcotest.(check int) "cost is Lexico.infinity" 0
        (Lexico.compare o.Failure_sweep.cost Lexico.infinity);
      Alcotest.(check bool) "severed pairs counted" true
        (o.Failure_sweep.unreachable_pairs > 0))
    outcomes;
  Alcotest.(check int) "all counted infinite" (Array.length outcomes)
    (Failure_sweep.infinite_count outcomes);
  (* Infinite outcomes order below nothing: max over the list through
     the Lexico comparison is infinity, never an optimistic finite. *)
  let worst =
    Array.fold_left
      (fun acc (o : Failure_sweep.outcome) ->
        if Lexico.compare o.Failure_sweep.cost acc > 0 then
          o.Failure_sweep.cost
        else acc)
      Lexico.zero outcomes
  in
  Alcotest.(check int) "worst is infinite" 0
    (Lexico.compare worst Lexico.infinity)

let test_sweep_jobs_invariance_with_disconnections () =
  let g = Dtr_topology.Classic.line 5 in
  let rng = Prng.create 11 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let seq = Failure_sweep.sweep ~th ctx in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let par = Failure_sweep.sweep ~pool ~th ctx in
  Alcotest.(check int) "same length" (Array.length seq) (Array.length par);
  Array.iteri (fun i e -> check_outcome ~what:"jobs" i e par.(i)) seq

let test_sweep_leaves_context_intact () =
  (* fail_probe is pure: a sweep must not move the context. *)
  let g = fixture 2 in
  let rng = Prng.create 23 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let phi_before = Eval_ctx.phi ctx in
  let first = Failure_sweep.sweep ~th ctx in
  let phi_after = Eval_ctx.phi ctx in
  Alcotest.(check (array (float 0.))) "phi unchanged" phi_before phi_after;
  let second = Failure_sweep.sweep ~th ctx in
  Array.iteri (fun i e -> check_outcome ~what:"repeat" i e second.(i)) first

(* ------------------------------------------------------------------ *)
(* fail_link on parallel links *)

(* Two parallel bidirectional links between 0 and 1 plus a 1-2 and a
   0-2 link.  Failing one of the parallel links must remove exactly
   its own two arcs, leaving the twin (and the graph connected). *)
let parallel_graph () =
  let a src dst = { Graph.src; dst; capacity = 100.; delay = 1. } in
  Graph.build ~n:3
    [ a 0 1; a 1 0; a 0 1; a 1 0; a 1 2; a 2 1; a 0 2; a 2 0 ]

let test_fail_link_parallel_links () =
  let g = parallel_graph () in
  let links = Graph.undirected_link_pairs g in
  (* The pairing walks arcs in id order: (0,1), (2,3), (4,5), (6,7). *)
  Alcotest.(check int) "four links" 4 (Array.length links);
  Alcotest.(check bool) "first parallel link pairs its own twin" true
    (links.(0) = (0, 1));
  Alcotest.(check bool) "second parallel link pairs its own twin" true
    (links.(1) = (2, 3));
  let reduced, mapping = Ref_failure.fail_link g ~link:links.(0) in
  Alcotest.(check int) "exactly two arcs removed" (Graph.arc_count g - 2)
    (Graph.arc_count reduced);
  (* The surviving parallel twin is still there: 0 and 1 remain
     adjacent both ways. *)
  Alcotest.(check bool) "parallel twin survives (0->1)" true
    (Graph.find_arc reduced ~src:0 ~dst:1 <> None);
  Alcotest.(check bool) "parallel twin survives (1->0)" true
    (Graph.find_arc reduced ~src:1 ~dst:0 <> None);
  Alcotest.(check bool) "still strongly connected" true
    (Graph.is_strongly_connected reduced);
  (* The dropped ids are exactly 0 and 1. *)
  Alcotest.(check bool) "mapping skips failed ids" true
    (Array.for_all (fun orig -> orig <> 0 && orig <> 1) mapping);
  Alcotest.check_raises "non-twin pair rejected"
    (Invalid_argument "Failure_sweep.fail_link: arcs are not reverse twins")
    (fun () -> ignore (Ref_failure.fail_link g ~link:(0, 4)))

let test_sweep_matches_oracle_parallel_links () =
  (* The delta sweep must price a parallel-link failure identically to
     the oracle: only the failed link's arcs disappear, the twin keeps
     carrying load. *)
  let g = parallel_graph () in
  let rng = Prng.create 3 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let delta = Failure_sweep.sweep ~th ctx in
  let oracle = Ref_failure.oracle_sweep g ~wh ~wl ~th ~tl in
  Array.iteri (fun i e -> check_outcome ~what:"parallel" i e delta.(i)) oracle

(* ------------------------------------------------------------------ *)
(* Penalty aggregation *)

let outcome cost = { Failure_sweep.cost; unreachable_pairs = 0 }

let infinite_outcome =
  { Failure_sweep.cost = Lexico.infinity; unreachable_pairs = 3 }

let test_penalty () =
  let fin p s = outcome (Lexico.make ~primary:p ~secondary:s) in
  let outcomes =
    [| fin 10. 1.; infinite_outcome; fin 30. 3.; fin 20. 2. |]
  in
  (* top_k = 1: pure worst finite — infinite excluded. *)
  let p1 = Failure_sweep.penalty outcomes in
  Alcotest.(check (float 0.)) "worst finite primary" 30. p1.Lexico.primary;
  Alcotest.(check (float 0.)) "worst finite secondary" 3. p1.Lexico.secondary;
  (* top_k = 2: mean of the two worst finite. *)
  let p2 = Failure_sweep.penalty ~top_k:2 outcomes in
  Alcotest.(check (float 1e-12)) "top-2 mean primary" 25. p2.Lexico.primary;
  (* top_k larger than the finite pool: mean of what exists. *)
  let p9 = Failure_sweep.penalty ~top_k:9 outcomes in
  Alcotest.(check (float 1e-12)) "top-9 mean primary" 20. p9.Lexico.primary;
  (* All infinite: no signal, penalty zero. *)
  let all_inf = [| infinite_outcome; infinite_outcome |] in
  Alcotest.(check (float 0.)) "all-infinite penalty" 0.
    (Failure_sweep.penalty all_inf).Lexico.primary;
  Alcotest.(check int) "infinite count" 2 (Failure_sweep.infinite_count all_inf);
  Alcotest.check_raises "top_k must be positive"
    (Invalid_argument "Failure_sweep.penalty: top_k must be >= 1")
    (fun () -> ignore (Failure_sweep.penalty ~top_k:0 outcomes))

(* ------------------------------------------------------------------ *)
(* Memo key consistency across commits (Vmemo hit-rate soft spot) *)

let small_problem seed =
  let g = fixture ((4 * seed) + 1) in
  let rng = Prng.create (seed + 100) in
  let th, tl = random_matrices rng g in
  Problem.create ~graph:g ~th ~tl ~model:Objective.Load

let test_memo_keys_stable_across_commit () =
  (* Scan keys are Zobrist hashes shifted from the context's *current*
     vectors, recomputed fresh each scan (Scan.candidate_keys) — so a
     candidate revisited from a different incumbent must produce the
     same key and hit the memo.  Exact counts: n misses on the first
     scan, n hits when re-scanned unchanged, and n hits again after a
     commit moved the incumbent onto one of the scanned settings. *)
  let problem = small_problem 1 in
  let w0 = Array.make (Graph.arc_count problem.Problem.graph) 15 in
  let sol = Problem.eval_str problem ~w:w0 in
  let ctx = Problem.ctx_of_solution problem sol in
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  let memo = Vmemo.create () in
  let n = 6 in
  let changes_of i = [ (0, i + 1) ] in
  let first = Scan.evaluate scan ctx ~memo ~cls:`H ~changes_of n in
  Alcotest.(check int) "first scan: all misses" n (Vmemo.misses memo);
  Alcotest.(check int) "first scan: no hits" 0 (Vmemo.hits memo);
  let second = Scan.evaluate scan ctx ~memo ~cls:`H ~changes_of n in
  Alcotest.(check int) "re-scan: all hits" n (Vmemo.hits memo);
  Alcotest.(check int) "re-scan: no new misses" n (Vmemo.misses memo);
  Array.iteri
    (fun i (a : Scan.summary) ->
      Alcotest.(check int) "memoized summary identical" 0
        (Lexico.compare a.Scan.objective second.(i).Scan.objective))
    first;
  (* Advance the incumbent onto scanned setting (arc0 = 3), then scan
     the same *absolute* settings from the new base: keys must agree
     with the pre-commit ones, so every candidate hits. *)
  ignore (Scan.commit scan ctx ~cls:`H ~changes:[ (0, 3) ]);
  let _ = Scan.evaluate scan ctx ~memo ~cls:`H ~changes_of n in
  Alcotest.(check int) "post-commit scan: all hits" (2 * n) (Vmemo.hits memo);
  Alcotest.(check int) "post-commit scan: no new misses" n (Vmemo.misses memo)

(* ------------------------------------------------------------------ *)
(* Robust search mode *)

let tiny_cfg =
  {
    Search_config.quick with
    Search_config.n_iters = 20;
    k_iters = 20;
    diversify_after = 8;
  }

let robust_cfg alpha =
  { tiny_cfg with Search_config.robust = Some { Search_config.alpha; top_k = 1 } }

let test_robust_config_validation () =
  Alcotest.check_raises "negative alpha rejected"
    (Invalid_argument "Search_config: robust alpha must be non-negative")
    (fun () -> Search_config.validate (robust_cfg (-1.)));
  Alcotest.check_raises "non-positive top_k rejected"
    (Invalid_argument "Search_config: robust top_k must be positive")
    (fun () ->
      Search_config.validate
        {
          tiny_cfg with
          Search_config.robust = Some { Search_config.alpha = 1.; top_k = 0 };
        })

let test_robust_alpha_zero_matches_normal () =
  (* With alpha = 0 the robust objective J = normal + 0 * penalty is
     bitwise the normal objective, so the whole trajectory — sweeps
     included — must reproduce the normal-mode result exactly. *)
  let problem = small_problem 2 in
  let normal = Dtr_core.Str_search.run (Prng.create 5) tiny_cfg problem in
  let robust = Dtr_core.Str_search.run (Prng.create 5) (robust_cfg 0.) problem in
  Alcotest.(check int) "same objective" 0
    (Lexico.compare normal.Dtr_core.Str_search.objective
       robust.Dtr_core.Str_search.objective);
  Alcotest.(check (array int)) "same best weights"
    normal.Dtr_core.Str_search.best.Problem.wh
    robust.Dtr_core.Str_search.best.Problem.wh;
  let dn = Dtr_core.Dtr_search.run (Prng.create 6) tiny_cfg problem in
  let dr = Dtr_core.Dtr_search.run (Prng.create 6) (robust_cfg 0.) problem in
  Alcotest.(check int) "dtr: same objective" 0
    (Lexico.compare dn.Dtr_core.Dtr_search.objective
       dr.Dtr_core.Dtr_search.objective);
  Alcotest.(check (array int)) "dtr: same best wh"
    dn.Dtr_core.Dtr_search.best.Problem.wh dr.Dtr_core.Dtr_search.best.Problem.wh;
  Alcotest.(check (array int)) "dtr: same best wl"
    dn.Dtr_core.Dtr_search.best.Problem.wl dr.Dtr_core.Dtr_search.best.Problem.wl

let test_robust_objective_decomposition () =
  (* In robust mode the reported objective is J = normal + alpha *
     penalty of the best solution: recomputing the sweep on the
     reported best must reproduce it bitwise. *)
  let problem = small_problem 2 in
  let alpha = 0.5 in
  let report =
    Dtr_core.Str_search.run (Prng.create 9) (robust_cfg alpha) problem
  in
  let best = report.Dtr_core.Str_search.best in
  let ctx = Problem.ctx_of_solution problem best in
  let rp =
    Problem.robust_price problem ctx ~alpha ~top_k:1
      ~normal:(Problem.objective best)
  in
  Alcotest.(check int) "reported J matches repriced best" 0
    (Lexico.compare report.Dtr_core.Str_search.objective
       rp.Problem.rp_objective);
  (* J dominates the normal cost componentwise (finite penalty). *)
  let n = Problem.objective best in
  Alcotest.(check bool) "J >= normal (primary)" true
    (rp.Problem.rp_objective.Lexico.primary >= n.Lexico.primary);
  Alcotest.(check bool) "penalty non-negative" true
    (rp.Problem.rp_penalty.Lexico.primary >= 0.)

let test_robust_search_jobs_invariance () =
  (* Robust sweeps run at deterministic trajectory points with
     link-ordered chunk reassembly, so a multistart at 1 domain and 4
     must pick the same winner with the same robust objective. *)
  let module Multistart = Dtr_core.Multistart in
  let problem = small_problem 2 in
  let cfg = robust_cfg 1.0 in
  let run jobs =
    Multistart.run ~jobs ~restarts:3 ~algo:Multistart.Dtr (Prng.create 4) cfg
      problem
  in
  let seq = run 1 in
  let par = run 4 in
  Alcotest.(check int) "same robust objective" 0
    (Lexico.compare seq.Multistart.objective par.Multistart.objective);
  Alcotest.(check int) "same winning restart" seq.Multistart.best_index
    par.Multistart.best_index;
  Alcotest.(check (array int)) "same winner wh"
    seq.Multistart.best.Problem.wh par.Multistart.best.Problem.wh

let test_multistart_ranks_restarts_by_j () =
  (* A robust restart is worth its J, not its normal cost: each
     restart's objective is J of its solution, and the winner is the
     exact J-argmin (lowest index on ties). *)
  let module Multistart = Dtr_core.Multistart in
  let problem = small_problem 2 in
  let alpha = 0.5 in
  List.iter
    (fun algo ->
      let r =
        Multistart.run ~restarts:3 ~algo (Prng.create 4) (robust_cfg alpha)
          problem
      in
      let js =
        Array.map
          (fun (x : Multistart.restart) ->
            let sol = x.Multistart.solution in
            let rp =
              Problem.robust_price problem
                (Problem.ctx_of_solution problem sol)
                ~alpha ~top_k:1 ~normal:(Problem.objective sol)
            in
            Alcotest.(check int)
              (Printf.sprintf "restart %d objective is its J" x.Multistart.index)
              0
              (Lexico.compare x.Multistart.objective rp.Problem.rp_objective);
            rp.Problem.rp_objective)
          r.Multistart.restarts
      in
      let argmin = ref 0 in
      Array.iteri
        (fun i j -> if Lexico.compare j js.(!argmin) < 0 then argmin := i)
        js;
      Alcotest.(check int) "winner is the J-argmin" !argmin
        r.Multistart.best_index;
      Alcotest.(check int) "reported objective is the winner's J" 0
        (Lexico.compare r.Multistart.objective js.(!argmin)))
    [ Multistart.Str; Multistart.Dtr ]

let test_robust_sweep_detail_counts_cuts () =
  (* A Robust_sweep event's [detail] is the number of single-link
     failures priced infinite.  Reachability does not depend on the
     weights, so on a transit-stub network with cut links every sweep
     of every search reports the same positive count: the links whose
     failure severs positive demand, counted here from scratch. *)
  let module Scenario = Dtr_experiments.Scenario in
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Transit_stub;
        fraction = 0.3;
        hp = Scenario.Random_density 0.1;
        seed = 3;
      }
  in
  let problem =
    Scenario.problem (Scenario.scale_to_utilization inst ~target:0.6)
      ~model:Objective.Load
  in
  let g = problem.Problem.graph in
  let cuts =
    Array.fold_left
      (fun acc link ->
        let reduced, _ = Ref_failure.fail_link g ~link in
        if
          Ref_failure.severed_pairs reduced
            ~matrices:[| problem.Problem.th; problem.Problem.tl |]
          > 0
        then acc + 1
        else acc)
      0
      (Graph.undirected_link_pairs g)
  in
  Alcotest.(check bool) "the network has cut links" true (cuts > 0);
  let sweeps run =
    let trace = Dtr_core.Trace.ring () in
    run trace;
    List.filter
      (fun (e : Dtr_core.Trace.event) ->
        e.Dtr_core.Trace.kind = Dtr_core.Trace.Robust_sweep)
      (Dtr_core.Trace.events trace)
  in
  let cfg = robust_cfg 0.5 in
  List.iter
    (fun (name, events) ->
      Alcotest.(check bool) (name ^ ": sweeps traced") true (events <> []);
      List.iter
        (fun (e : Dtr_core.Trace.event) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: sweep at iteration %d" name
               e.Dtr_core.Trace.iteration)
            cuts e.Dtr_core.Trace.detail)
        events)
    [
      ( "str",
        sweeps (fun trace ->
            ignore (Dtr_core.Str_search.run ~trace (Prng.create 3) cfg problem)) );
      ( "dtr",
        sweeps (fun trace ->
            ignore (Dtr_core.Dtr_search.run ~trace (Prng.create 3) cfg problem)) );
    ]

let () =
  Alcotest.run "failure"
    [
      ( "sweep-vs-oracle",
        [
          Alcotest.test_case "load model (bitwise)" `Quick
            test_sweep_matches_oracle_load;
          Alcotest.test_case "sla model (bitwise)" `Quick
            test_sweep_matches_oracle_sla;
          Alcotest.test_case "str weights" `Quick test_sweep_str_weights;
          Alcotest.test_case "parallel links" `Quick
            test_sweep_matches_oracle_parallel_links;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "disconnecting failures priced infinite" `Quick
            test_disconnecting_failures_are_infinite;
          Alcotest.test_case "jobs invariance with disconnections" `Quick
            test_sweep_jobs_invariance_with_disconnections;
          Alcotest.test_case "sweep leaves context intact" `Quick
            test_sweep_leaves_context_intact;
          Alcotest.test_case "fail_link parallel links" `Quick
            test_fail_link_parallel_links;
          Alcotest.test_case "penalty aggregation" `Quick test_penalty;
        ] );
      ( "memo",
        [
          Alcotest.test_case "keys stable across commit (exact counts)" `Quick
            test_memo_keys_stable_across_commit;
        ] );
      ( "robust-mode",
        [
          Alcotest.test_case "config validation" `Quick
            test_robust_config_validation;
          Alcotest.test_case "alpha=0 matches normal mode" `Quick
            test_robust_alpha_zero_matches_normal;
          Alcotest.test_case "objective decomposition" `Quick
            test_robust_objective_decomposition;
          Alcotest.test_case "multistart jobs invariance" `Slow
            test_robust_search_jobs_invariance;
          Alcotest.test_case "multistart ranks restarts by J" `Quick
            test_multistart_ranks_restarts_by_j;
          Alcotest.test_case "robust_sweep detail = cut links" `Quick
            test_robust_sweep_detail_counts_cuts;
        ] );
    ]
