(* Single-link failure sweeps: the delta engine against the
   from-scratch oracle (Dtr_oracle.Ref_failure; bitwise, on both cost models, including
   disconnecting failures), exact fail_link semantics on parallel
   links, infinite-cost handling through the Lexico comparison,
   penalty aggregation, primary-first pricing against the full sweep,
   the flow screen of failure probes against the reduced graph rebuilt
   from scratch, memo key consistency across commits, and the robust
   search mode. *)

module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Metrics = Dtr_util.Metrics
module Vmemo = Dtr_util.Vmemo
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Weights = Dtr_routing.Weights
module Eval_ctx = Dtr_routing.Eval_ctx
module Evaluate = Dtr_routing.Evaluate
module Failure_sweep = Dtr_routing.Failure_sweep
module Ref_failure = Dtr_oracle.Ref_failure
module Ref_loads = Dtr_oracle.Ref_loads
module Narrow_moves = Dtr_oracle.Narrow_moves
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
(* Primary-first pricing: class-0 failure probes and the robust
   penalty, held bitwise to the full probe and the full sweep *)

let models = [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]

let link_arcs (a, b) = if a = b then [ a ] else [ a; b ]

let check_bits what expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
  then Alcotest.failf "%s: expected %h, got %h" what expected actual

(* A DTR context (one weight group per class) and an STR one (both
   classes in one group) of an instance. *)
let contexts (g, th, tl, wh, wl) =
  [
    ("dtr", Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |]);
    ("str", Eval_ctx.create g ~weights:[| wh; wh |] ~matrices:[| th; tl |]);
  ]

(* For every link, a class-0 failure probe prices the full probe's
   Φ_H row and the full sweep's primary, bitwise; a failure that
   severs class-0 demand severs it in full too.  The class-0 probe of
   a link runs right after the full probe of the link before, so it
   cannot pass on what that probe left in the arena. *)
let class0_probe_matches_full ~model ((g, th, _, _, _) as inst) =
  List.iter
    (fun (name, ctx) ->
      let sweep = Failure_sweep.sweep ~model ~th ctx in
      Array.iteri
        (fun i link ->
          let what =
            Printf.sprintf "%s %s link %d" name (Objective.model_name model) i
          in
          let f = Eval_ctx.fail_probe ~classes:1 ctx ~arcs:(link_arcs link) in
          Alcotest.(check int) (what ^ ": one priced class") 1
            (Array.length (Eval_ctx.probe_phi f));
          if Eval_ctx.probe_unreachable f > 0 then
            Alcotest.(check bool) (what ^ ": severed in full too") false
              (Failure_sweep.is_finite sweep.(i))
          else begin
            let primary = Eval_ctx.probe_primary ~model ~th ctx f in
            let row = Array.copy (Eval_ctx.probe_phi_row ctx f 0) in
            Alcotest.check_raises (what ^ ": class 1 not priced")
              (Invalid_argument
                 "Eval_ctx.probe_phi_row: class not priced by this probe")
              (fun () -> ignore (Eval_ctx.probe_phi_row ctx f 1));
            let full = Eval_ctx.fail_probe ctx ~arcs:(link_arcs link) in
            if Failure_sweep.is_finite sweep.(i) then begin
              check_bits (what ^ ": primary")
                sweep.(i).Failure_sweep.cost.Lexico.primary primary;
              Array.iteri
                (fun a x ->
                  check_bits (Printf.sprintf "%s: Φ_H arc %d" what a) x row.(a))
                (Eval_ctx.probe_phi_row ctx full 0)
            end
          end)
        (Graph.undirected_link_pairs g))
    (contexts inst)

let test_class0_probe_matches_full () =
  List.iter
    (fun model ->
      for seed = 0 to 11 do
        class0_probe_matches_full ~model (fixture_instance seed)
      done;
      class0_probe_matches_full ~model (random50_instance ()))
    models

(* Run [f] with the metrics registry on and zeroed, and leave it off
   and zeroed, so test order never matters. *)
let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let counter name = Metrics.counter_value (Metrics.counter ~help:"" name)

(* How many survivable links of a full sweep have a primary that
   reaches the [top_k]-th largest (ties counted; the smallest when fewer
   survive): the links a primary-first penalty probes in full. *)
let reaching_kth ~top_k sweep =
  let primaries =
    List.filter_map
      (fun o ->
        if Failure_sweep.is_finite o then Some o.Failure_sweep.cost.Lexico.primary
        else None)
      (Array.to_list sweep)
  in
  match List.sort (fun a b -> Float.compare b a) primaries with
  | [] -> 0
  | sorted ->
      let kth = List.nth sorted (min top_k (List.length sorted) - 1) in
      List.length (List.filter (fun p -> Float.compare p kth >= 0) primaries)

(* How many survivable links of [sweep] a class-0 pass probes: those
   with committed class-0 load [h_loads] on an arc, or all of them when
   the committed rows split a flow into zero shares.  The pass prices
   the others at the context's own primary without a probe. *)
let class0_probed g ~h_loads ~zero_shares sweep =
  let count = ref 0 in
  Array.iteri
    (fun i (a, b) ->
      if
        Failure_sweep.is_finite sweep.(i)
        && (zero_shares || h_loads.(a) <> 0. || h_loads.(b) <> 0.)
      then incr count)
    (Graph.undirected_link_pairs g);
  !count

(* Survivable links the class-0 passes below priced without a probe. *)
let unprobed = ref 0

(* The primary-first penalty equals the full sweep's, bitwise, for
   every [top_k] given and both contexts of the instance, and runs the
   full probe on exactly the survivable links whose primary reaches the
   [top_k]-th largest (ties counted; the smallest when fewer survive);
   returns the most full probes one penalty ran (failure probes beyond
   the class-0 pass's, one per survivable link that carries class-0
   load). *)
let penalty_matches_sweep ~model ~top_ks ((g, th, _, _, _) as inst) =
  let links = Array.length (Graph.undirected_link_pairs g) in
  List.fold_left
    (fun most (name, ctx) ->
      let sweep = Failure_sweep.sweep ~model ~th ctx in
      let cut = Failure_sweep.cut_links sweep in
      let survivable = links - Failure_sweep.infinite_count sweep in
      let probed =
        class0_probed g ~h_loads:(Eval_ctx.loads ctx 0)
          ~zero_shares:(Eval_ctx.zero_shares ctx) sweep
      in
      List.fold_left
        (fun most top_k ->
          let what =
            Printf.sprintf "%s %s top_k=%d" name (Objective.model_name model) top_k
          in
          let expected = Failure_sweep.penalty ~top_k sweep in
          let actual, probes =
            with_metrics (fun () ->
                let p, _ = Failure_sweep.robust_penalty ~model ~th ~top_k ~cut ctx in
                Alcotest.(check int) (what ^ ": one sweep") 1
                  (counter "dtr_failure_sweeps_total");
                Alcotest.(check int) (what ^ ": every link priced") links
                  (counter "dtr_failure_evals_total");
                Alcotest.(check int) (what ^ ": cut links priced infinite")
                  (links - survivable)
                  (counter "dtr_failure_infinite_total");
                (p, counter "dtr_eval_fail_probes_total"))
          in
          check_bits (what ^ ": primary") expected.Lexico.primary
            actual.Lexico.primary;
          check_bits (what ^ ": secondary") expected.Lexico.secondary
            actual.Lexico.secondary;
          let full = probes - probed in
          Alcotest.(check int) (what ^ ": full probes") (reaching_kth ~top_k sweep)
            full;
          unprobed := !unprobed + survivable - probed;
          max most full)
        most top_ks)
    0 (contexts inst)

let test_primary_first_penalty () =
  unprobed := 0;
  List.iter
    (fun model ->
      for seed = 0 to 11 do
        let ((g, _, _, _, _) as inst) = fixture_instance seed in
        let links = Array.length (Graph.undirected_link_pairs g) in
        ignore
          (penalty_matches_sweep ~model ~top_ks:[ 1; 2; 3; links + 1 ] inst
            : int)
      done;
      ignore
        (penalty_matches_sweep ~model ~top_ks:[ 1; 2; 3; 251 ]
           (random50_instance ())
          : int))
    models;
  Alcotest.(check bool)
    (Printf.sprintf "%d links without class-0 load priced without a probe" !unprobed)
    true (!unprobed > 0)

(* Transit-stub seed 3, random weights: 8 of its 38 links are cut. *)
let cut_link_instance () =
  let inst =
    Dtr_experiments.Scenario.make
      {
        Dtr_experiments.Scenario.topology = Dtr_experiments.Scenario.Transit_stub;
        fraction = 0.3;
        hp = Dtr_experiments.Scenario.Random_density 0.1;
        seed = 3;
      }
  in
  let g = inst.Dtr_experiments.Scenario.graph in
  let th = inst.Dtr_experiments.Scenario.th
  and tl = inst.Dtr_experiments.Scenario.tl in
  let rng = Prng.create 17 in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  (g, th, tl, wh, wl)

let test_primary_first_penalty_cut_links () =
  let ((g, th, tl, wh, wl) as inst) = cut_link_instance () in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  Alcotest.(check int) "8 cut links" 8
    (Failure_sweep.infinite_count (Failure_sweep.sweep ~th ctx));
  List.iter
    (fun model ->
      ignore (penalty_matches_sweep ~model ~top_ks:[ 1; 2; 3; 39 ] inst : int))
    models

(* Uniform weights on a ring, and high-priority demand only across the
   one link 0-1 ([th]), or across 0-1 and 4-5 alike ([th2]). *)
let tie_ring () =
  let g = Dtr_topology.Classic.ring ~capacity:10. ~delay:5. 8 in
  let n = Graph.node_count g in
  let th = Matrix.create n in
  Matrix.set th 0 1 4.;
  let th2 = Matrix.copy th in
  Matrix.set th2 4 5 4.;
  let tl = Gravity.generate (Prng.create 8) ~n Gravity.default in
  (g, th, th2, tl, Weights.uniform g 10)

let test_primary_first_penalty_ties () =
  (* On the tie ring with demand across 0-1, every other link's failure
     leaves the class-0 routing and loads as they are, so its primary
     ties with the normal cost, bitwise.  Failing 0-1 sends that demand
     the 7 hops around: a higher Φ_H, and 35 ms of propagation against
     the SLA's 25 ms bound.  From top_k = 2 on, the k-th largest primary
     is the tie, and all 8 links get a full probe.  With the same demand
     across 4-5 as well, failing 0-1 or 4-5 sends one of the two around,
     and their primaries tie at the top, bitwise: both count toward the
     top_k, so only they get a full probe up to top_k = 2. *)
  let g, th, th2, tl, w = tie_ring () in
  List.iter
    (fun model ->
      let what = Objective.model_name model in
      let full th top_ks =
        penalty_matches_sweep ~model ~top_ks (g, th, tl, w, Array.copy w)
      in
      Alcotest.(check int) (what ^ ": top_k = 1, one full probe") 1 (full th [ 1 ]);
      Alcotest.(check int) (what ^ ": top_k = 2, every link") 8 (full th [ 2 ]);
      Alcotest.(check int) (what ^ ": top_k = 3, every link") 8 (full th [ 3 ]);
      Alcotest.(check int) (what ^ ": tied worst, top_k = 1") 2 (full th2 [ 1 ]);
      Alcotest.(check int) (what ^ ": tied worst, top_k = 2") 2 (full th2 [ 2 ]);
      Alcotest.(check int) (what ^ ": tied worst, top_k = 3, every link") 8
        (full th2 [ 3 ]))
    models

let test_robust_penalty_rejects () =
  let ((g, th, _, _, _) as inst) = fixture_instance 2 in
  let ctx = snd (List.hd (contexts inst)) in
  let links = Array.length (Graph.undirected_link_pairs g) in
  Alcotest.check_raises "cut set of another graph"
    (Invalid_argument "Failure_sweep.robust_penalty: cut set of another graph")
    (fun () ->
      ignore
        (Failure_sweep.robust_penalty ~th ~top_k:1
           ~cut:(Array.make (links + 1) false) ctx));
  Alcotest.check_raises "top_k must be positive"
    (Invalid_argument "Failure_sweep.robust_penalty: top_k must be >= 1")
    (fun () ->
      ignore
        (Failure_sweep.robust_penalty ~th ~top_k:0
           ~cut:(Array.make links false) ctx));
  Alcotest.check_raises "class-0 pass of another graph"
    (Invalid_argument "Failure_sweep.robust_penalty: primaries of another graph")
    (fun () ->
      ignore
        (Failure_sweep.robust_penalty ~th ~top_k:1
           ~cut:(Array.make links false)
           ~primaries:(Array.make (links + 1) 0.) ctx));
  (* Every link of a line graph severs demand: an empty cut set is
     caught at the first link. *)
  let line = Dtr_topology.Classic.line 4 in
  let rng = Prng.create 7 in
  let th, tl = random_matrices rng line in
  let w = Weights.random rng line in
  let ctx = Eval_ctx.create line ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let cut = Array.make (Array.length (Graph.undirected_link_pairs line)) false in
  match Failure_sweep.robust_penalty ~th ~top_k:1 ~cut ctx with
  | _ -> Alcotest.fail "a severing link outside the cut set was priced"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The reachability cut set: the links whose failure severs demand,
   found without a failure probe *)

(* Nodes that reach [dst], by a reverse search over every arc. *)
let reaching g dst =
  let seen = Array.make (Graph.node_count g) false in
  let rec visit x =
    if not seen.(x) then begin
      seen.(x) <- true;
      Array.iter (fun a -> visit (Graph.src g a)) (Graph.in_arcs g x)
    end
  in
  visit dst;
  seen

(* A random multigraph: a ring of two-way links over 3 to 6 core nodes
   with a chord or two, stub trees hung off it (each stub node joined
   to an earlier node by a two-way bridge, a doubled bridge, or a
   one-way arc in and another one out, or in only), and a few one-way
   arcs.  A stub joined one way only is a sink, so the graph need not
   be strongly connected. *)
let cut_multigraph rng =
  let core = 3 + Prng.int rng 4 in
  let n = core + Prng.int rng 7 in
  let arcs = ref [] in
  let one_way u v =
    let capacity = float_of_int (50 + Prng.int rng 150) in
    arcs := { Graph.src = u; dst = v; capacity; delay = 1. } :: !arcs
  in
  let link u v =
    one_way u v;
    one_way v u
  in
  for i = 0 to core - 1 do
    link i ((i + 1) mod core)
  done;
  for _ = 1 to Prng.int rng 3 do
    let u = Prng.int rng core and v = Prng.int rng core in
    if u <> v then link u v
  done;
  for s = core to n - 1 do
    let parent = Prng.int rng s in
    match Prng.int rng 6 with
    | 0 ->
        link parent s;
        link parent s
    | 1 ->
        one_way parent s;
        one_way s (Prng.int rng s)
    | 2 -> one_way parent s
    | _ -> link parent s
  done;
  for _ = 1 to Prng.int rng 3 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then one_way u v
  done;
  Graph.build ~n (List.rev !arcs)

(* Sparse demand between routable pairs, each pair present with
   probability [p]. *)
let routable_demand rng g ~p =
  let n = Graph.node_count g in
  let tm = Matrix.create n in
  for dst = 0 to n - 1 do
    let reach = reaching g dst in
    for s = 0 to n - 1 do
      if s <> dst && reach.(s) && Prng.float rng 1. < p then
        Matrix.set tm s dst (float_of_int (1 + Prng.int rng 20))
    done
  done;
  tm

type cut_coverage = {
  mutable cut : int;  (* cut links found *)
  mutable low_only : int;  (* cut links that sever low-priority demand only *)
  mutable lone_arc : int;  (* cut links of one arc *)
}

(* On one random instance, in a DTR and an STR context: the cut set
   equals the full sweep's cut links and the from-scratch severed-pair
   count's, link for link. *)
let cut_set_matches cov seed =
  let rng = Prng.create ((seed * 41) + 9) in
  let g = cut_multigraph rng in
  let density () = [| 0.03; 0.1; 0.3 |].(Prng.int rng 3) in
  let th = routable_demand rng g ~p:(density ()) in
  let tl = routable_demand rng g ~p:(density ()) in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let links = Graph.undirected_link_pairs g in
  let severs matrices =
    Array.map
      (fun link ->
        Ref_failure.severed_pairs (fst (Ref_failure.fail_link g ~link)) ~matrices > 0)
      links
  in
  let want = severs [| th; tl |] and high = severs [| th |] in
  Array.iteri
    (fun i cut ->
      if cut then begin
        cov.cut <- cov.cut + 1;
        if not high.(i) then cov.low_only <- cov.low_only + 1;
        if fst links.(i) = snd links.(i) then cov.lone_arc <- cov.lone_arc + 1
      end)
    want;
  List.for_all
    (fun (name, ctx) ->
      let got = Eval_ctx.severing_links ctx in
      let swept = Failure_sweep.cut_links (Failure_sweep.sweep ~th ctx) in
      if got <> swept || got <> want then
        QCheck.Test.fail_reportf "seed %d, %s: cut set differs from the full sweep's" seed
          name;
      true)
    (contexts (g, th, tl, wh, wl))

let prop_cut_set =
  let cov = { cut = 0; low_only = 0; lone_arc = 0 } in
  QCheck.Test.make ~count:300 ~name:"cut set = full sweep's cut links (multigraphs)"
    QCheck.(int_range 1 1_000_000)
    (cut_set_matches cov)

let test_cut_set_coverage () =
  (* The generator must produce every kind of cut it is meant to. *)
  let cov = { cut = 0; low_only = 0; lone_arc = 0 } in
  for seed = 1 to 200 do
    ignore (cut_set_matches cov seed : bool)
  done;
  Alcotest.(check bool) "cut links" true (cov.cut > 0);
  Alcotest.(check bool) "cut links severing low-priority demand only" true
    (cov.low_only > 0);
  Alcotest.(check bool) "cut one-way arcs" true (cov.lone_arc > 0)

let test_cut_set_low_only () =
  (* A ring 0-1-2-3 and a stub 4 behind the bridge 3-4: the high class
     sends only across the ring, the low class from the stub too, so
     failing the bridge severs low-priority demand alone. *)
  let g =
    Graph.build ~n:5
      (List.fold_left
         (fun acc (u, v) -> Graph.add_symmetric ~capacity:100. ~delay:1. u v acc)
         [] [ (0, 1); (1, 2); (2, 3); (3, 0); (3, 4) ])
  in
  let th = Matrix.create 5 and tl = Matrix.create 5 in
  Matrix.set th 0 2 5.;
  Matrix.set tl 4 1 7.;
  let w = Weights.uniform g 10 in
  let bridge =
    let a = Option.get (Graph.find_arc g ~src:3 ~dst:4) in
    Array.find_index (fun (x, y) -> x = a || y = a) (Graph.undirected_link_pairs g)
    |> Option.get
  in
  List.iter
    (fun (name, ctx) ->
      let cut = Eval_ctx.severing_links ctx in
      Alcotest.(check (array bool)) (name ^ ": the full sweep's cut links")
        (Failure_sweep.cut_links (Failure_sweep.sweep ~th ctx))
        cut;
      Alcotest.(check (list int)) (name ^ ": only the bridge") [ bridge ]
        (List.filter (Array.get cut) (List.init (Array.length cut) Fun.id)))
    (contexts (g, th, tl, w, Array.copy w))

let test_cut_set_underflow () =
  (* The underflow diamond 0 -> {1, 2} -> 3 with a stub 4 behind the
     bridge 3-4.  The one high-priority demand, 5e-324 from 0 to 4,
     splits at 0 into halves that round to zero, so no arc carries
     load, the bridge included; failing the bridge still severs it.
     Only a context that knows its rows underflowed finds that cut. *)
  let g =
    Graph.build ~n:5
      (List.fold_left
         (fun acc (u, v) -> Graph.add_symmetric ~capacity:100. ~delay:1. u v acc)
         [] [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ])
  in
  let th = Matrix.create 5 and tl = Matrix.create 5 in
  Matrix.set th 0 4 5e-324;
  Matrix.set tl 1 2 10.;
  let w = Weights.uniform g 10 in
  List.iter
    (fun (name, ctx) ->
      Alcotest.(check (float 0.)) (name ^ ": no class-0 load") 0.
        (Array.fold_left ( +. ) 0. (Eval_ctx.loads ctx 0));
      let cut = Eval_ctx.severing_links ctx in
      Alcotest.(check (array bool)) (name ^ ": the full sweep's cut links")
        (Failure_sweep.cut_links (Failure_sweep.sweep ~th ctx))
        cut;
      Alcotest.(check int) (name ^ ": the bridge is cut") 1
        (Array.fold_left (fun n c -> if c then n + 1 else n) 0 cut))
    (contexts (g, th, tl, w, Array.copy w))

(* ------------------------------------------------------------------ *)
(* Reused class-0 passes: a robust price hands its class-0 pass to the
   next sweep while class 0's weights are the same *)

(* Commit a move of one arc of [cls]'s weight vector to a neighbouring
   weight. *)
let commit_move problem ctx ~cls =
  let w = Problem.ctx_weights_view ctx cls in
  let a = Array.length w / 2 in
  let v = if w.(a) = Weights.max_weight then w.(a) - 1 else w.(a) + 1 in
  let d = Problem.eval_delta problem ctx ~cls ~changes:[ (a, v) ] in
  ignore (Problem.commit_delta problem ctx d : Problem.solution)

(* Price the context's state with [prior] and check it, bitwise,
   against a price of the same state without a prior and against the
   penalty of a full sweep: J, the penalty, the infinite count and the
   class-0 pass.  The failure counters move as for any sweep, a reused
   pass counts once in [dtr_failure_reused_total], and the failure
   probes are the full probes of the links that reach the [top_k]-th
   primary, plus one class-0 probe per survivable link that carries
   class-0 load unless the pass is reused (the fixtures' rows never
   split a flow into zero shares).  Returns the new price. *)
let check_reuse ~what ~reused problem ctx ~top_k ~prior =
  let alpha = 0.5 in
  let normal = Problem.objective (Problem.ctx_solution problem ctx) in
  let sweep = Problem.failure_outcomes problem ctx in
  let links = Array.length sweep in
  let cut = Failure_sweep.infinite_count sweep in
  let rp, counts =
    with_metrics (fun () ->
        let rp = Problem.robust_price ~prior problem ctx ~alpha ~top_k ~normal in
        ( rp,
          List.map counter
            [
              "dtr_failure_sweeps_total";
              "dtr_failure_evals_total";
              "dtr_failure_infinite_total";
              "dtr_failure_reused_total";
              "dtr_eval_fail_probes_total";
            ] ))
  in
  let fresh = Problem.robust_price problem ctx ~alpha ~top_k ~normal in
  let lexico name (e : Lexico.t) (a : Lexico.t) =
    check_bits (what ^ ": " ^ name ^ " primary") e.Lexico.primary a.Lexico.primary;
    check_bits (what ^ ": " ^ name ^ " secondary") e.Lexico.secondary
      a.Lexico.secondary
  in
  lexico "J" fresh.Problem.rp_objective rp.Problem.rp_objective;
  lexico "penalty" fresh.Problem.rp_penalty rp.Problem.rp_penalty;
  lexico "full-sweep penalty" (Failure_sweep.penalty ~top_k sweep)
    rp.Problem.rp_penalty;
  Alcotest.(check int) (what ^ ": infinite") cut rp.Problem.rp_infinite;
  Alcotest.(check int) (what ^ ": fresh infinite") cut fresh.Problem.rp_infinite;
  Array.iteri
    (fun i p ->
      check_bits (Printf.sprintf "%s: link %d's class-0 primary" what i) p
        rp.Problem.rp_primaries.(i))
    fresh.Problem.rp_primaries;
  let h_loads = (Objective.eval (Problem.ctx_solution problem ctx).Problem.result).Evaluate.h_loads in
  let probes =
    reaching_kth ~top_k sweep
    + if reused then 0 else class0_probed problem.Problem.graph ~h_loads ~zero_shares:false sweep
  in
  Alcotest.(check (list int))
    (what ^ ": sweeps, evals, infinite, reused, failure probes")
    [ 1; links; cut; (if reused then 1 else 0); probes ]
    counts;
  rp

(* A DTR context: priced in full, then primary-first after an H
   commit; after an L commit the pass is reused; after an H commit it
   runs again; on a context rebuilt from the solution (equal weights,
   not the same arrays) it is reused. *)
let reuse_dtr ~model ~top_k ~name (g, th, tl, wh, wl) =
  let what step =
    Printf.sprintf "%s %s top_k=%d, %s" name (Objective.model_name model) top_k
      step
  in
  let problem = Problem.create ~graph:g ~th ~tl ~model in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  let start =
    Problem.robust_price problem ctx ~alpha:0.5 ~top_k
      ~normal:(Problem.objective (Problem.ctx_solution problem ctx))
  in
  commit_move problem ctx ~cls:`H;
  let first =
    check_reuse ~what:(what "after an H commit") ~reused:false problem ctx ~top_k
      ~prior:start
  in
  commit_move problem ctx ~cls:`L;
  let second =
    check_reuse ~what:(what "after an L commit") ~reused:true problem ctx ~top_k
      ~prior:first
  in
  let rebuilt = Problem.ctx_of_solution problem (Problem.ctx_solution problem ctx) in
  Alcotest.(check bool) (what "rebuilt context holds new arrays") false
    (Problem.ctx_weights_view rebuilt `H == second.Problem.rp_wh);
  ignore
    (check_reuse ~what:(what "on a rebuilt context") ~reused:true problem rebuilt
       ~top_k ~prior:second
      : Problem.robust_price);
  commit_move problem ctx ~cls:`H;
  ignore
    (check_reuse ~what:(what "after a second H commit") ~reused:false problem ctx
       ~top_k ~prior:second
      : Problem.robust_price)

(* An STR context moves its one shared vector with every commit: the
   pass is reused only at an equal vector. *)
let reuse_str ~model ~top_k ~name (g, th, tl, wh, _) =
  let what step =
    Printf.sprintf "%s str %s top_k=%d, %s" name (Objective.model_name model)
      top_k step
  in
  let problem = Problem.create ~graph:g ~th ~tl ~model in
  let _, ctx = Problem.eval_str_ctx problem ~w:wh in
  let start =
    Problem.robust_price problem ctx ~alpha:0.5 ~top_k
      ~normal:(Problem.objective (Problem.ctx_solution problem ctx))
  in
  let same =
    check_reuse ~what:(what "unmoved") ~reused:true problem ctx ~top_k ~prior:start
  in
  commit_move problem ctx ~cls:`L;
  let moved =
    check_reuse ~what:(what "after an L commit") ~reused:false problem ctx ~top_k
      ~prior:same
  in
  let rebuilt = Problem.ctx_of_solution problem (Problem.ctx_solution problem ctx) in
  ignore
    (check_reuse ~what:(what "on a rebuilt context") ~reused:true problem rebuilt
       ~top_k ~prior:moved
      : Problem.robust_price)

let reuse_instances () =
  let g, th, th2, tl, w = tie_ring () in
  List.init 12 (fun seed -> (Printf.sprintf "fixture %d" seed, fixture_instance seed))
  @ [
      ("cut links", cut_link_instance ());
      ("tie ring", (g, th, tl, w, Array.copy w));
      ("tied worst", (g, th2, tl, w, Array.copy w));
    ]

let test_reused_pass () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun model ->
          List.iter
            (fun top_k ->
              reuse_dtr ~model ~top_k ~name inst;
              reuse_str ~model ~top_k ~name inst)
            [ 1; 2 ])
        models)
    (reuse_instances ())

let test_reused_pass_random50 () =
  List.iter
    (fun model ->
      List.iter
        (fun top_k -> reuse_dtr ~model ~top_k ~name:"random50" (random50_instance ()))
        [ 1; 2 ])
    models

(* A run's first price, primary-first on the reachability cut set,
   against the full sweep's price of the same state, bitwise: J, the
   penalty, the cut links and the class-0 pass.  Its failure probes
   are one class-0 probe per survivable link that carries class-0 load
   (the fixtures' rows never split a flow into zero shares) and the full
   probes of the links that reach the [top_k]-th primary. *)
let start_matches_full ~what problem ctx ~top_k =
  let alpha = 0.5 in
  let normal = Problem.objective (Problem.ctx_solution problem ctx) in
  let sweep = Problem.failure_outcomes problem ctx in
  let h_loads = (Objective.eval (Problem.ctx_solution problem ctx).Problem.result).Evaluate.h_loads in
  let probed =
    class0_probed problem.Problem.graph ~h_loads ~zero_shares:false sweep
  in
  let full = Problem.robust_price problem ctx ~alpha ~top_k ~normal in
  let start, probes =
    with_metrics (fun () ->
        let rp = Problem.robust_start problem ctx ~alpha ~top_k ~normal in
        (rp, counter "dtr_eval_fail_probes_total"))
  in
  let lexico name (e : Lexico.t) (a : Lexico.t) =
    check_bits (what ^ ": " ^ name ^ " primary") e.Lexico.primary a.Lexico.primary;
    check_bits (what ^ ": " ^ name ^ " secondary") e.Lexico.secondary
      a.Lexico.secondary
  in
  lexico "J" full.Problem.rp_objective start.Problem.rp_objective;
  lexico "penalty" full.Problem.rp_penalty start.Problem.rp_penalty;
  Alcotest.(check (array bool)) (what ^ ": cut links") full.Problem.rp_cut
    start.Problem.rp_cut;
  Alcotest.(check int) (what ^ ": infinite") full.Problem.rp_infinite
    start.Problem.rp_infinite;
  Array.iteri
    (fun i p ->
      check_bits (Printf.sprintf "%s: link %d's class-0 primary" what i) p
        start.Problem.rp_primaries.(i))
    full.Problem.rp_primaries;
  Alcotest.(check bool) (what ^ ": class-0 weights") true
    (full.Problem.rp_wh = start.Problem.rp_wh);
  Alcotest.(check int) (what ^ ": failure probes")
    (probed + reaching_kth ~top_k sweep)
    probes;
  full.Problem.rp_infinite

let test_start_matches_full () =
  let cut_seen = ref 0 in
  List.iter
    (fun (name, (g, th, tl, wh, wl)) ->
      List.iter
        (fun model ->
          let problem = Problem.create ~graph:g ~th ~tl ~model in
          List.iter
            (fun (kind, ctx) ->
              List.iter
                (fun top_k ->
                  let what =
                    Printf.sprintf "%s %s %s top_k=%d" name kind
                      (Objective.model_name model) top_k
                  in
                  if start_matches_full ~what problem ctx ~top_k > 0 then
                    incr cut_seen)
                [ 1; 2 ])
            [
              ("dtr", snd (Problem.eval_dtr_ctx problem ~wh ~wl));
              ("str", snd (Problem.eval_str_ctx problem ~w:wh));
            ])
        models)
    (reuse_instances ());
  Alcotest.(check bool) "instances with cut links" true (!cut_seen > 0)

(* ------------------------------------------------------------------ *)
(* Flow-screened failure probes: a failure probe repairs a destination
   only when a failed arc carries priced flow toward it *)

(* Every link failure of [ctx] (weights [wh], [wl]), by a class-0 and a
   full probe, against Ref_failure on the reduced graph rebuilt from
   scratch: the priced classes' severed pairs; when none, the primary
   (Φ_H, or Λ walked over [probe_dags]) and the full probe's Φ_L,
   bitwise; and, at every node with positive flow of a priced class
   toward a destination, the failure dag's label and next-hop set.  The
   class-0 probe is held to the oracle without low-priority demand,
   which leaves Φ_H and Λ as they are. *)
let screen_matches_scratch ~what ~model ctx (g, th, tl, wh, wl) =
  let n = Graph.node_count g in
  let no_low = Matrix.create n in
  Array.iteri
    (fun i link ->
      let reduced, mapping = Ref_failure.fail_link g ~link in
      List.iter
        (fun (priced, tl) ->
          let what =
            Printf.sprintf "%s %s link %d, %d classes" what
              (Objective.model_name model) i priced
          in
          let oracle = Ref_failure.oracle ~model g ~wh ~wl ~th ~tl ~link in
          let f = Eval_ctx.fail_probe ~classes:priced ctx ~arcs:(link_arcs link) in
          Alcotest.(check int) (what ^ ": severed pairs")
            oracle.Failure_sweep.unreachable_pairs (Eval_ctx.probe_unreachable f);
          if Failure_sweep.is_finite oracle then begin
            check_bits (what ^ ": primary") oracle.Failure_sweep.cost.Lexico.primary
              (Eval_ctx.probe_primary ~model ~th ctx f);
            if priced = 2 then
              check_bits (what ^ ": Φ_L") oracle.Failure_sweep.cost.Lexico.secondary
                (Eval_ctx.probe_phi f).(1);
            for k = 0 to priced - 1 do
              let w = Ref_failure.remap_weights (if k = 0 then wh else wl) mapping in
              let fresh = Spf.all_destinations reduced ~weights:w in
              let dags = Eval_ctx.probe_dags ctx f k in
              let hops set = List.sort compare (Array.to_list set) in
              for dst = 0 to n - 1 do
                let demand_to_dst = Eval_ctx.demand_view ctx ~klass:k ~dst in
                if Array.length demand_to_dst > 0 then
                  Array.iteri
                    (fun x flow ->
                      let want = fresh.(dst) and got = dags.(dst) in
                      if
                        flow > 0.
                        && (want.Spf.dist.(x) <> got.Spf.dist.(x)
                           || hops (Array.map (fun a -> mapping.(a)) want.Spf.next_arcs.(x))
                              <> hops got.Spf.next_arcs.(x))
                      then
                        Alcotest.failf
                          "%s: class %d, node %d to %d: label or next hops differ" what k
                          x dst)
                    (Ref_loads.node_throughflow reduced ~dag:fresh.(dst) ~demand_to_dst)
              done
            done
          end)
        [ (1, no_low); (2, tl) ])
    (Graph.undirected_link_pairs g)

(* Sparse high-priority demand leaves most failed arcs without class-0
   flow: density 0.05, or a single pair. *)
let sparse_instances ?(graph = fixture) seed =
  let g = graph seed in
  let n = Graph.node_count g in
  let rng = Prng.create ((seed * 29) + 3) in
  let tl = Gravity.generate rng ~n Gravity.default in
  let sparse = Highpri.random_pairs rng ~n ~density:0.05 in
  let src = Prng.int_incl rng 0 (n - 1) in
  let dst = (src + 1 + Prng.int_incl rng 0 (n - 2)) mod n in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  List.map
    (fun pairs -> (g, Highpri.volumes rng ~low:tl ~fraction:0.3 ~pairs, tl, wh, wl))
    [ sparse; [ (src, dst) ] ]

(* [screen_matches_scratch] on every instance, in a DTR and an STR
   context, under both models; the screen must have skipped repairs. *)
let screen_matches_scratch_on what instances =
  with_metrics (fun () ->
      List.iter
        (fun model ->
          List.iter
            (fun (what, ((g, th, tl, wh, wl) as inst)) ->
              List.iter
                (fun (name, ctx) ->
                  let wl = if name = "str" then wh else wl in
                  screen_matches_scratch ~what:(name ^ " " ^ what) ~model ctx
                    (g, th, tl, wh, wl))
                (contexts inst))
            instances)
        models;
      Alcotest.(check bool) (what ^ ": the screen skipped repairs") true
        (counter "dtr_failure_screened_total" > 0))

let test_screen_matches_scratch () =
  screen_matches_scratch_on "fixtures"
    (List.concat_map
       (fun seed ->
         List.map (fun inst -> (Printf.sprintf "seed %d" seed, inst)) (sparse_instances seed))
       (List.init 12 Fun.id))

let test_screen_matches_scratch_random50 () =
  let graph _ =
    let g, _, _, _, _ = random50_instance () in
    g
  in
  screen_matches_scratch_on "random50"
    [ ("random50", List.hd (sparse_instances ~graph 50)) ]

let test_screen_underflow () =
  (* A diamond 0 -> {1, 2} -> 3, every link both ways.  The one
     high-priority demand, 5e-324 (the least subnormal) from 0 to 3,
     splits at node 0 into halves that round to zero under equal
     weights: node 0 carries flow and no arc does.  Failing any link
     sends it whole down the other branch, so Φ_H is two arcs of
     5e-324.  A screen that took the zero shares for "no flow" would
     keep every dag and price every failure at 0.  The context first
     routes class 0 over 0-1-3 alone, where nothing underflows, and
     commits the equal weights: the commit, a clone and a sync must
     all carry the underflow along. *)
  let arc src dst = { Graph.src; dst; capacity = 100.; delay = 1. } in
  let g =
    Graph.build ~n:4
      (List.concat_map
         (fun (a, b) -> [ arc a b; arc b a ])
         [ (0, 1); (0, 2); (1, 3); (2, 3) ])
  in
  let th = Matrix.create 4 and tl = Matrix.create 4 in
  Matrix.set th 0 3 5e-324;
  Matrix.set tl 1 2 10.;
  Matrix.set tl 3 0 5.;
  let w = Weights.uniform g 10 in
  let detour = Option.get (Graph.find_arc g ~src:0 ~dst:2) in
  let start = Array.copy w in
  start.(detour) <- 11;
  let ctx = Eval_ctx.create g ~weights:[| start; Array.copy w |] ~matrices:[| th; tl |] in
  let early_clone = Eval_ctx.clone ctx in
  let check_failures what ctx ~wh =
    Array.iteri
      (fun i link ->
        let oracle = Ref_failure.oracle ~model:Objective.Load g ~wh ~wl:w ~th ~tl ~link in
        List.iter
          (fun priced ->
            let what = Printf.sprintf "%s link %d, %d classes" what i priced in
            let f = Eval_ctx.fail_probe ~classes:priced ctx ~arcs:(link_arcs link) in
            let phi = Eval_ctx.probe_phi f and cost = oracle.Failure_sweep.cost in
            check_bits (what ^ ": Φ_H") cost.Lexico.primary phi.(0);
            if priced = 2 then check_bits (what ^ ": Φ_L") cost.Lexico.secondary phi.(1))
          [ 1; 2 ])
      (Graph.undirected_link_pairs g)
  in
  check_failures "one path" ctx ~wh:start;
  Eval_ctx.commit ctx (Eval_ctx.probe ctx ~klass:0 ~changes:[ (detour, 10) ]);
  check_bits "split: no arc carries Φ_H" 0. (Eval_ctx.phi ctx).(0);
  Array.iteri
    (fun i link ->
      check_bits
        (Printf.sprintf "oracle link %d: Φ_H" i)
        0x0.0000000000002p-1022
        (Ref_failure.oracle ~model:Objective.Load g ~wh:w ~wl:w ~th ~tl ~link)
          .Failure_sweep.cost.Lexico.primary)
    (Graph.undirected_link_pairs g);
  check_failures "split" ctx ~wh:w;
  check_failures "clone" (Eval_ctx.clone ctx) ~wh:w;
  Eval_ctx.sync ~src:ctx ~dst:early_clone;
  check_failures "synced clone" early_clone ~wh:w;
  let fresh = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  check_failures "fresh" fresh ~wh:w

(* ------------------------------------------------------------------ *)
(* Flow-screened weight probes: a weight probe repairs a dirty
   destination only where its change list can move flow of the probed
   group, and its commit repairs the rest *)

let hops set = List.sort compare (Array.to_list set)

(* At every node with positive flow of class [k] toward a destination
   (walked over [fresh], the from-scratch dags), [dags] carry
   [fresh]'s label and next-hop set. *)
let check_flow_nodes ~what g ctx k ~fresh dags =
  for dst = 0 to Graph.node_count g - 1 do
    let demand_to_dst = Eval_ctx.demand_view ctx ~klass:k ~dst in
    if Array.length demand_to_dst > 0 then
      Array.iteri
        (fun x flow ->
          let want = fresh.(dst) and got = dags.(dst) in
          if
            flow > 0.
            && (want.Spf.dist.(x) <> got.Spf.dist.(x)
               || hops want.Spf.next_arcs.(x) <> hops got.Spf.next_arcs.(x))
          then
            Alcotest.failf "%s: class %d, node %d to %d: label or next hops differ" what k x
              dst)
        (Ref_loads.node_throughflow g ~dag:fresh.(dst) ~demand_to_dst)
  done

let sla_lambda ~th ctx =
  (Dtr_oracle.Ref_evaluate.ctx_sla Dtr_cost.Sla.default ~th ctx).Evaluate.lambda

(* Screen coverage over a run: dirty destinations deferred under a
   single drop and under a single raise, and probes whose class-0
   flows stayed put (so Λ is the context's). *)
type coverage = { mutable by_drop : int; mutable by_raise : int; mutable kept : int }

(* A run of screened weight probes on [ctx] (classes [th], [tl]), half
   of them committed, each held to a context built from scratch at the
   probed weights: Φ and every Fortz row bitwise, Λ walked over the
   probe's views bitwise, the context's own Λ bitwise when the probe
   keeps class 0's flows, and the probe's labels and next-hop sets at
   every flow-carrying node.  After a commit every dag of the context
   equals a from-scratch SPF at every node. *)
let weight_screen_matches_fresh ~what ~str rng cov ctx (g, th, tl) =
  let matrices = [| th; tl |] in
  for step = 1 to 40 do
    let klass = if str then 0 else Prng.int rng 2 in
    let kind, changes = Narrow_moves.changes rng (Eval_ctx.weights_view ctx klass) in
    let what = Printf.sprintf "%s step %d" what step in
    let before = counter "dtr_spf_delta_deferred_total" in
    let p = Eval_ctx.probe ctx ~klass ~changes in
    let deferred = counter "dtr_spf_delta_deferred_total" - before in
    (match kind with
    | Narrow_moves.Drop -> cov.by_drop <- cov.by_drop + deferred
    | Raise -> cov.by_raise <- cov.by_raise + deferred
    | Move | Two_drops -> ());
    let probed k =
      if Eval_ctx.shares_group ctx k klass then
        let w = Eval_ctx.weights ctx k in
        List.iter (fun (a, v) -> w.(a) <- v) changes;
        w
      else Eval_ctx.weights ctx k
    in
    let weights =
      if str then
        let w = probed 0 in
        [| w; w |]
      else [| probed 0; probed 1 |]
    in
    let fresh = Eval_ctx.create g ~weights ~matrices in
    let phi = Eval_ctx.probe_phi p and want = Eval_ctx.phi fresh in
    for k = 0 to 1 do
      check_bits (Printf.sprintf "%s: Φ_%d" what k) want.(k) phi.(k);
      let row = Eval_ctx.probe_phi_row ctx p k in
      Array.iteri
        (fun a x -> check_bits (Printf.sprintf "%s: Φ_%d arc %d" what k a) x row.(a))
        (Eval_ctx.phi_per_arc fresh k);
      check_flow_nodes ~what g ctx k ~fresh:(Eval_ctx.dags fresh k)
        (Eval_ctx.probe_dags ctx p k)
    done;
    let lambda = sla_lambda ~th fresh in
    check_bits (what ^ ": Λ walked")
      lambda
      (Eval_ctx.probe_primary ~model:(Objective.Sla Dtr_cost.Sla.default) ~th ctx p);
    if Eval_ctx.probe_keeps_flows ctx p 0 then begin
      if klass = 0 || str then cov.kept <- cov.kept + 1;
      check_bits (what ^ ": Λ kept") lambda (sla_lambda ~th ctx)
    end;
    if Prng.bool rng then begin
      Eval_ctx.commit ctx p;
      check_bits (what ^ ": committed Φ_H") want.(0) (Eval_ctx.phi ctx).(0);
      for k = 0 to 1 do
        let fresh = Eval_ctx.dags fresh k in
        Array.iteri
          (fun dst (d : Spf.dag) ->
            let c = (Eval_ctx.dags ctx k).(dst) in
            if
              c.Spf.dist <> d.Spf.dist
              || c.Spf.next_arcs <> d.Spf.next_arcs
              || c.Spf.order_desc <> d.Spf.order_desc
            then Alcotest.failf "%s: committed class-%d dag to %d is stale" what k dst)
          fresh
      done
    end
  done

(* Sparse class-0 demand (density 0.05, or one pair) on the fixtures,
   with narrow weights, in a DTR and an STR context each. *)
let test_weight_screen_matches_fresh () =
  let cov = { by_drop = 0; by_raise = 0; kept = 0 } in
  with_metrics (fun () ->
      for seed = 0 to 47 do
        let g = fixture seed in
        let n = Graph.node_count g in
        let rng = Prng.create ((seed * 31) + 7) in
        let tl = Gravity.generate rng ~n Gravity.default in
        let single =
          let src = Prng.int_incl rng 0 (n - 1) in
          [ (src, (src + 1 + Prng.int_incl rng 0 (n - 2)) mod n) ]
        in
        List.iter
          (fun pairs ->
            let th = Highpri.volumes rng ~low:tl ~fraction:0.3 ~pairs in
            let wh = Narrow_moves.weights rng g and wl = Narrow_moves.weights rng g in
            List.iter
              (fun str ->
                let weights = if str then [| wh; wh |] else [| wh; wl |] in
                let ctx = Eval_ctx.create g ~weights ~matrices:[| th; tl |] in
                weight_screen_matches_fresh
                  ~what:(Printf.sprintf "seed %d %s %d pairs" seed
                           (if str then "str" else "dtr") (List.length pairs))
                  ~str rng cov ctx (g, th, tl))
              [ false; true ])
          [ Highpri.random_pairs rng ~n ~density:0.05; single ]
      done);
  Alcotest.(check bool)
    (Printf.sprintf "%d destinations deferred under a drop" cov.by_drop)
    true (cov.by_drop > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d destinations deferred under a raise" cov.by_raise)
    true (cov.by_raise > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d class-0 probes kept the context's Λ" cov.kept)
    true (cov.kept > 0)

let test_weight_screen_underflow () =
  (* The diamond of [test_screen_underflow] with a second branch
     1 -> 4 -> 3 one unit longer than 1 -> 3, and 20 ms on every link,
     so the pair 0 -> 3 (5e-324, split at node 0 into two halves that
     round to zero) misses the 25 ms bound.  The context's committed
     rows underflowed, so weight probes must repair every dirty
     destination and walk Λ.  Raising 1 -> 3 sends the demand whole
     down 0-2-3 although no arc carried a share of it (a screen would
     price Φ_H at 0).  Dropping 4 -> 3 ties node 1's two branches:
     every class-0 row stays zero, yet the pair's expected delay moves.
     The underflow comes from [create], from the commit that first
     splits the demand, through a clone of that context, and through a
     sync of a clone taken before the commit.  Then, in an STR context
     where class 1 carries the split demand and class 0 an untouched
     pair, a probe whose class-1 split underflows keeps no Λ although
     its class-0 rows stay put. *)
  let arc src dst = { Graph.src; dst; capacity = 100.; delay = 20. } in
  let g =
    Graph.build ~n:5
      (List.concat_map
         (fun (a, b) -> [ arc a b; arc b a ])
         [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4); (4, 3) ])
  in
  let find src dst = Option.get (Graph.find_arc g ~src ~dst) in
  let th = Matrix.create 5 and tl = Matrix.create 5 in
  Matrix.set th 0 3 5e-324;
  Matrix.set tl 1 2 10.;
  Matrix.set tl 3 0 5.;
  let w = Weights.uniform g 10 in
  w.(find 1 4) <- 5;
  w.(find 4 3) <- 6;
  let w' = Array.copy w in
  w'.(find 0 2) <- 11;
  let sla = Objective.Sla Dtr_cost.Sla.default in
  let problem = Problem.create ~graph:g ~th ~tl ~model:sla in
  with_metrics (fun () ->
      let _, pctx = Problem.eval_dtr_ctx problem ~wh:w ~wl:(Array.copy w) in
      let matrices = [| th; tl |] in
      let one_path = Eval_ctx.create g ~weights:[| w'; Array.copy w |] ~matrices in
      let early_clone = Eval_ctx.clone one_path in
      Eval_ctx.commit one_path
        (Eval_ctx.probe one_path ~klass:0 ~changes:[ (find 0 2, 10) ]);
      Eval_ctx.sync ~src:one_path ~dst:early_clone;
      List.iter
        (fun (name, ctx) ->
          List.iter
            (fun (what, changes, (moves_phi, moves_lambda)) ->
              let what = name ^ ", " ^ what in
              let wh = Array.copy w in
              List.iter (fun (a, v) -> wh.(a) <- v) changes;
              let fresh = Eval_ctx.create g ~weights:[| wh; w |] ~matrices in
              let before = counter "dtr_spf_delta_deferred_total" in
              let p = Eval_ctx.probe ctx ~klass:0 ~changes in
              Alcotest.(check int) (what ^ ": nothing deferred") before
                (counter "dtr_spf_delta_deferred_total");
              let phi_h = (Eval_ctx.phi fresh).(0) in
              check_bits (what ^ ": Φ_H") phi_h (Eval_ctx.probe_phi p).(0);
              let moved x y = Int64.bits_of_float x <> Int64.bits_of_float y in
              Alcotest.(check bool) (what ^ ": the move shifts Φ_H") moves_phi
                (moved phi_h (Eval_ctx.phi ctx).(0));
              let lambda = sla_lambda ~th fresh in
              check_bits (what ^ ": Λ walked") lambda
                (Eval_ctx.probe_primary ~model:sla ~th ctx p);
              Alcotest.(check bool) (what ^ ": Λ not kept") false
                (Eval_ctx.probe_keeps_flows ctx p 0);
              Alcotest.(check bool) (what ^ ": the move shifts Λ") moves_lambda
                (moved lambda (sla_lambda ~th ctx));
              let d = Problem.eval_delta problem pctx ~cls:`H ~changes in
              check_bits (what ^ ": Problem's Λ") lambda
                (Problem.delta_objective d).Lexico.primary)
            [
              ("raise 1-3", [ (find 1 3, 12) ], (true, false));
              ("drop 4-3", [ (find 4 3, 5) ], (false, true));
            ])
        [
          ("created", Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices);
          ("committed", one_path);
          ("clone", Eval_ctx.clone one_path);
          ("synced", early_clone);
        ];
      Alcotest.(check int) "no Λ kept" 0 (counter "dtr_sla_lambda_reused_total");
      let w' = Array.copy w in
      w'.(find 0 2) <- 11;
      let th' = Matrix.create 5 in
      Matrix.set th' 1 3 1.;
      let str = Eval_ctx.create g ~weights:[| w'; w' |] ~matrices:[| th'; th |] in
      Alcotest.(check bool) "str: the committed rows did not underflow" true
        (Eval_ctx.probe_keeps_flows str (Eval_ctx.probe str ~klass:0 ~changes:[]) 0);
      let p = Eval_ctx.probe str ~klass:0 ~changes:[ (find 0 2, 10) ] in
      check_bits "str: Φ_H unchanged" (Eval_ctx.phi str).(0) (Eval_ctx.probe_phi p).(0);
      Alcotest.(check bool) "str: class-1 split underflowed, Λ not kept" false
        (Eval_ctx.probe_keeps_flows str p 0))

(* ------------------------------------------------------------------ *)
(* Memo key consistency across commits (Vmemo hit-rate soft spot) *)

let small_problem seed =
  let g = fixture ((4 * seed) + 1) in
  let rng = Prng.create (seed + 100) in
  let th, tl = random_matrices rng g in
  Problem.create ~graph:g ~th ~tl ~model:Objective.Load

let test_memo_keys_stable_across_commit () =
  (* Scan keys are Zobrist hashes shifted from a rehash of the
     context's *current* vectors, taken fresh each scan
     (Problem.ctx_base_key) — so a candidate revisited from a
     different incumbent must produce the same key and hit the memo.
     Exact counts: n misses on the first scan, n hits when re-scanned
     unchanged, and n hits again after a commit moved the incumbent
     onto one of the scanned settings. *)
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

let robust_cfg ?(top_k = 1) alpha =
  { tiny_cfg with Search_config.robust = Some { Search_config.alpha; top_k } }

let test_robust_config_validation () =
  Alcotest.check_raises "negative alpha rejected"
    (Invalid_argument "Search_config: robust alpha must be non-negative")
    (fun () -> Search_config.validate (robust_cfg (-1.)));
  (* inf * a zero penalty is NaN: J would be NaN whenever every
     failure is cut. *)
  Alcotest.check_raises "infinite alpha rejected"
    (Invalid_argument "Search_config: robust alpha must be finite")
    (fun () -> Search_config.validate (robust_cfg Float.infinity));
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

let test_handoff_keeps_best_sweep () =
  (* Routine 2 starts at the best, whose sweep the run keeps as its
     prior: the hand-off sweeps nothing, every sweep is a traced event,
     and the reported J is still the best's, repriced in full. *)
  let module Trace = Dtr_core.Trace in
  let problem = small_problem 2 in
  let alpha = 0.5 in
  List.iter
    (fun top_k ->
      let trace = Trace.ring () in
      let report, sweeps =
        with_metrics (fun () ->
            let r =
              Dtr_core.Dtr_search.run ~trace (Prng.create 6) (robust_cfg ~top_k alpha)
                problem
            in
            (r, counter "dtr_failure_sweeps_total"))
      in
      let events = Trace.events trace in
      let rec after_handoff = function
        | (e : Trace.event) :: next :: _
          when e.Trace.kind = Trace.Phase_done && e.Trace.detail = 0 ->
            next
        | _ :: rest -> after_handoff rest
        | [] -> Alcotest.fail "no routine-1 phase_done event"
      in
      Alcotest.(check bool) "no sweep at the hand-off" false
        ((after_handoff events).Trace.kind = Trace.Robust_sweep);
      Alcotest.(check int) "one event per sweep" sweeps
        (List.length
           (List.filter (fun (e : Trace.event) -> e.Trace.kind = Trace.Robust_sweep) events));
      let best = report.Dtr_core.Dtr_search.best in
      let rp =
        Problem.robust_price problem (Problem.ctx_of_solution problem best) ~alpha ~top_k
          ~normal:(Problem.objective best)
      in
      Alcotest.(check int) "reported J is the best's" 0
        (Lexico.compare report.Dtr_core.Dtr_search.objective rp.Problem.rp_objective))
    [ 1; 2 ]

let test_robust_search_jobs_invariance () =
  (* Robust sweeps run at deterministic trajectory points with
     link-ordered chunk reassembly, so a multistart at 1 domain and 4
     must pick the same winner with the same robust objective. *)
  let module Multistart = Dtr_core.Multistart in
  let problem = small_problem 2 in
  let cfg = robust_cfg 1.0 in
  let run jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    Multistart.run ~pool ~restarts:3 ~algo:Multistart.Dtr (Prng.create 4) cfg
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
    (fun (algo, top_k) ->
      let r =
        Multistart.run ~restarts:3 ~algo (Prng.create 4)
          (robust_cfg ~top_k alpha) problem
      in
      let js =
        Array.map
          (fun (x : Multistart.restart) ->
            let sol = x.Multistart.solution in
            let rp =
              Problem.robust_price problem
                (Problem.ctx_of_solution problem sol)
                ~alpha ~top_k ~normal:(Problem.objective sol)
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
    [
      (Multistart.Str, 1);
      (Multistart.Dtr, 1);
      (Multistart.Str, 2);
      (Multistart.Dtr, 2);
    ]

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
          Alcotest.test_case "the DTR hand-off keeps the best's sweep" `Quick
            test_handoff_keeps_best_sweep;
        ] );
      ( "primary-first",
        [
          Alcotest.test_case "class-0 probe = full probe (bitwise)" `Quick
            test_class0_probe_matches_full;
          Alcotest.test_case "penalty = full sweep's (bitwise)" `Quick
            test_primary_first_penalty;
          Alcotest.test_case "penalty with cut links" `Quick
            test_primary_first_penalty_cut_links;
          Alcotest.test_case "ties send more than top_k to the full probe"
            `Quick test_primary_first_penalty_ties;
          Alcotest.test_case "rejects a wrong cut set" `Quick
            test_robust_penalty_rejects;
          Alcotest.test_case "start price = full sweep's price (bitwise)" `Quick
            test_start_matches_full;
        ] );
      ( "cut-set",
        [
          QCheck_alcotest.to_alcotest prop_cut_set;
          Alcotest.test_case "the generator covers every kind of cut" `Quick
            test_cut_set_coverage;
          Alcotest.test_case "low-priority demand severed alone" `Quick
            test_cut_set_low_only;
          Alcotest.test_case "underflowed rows keep every link searched" `Quick
            test_cut_set_underflow;
        ] );
      ( "reused-pass",
        [
          Alcotest.test_case "reused while W_H is unchanged (bitwise)" `Quick
            test_reused_pass;
          Alcotest.test_case "reused while W_H is unchanged, 50 nodes" `Slow
            test_reused_pass_random50;
        ] );
      ( "flow-screen",
        [
          Alcotest.test_case "screened probes = reduced graph (bitwise)" `Quick
            test_screen_matches_scratch;
          Alcotest.test_case "screened probes = reduced graph, 50 nodes" `Slow
            test_screen_matches_scratch_random50;
          Alcotest.test_case "an underflowed split keeps the screen off" `Quick
            test_screen_underflow;
          Alcotest.test_case "screened weight probes = fresh context (bitwise)" `Quick
            test_weight_screen_matches_fresh;
          Alcotest.test_case "an underflowed split keeps weight probes unscreened"
            `Quick test_weight_screen_underflow;
        ] );
    ]
