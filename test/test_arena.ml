(* The probe arena: candidates (scan cost reads, committable probes,
   failure probes) are computed into context-owned scratch and only a
   committed winner is copied out.  Checked here:

   - allocation: after a warm-up pass, cost reads and failure probes
     on a network with n and m above the minor-heap size limit
     allocate nothing directly in the major heap, and a commit
     allocates there only the arc-indexed rows it replaces, the same
     number of them whatever the number of nodes off the demand core;
   - equivalence: under random interleavings of cost reads, commits,
     failure probes and syncs on a context and its clone, every cost
     equals a from-scratch evaluation and every failure the
     reduced-graph oracle, bitwise; and where the classes' demand
     cores differ, so arena rows pass between groups with different
     core arcs, every probe and commit equals a fresh context bitwise,
     contribution rows included;
   - the kept best: after a search run's hand-off or return to its
     best, the context equals a fresh one at the best's weights, and so
     does the next probe on it;
   - hygiene: one lifetime rule for weight and failure probes — a
     probe refused by its checks leaves the earlier probe committable,
     a probe's views go stale at the context's next probe, failure
     probe, commit or sync, and no context accepts another's probe;
   - the scratch SPF path equals the pure one, and the searches'
     change lists equal the weight diffs they replace. *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Weights = Dtr_routing.Weights
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx
module Objective = Dtr_routing.Objective
module Failure_sweep = Dtr_routing.Failure_sweep
module Sla = Dtr_cost.Sla
module Lexico = Dtr_cost.Lexico
module Metrics = Dtr_util.Metrics
module Problem = Dtr_core.Problem
module Scan = Dtr_core.Scan
module Neighborhood = Dtr_core.Neighborhood
module Search_config = Dtr_core.Search_config
module Incumbent = Dtr_core.Incumbent
module Dtr_search = Dtr_core.Dtr_search

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let random_graph seed =
  let rec go attempt =
    let rng = Prng.create (seed + (1000 * attempt)) in
    let g =
      match (seed + attempt) mod 3 with
      | 0 ->
          Dtr_topology.Waxman.generate rng
            { Dtr_topology.Waxman.default with nodes = 12 }
      | 1 ->
          Dtr_topology.Power_law.generate rng
            { Dtr_topology.Power_law.default with nodes = 12; m0 = 4; m = 2 }
      | _ ->
          Dtr_topology.Random_topo.generate rng
            { Dtr_topology.Random_topo.default with nodes = 12; links = 22 }
    in
    if Graph.is_strongly_connected g then g
    else if attempt > 50 then Alcotest.fail "no connected topology found"
    else go (attempt + 1)
  in
  go 0

let random_matrices rng g =
  let n = Graph.node_count g in
  let tl = Gravity.generate rng ~n Gravity.default in
  let pairs = Highpri.random_pairs rng ~n ~density:0.2 in
  let th = Highpri.volumes rng ~low:tl ~fraction:0.3 ~pairs in
  (th, tl)

let model_of seed = if seed mod 2 = 0 then Objective.Load else Objective.Sla Sla.default

let random_changes rng w =
  let rec go acc k =
    if k = 0 then acc
    else
      let arc = Prng.int rng (Array.length w) in
      let v = Prng.int_incl rng Weights.min_weight Weights.max_weight in
      if List.mem_assoc arc acc || v = w.(arc) then go acc k
      else go ((arc, v) :: acc) (k - 1)
  in
  go [] (Prng.int_incl rng 1 2)

let apply w changes =
  let w' = Array.copy w in
  List.iter (fun (a, v) -> w'.(a) <- v) changes;
  w'

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_float ~what expected actual =
  if not (same_float expected actual) then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

let check_lex ~what (e : Lexico.t) (a : Lexico.t) =
  check_float ~what:(what ^ " primary") e.Lexico.primary a.Lexico.primary;
  check_float ~what:(what ^ " secondary") e.Lexico.secondary a.Lexico.secondary

(* ------------------------------------------------------------------ *)
(* (a) Allocation gate *)

(* Words allocated directly in the major heap by [f]: every major-heap
   word that was not promoted from the minor heap.  Blocks above the
   minor-heap size limit (256 words) take this path, so a probe that
   copies an n- or m-length row shows up here. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* A network with PoP-style demand whose n and m both exceed 256, as on
   the large presets: a 300-node Barabási–Albert graph with 1800-odd
   arcs and twelve spread PoPs, whose demand core is the whole graph;
   or a 304-node transit–stub one with 636 arcs and its eight
   highest-degree nodes as PoPs (the four transit routers and four
   stub gateways), where every other stub node is off the core and
   probes repair on the core's 8-node, 20-arc graph. *)
let large_problem ?(transit_stub = false) ~model () =
  let rng = Prng.create 11 in
  let g =
    if transit_stub then
      Dtr_topology.Transit_stub.generate rng
        { Dtr_topology.Transit_stub.default with stubs_per_transit = 3; stub_size = 25 }
    else
      Dtr_topology.Power_law.generate_ba ~hub_capacity:1000. ~hub_degree:20 rng
        {
          Dtr_topology.Power_law.nodes = 300;
          m0 = 8;
          m = 3;
          capacity = 100.;
          delay_range = (1., 5.);
        }
  in
  let n = Graph.node_count g in
  let pops =
    if transit_stub then Dtr_topology.Power_law.top_degree_nodes g 8
    else Array.init 12 (fun i -> i * (n / 12))
  in
  let tl = Gravity.generate_pop (Prng.create 5) ~n ~pops Gravity.default in
  let th = Matrix.scale tl 0.3 in
  Problem.create ~graph:g ~th ~tl ~model

let allocation_gate ?transit_stub ~model () =
  let problem = large_problem ?transit_stub ~model () in
  let g = problem.Problem.graph in
  Alcotest.(check bool) "n above 256" true (Graph.node_count g > 256);
  Alcotest.(check bool) "m above 256" true (Graph.arc_count g > 256);
  (* The PoPs sink and source every demand of both classes. *)
  let endpoints = Array.make (Graph.node_count g) false in
  Matrix.iter problem.Problem.tl (fun s t _ ->
      endpoints.(s) <- true;
      endpoints.(t) <- true);
  Alcotest.(check bool) "off-core nodes" (transit_stub = Some true)
    (Array.exists Fun.id (Graph.off_core g ~endpoints));
  let rng = Prng.create 3 in
  let m = Graph.arc_count g in
  let wh = Array.init m (fun _ -> Prng.int_incl rng 5 25) in
  let wl = Array.init m (fun _ -> Prng.int_incl rng 5 25) in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  (* Failure probes run on a bare context of the same setting. *)
  let ec =
    Eval_ctx.create g ~weights:[| wh; wl |]
      ~matrices:[| problem.Problem.th; problem.Problem.tl |]
  in
  let candidates =
    Array.init 40 (fun i ->
        let cls = if i mod 2 = 0 then `H else `L in
        let w = if cls = `H then wh else wl in
        (cls, random_changes rng w))
  in
  let links = Graph.undirected_link_pairs g in
  let failures = Array.init 12 (fun i -> links.(i * Array.length links / 12)) in
  let sink = ref 0. in
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  let pass () =
    (* Cost reads: the scan engine's candidates, one dispatch per
       class, and single probes through Problem. *)
    List.iter
      (fun cls ->
        let mine = List.filter (fun (c, _) -> c = cls) (Array.to_list candidates) in
        let mine = Array.of_list (List.map snd mine) in
        let s =
          Scan.evaluate scan ctx ~cls ~changes_of:(fun i -> mine.(i))
            (Array.length mine)
        in
        sink := !sink +. s.(0).Scan.objective.Lexico.primary)
      [ `H; `L ];
    Array.iter
      (fun (cls, changes) ->
        let d = Problem.eval_delta problem ctx ~cls ~changes in
        sink := !sink +. (Problem.delta_objective d).Lexico.primary)
      candidates;
    (* Failure probes, priced as Failure_sweep prices them. *)
    Array.iter
      (fun (a, b) ->
        let arcs = if a = b then [ a ] else [ a; b ] in
        let f = Eval_ctx.fail_probe ec ~arcs in
        if Eval_ctx.probe_unreachable f = 0 then
          sink :=
            !sink +. (Eval_ctx.probe_phi f).(1)
            +. Eval_ctx.probe_primary ~model ~th:problem.Problem.th ec f)
      failures
  in
  pass ();
  let words = direct_major_words pass in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.)) "words allocated directly in the major heap" 0. words;
  (* On an identity core the graph-id views are the stored arrays. *)
  if transit_stub <> Some true then
    Alcotest.(check bool) "dag views are the stored arrays" true
      (Eval_ctx.dags ec 0 == Eval_ctx.dags ec 0
      && Lazy.force (Eval_ctx.to_evaluate ec).Evaluate.dags_l == Eval_ctx.dags ec 1)

(* An 8-node core (a ring and two chords, 20 arcs, numbered first) with
   a stub tree of [stub] nodes hung off each core node by a single
   uplink, and demand of both classes between the core nodes only: the
   stubs are off the demand core, whatever their size. *)
let stubbed_core ~stub =
  let core_links = List.init 8 (fun v -> (v, (v + 1) mod 8)) @ [ (0, 4); (2, 6) ] in
  let n = 8 + (8 * stub) in
  let link (u, v) = Graph.add_symmetric ~capacity:100. ~delay:1. u v [] in
  let stubs =
    List.init (8 * stub) (fun i ->
        let v = 8 + i and first = 8 + (stub * (i / stub)) in
        (* Node [first] hangs off its core node; every later one off an
           earlier node of its tree. *)
        if v = first then (i / stub, v) else (first + ((v - first - 1) / 2), v))
  in
  let g = Graph.build ~n (List.concat_map link (core_links @ stubs)) in
  let th = Matrix.create_sparse n and tl = Matrix.create_sparse n in
  for s = 0 to 7 do
    for t = 0 to 7 do
      if s <> t then begin
        Matrix.set th s t (float_of_int (3 + s + t));
        Matrix.set tl s t (float_of_int (20 + (5 * s) + (3 * t)))
      end
    done
  done;
  (g, th, tl)

(* The same probe/commit sequence on two instances of [stubbed_core],
   with 40 and 80 stub nodes per core node: every change is on a core
   arc, so both run the same repairs on the same core.  A commit copies
   the weight, load, residual and Fortz rows it replaces, m + 1 words
   each in the major heap, and everything else it installs (dags,
   contribution rows, core weights) is sized to the core, below the
   minor-heap limit.  So the words a commit allocates directly in the
   major heap, divided by m + 1, are the same count of rows on both. *)
let commit_rows_gate () =
  let rows ~stub =
    let g, th, tl = stubbed_core ~stub in
    let m = Graph.arc_count g in
    Alcotest.(check bool) "m above 256" true (m > 256);
    let rng = Prng.create 7 in
    let weights () =
      Array.init m (fun a -> if a < 20 then Prng.int_incl rng 5 25 else 10)
    in
    let wh = weights () in
    let wl = weights () in
    let ec = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
    let words = ref 0. in
    for i = 1 to 30 do
      let klass = i mod 2 in
      let w = Eval_ctx.weights_view ec klass in
      let arc = Prng.int rng 20 in
      let v = 1 + ((w.(arc) + Prng.int_incl rng 1 20) mod 30) in
      let p = Eval_ctx.probe ec ~klass ~changes:[ (arc, v) ] in
      words := !words +. direct_major_words (fun () -> Eval_ctx.commit ec p)
    done;
    !words /. float_of_int (m + 1)
  in
  let small = rows ~stub:40 and large = rows ~stub:80 in
  Alcotest.(check bool) "rows copied" true (small > 0. && Float.is_integer small);
  Alcotest.(check (float 0.)) "major-heap words per commit / (m + 1), 40 vs 80 stub nodes"
    small large

(* ------------------------------------------------------------------ *)
(* (b) Interleavings on a context and its clone *)

(* What a context should evaluate: the weights it has committed. *)
type tracked = {
  ctx : Problem.ctx;
  mutable wh : int array;
  mutable wl : int array;
}

let reference problem ~wh ~wl =
  Dtr_oracle.Ref_objective.evaluate problem.Problem.model problem.Problem.graph ~wh ~wl
    ~th:problem.Problem.th ~tl:problem.Problem.tl

let candidate_weights tr cls changes =
  match cls with
  | `H -> (apply tr.wh changes, tr.wl)
  | `L -> (tr.wh, apply tr.wl changes)

let check_delta ~what problem tr cls changes d =
  let wh, wl = candidate_weights tr cls changes in
  let r = reference problem ~wh ~wl in
  check_lex ~what r.Objective.objective (Problem.delta_objective d);
  check_float ~what:(what ^ " phi_h") r.Objective.eval.Evaluate.phi_h
    (Problem.delta_phi_h d);
  check_float ~what:(what ^ " phi_l") r.Objective.eval.Evaluate.phi_l
    (Problem.delta_phi_l d)

let commit problem tr cls changes d ~what =
  let wh, wl = candidate_weights tr cls changes in
  let sol = Problem.commit_delta problem tr.ctx d in
  tr.wh <- wh;
  tr.wl <- wl;
  check_lex ~what (reference problem ~wh ~wl).Objective.objective
    (Problem.objective sol)

let check_failures ~what problem tr =
  let g = problem.Problem.graph in
  let got = Problem.failure_outcomes problem tr.ctx in
  let want =
    Dtr_oracle.Ref_failure.oracle_sweep ~model:problem.Problem.model g
      ~wh:tr.wh ~wl:tr.wl ~th:problem.Problem.th ~tl:problem.Problem.tl
  in
  Array.iteri
    (fun i (e : Failure_sweep.outcome) ->
      let a = got.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s link %d severed pairs" what i)
        e.Failure_sweep.unreachable_pairs a.Failure_sweep.unreachable_pairs;
      check_lex ~what:(Printf.sprintf "%s link %d" what i) e.Failure_sweep.cost
        a.Failure_sweep.cost)
    want

let interleavings seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 7 + 1) in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:(model_of seed) in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  let main = { ctx; wh; wl } in
  let clone = { main with ctx = Problem.clone_ctx problem ctx } in
  for step = 1 to 30 do
    let tr = if Prng.int rng 3 = 0 then clone else main in
    let what =
      Printf.sprintf "seed %d step %d (%s)" seed step
        (if tr == main then "main" else "clone")
    in
    let cls = if Prng.bool rng then `H else `L in
    let changes =
      random_changes rng (match cls with `H -> tr.wh | `L -> tr.wl)
    in
    match Prng.int rng 8 with
    | 0 | 1 | 2 | 3 ->
        (* A cost read, dropped as the scan engine drops it. *)
        let d = Problem.eval_delta problem tr.ctx ~cls ~changes in
        check_delta ~what:(what ^ " cost read") problem tr cls changes d
    | 4 ->
        let d = Problem.eval_delta problem tr.ctx ~cls ~changes in
        check_delta ~what:(what ^ " probe") problem tr cls changes d;
        commit problem tr cls changes d ~what:(what ^ " commit")
    | 5 | 6 -> check_failures ~what:(what ^ " failures") problem tr
    | _ ->
        Problem.sync_ctx ~src:main.ctx ~dst:clone.ctx;
        clone.wh <- main.wh;
        clone.wl <- main.wl
  done;
  true

let prop_interleavings =
  QCheck.Test.make ~count:12 ~name:"arena: interleaved probes = from scratch"
    QCheck.(int_range 1 10_000)
    interleavings

(* ------------------------------------------------------------------ *)
(* (c) Probe lifetimes: every bad change list, a repeated arc included,
   is refused before the probe writes the arena, and a probe is
   refused once the arena has moved on, or by another context *)

let stale name =
  Invalid_argument ("Eval_ctx." ^ name ^ ": stale probe (not this context's latest)")

let test_raising_probe () =
  let g = random_graph 4 in
  let rng = Prng.create 41 in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:(Objective.Sla Sla.default) in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  let m = Graph.arc_count g in
  let tr = { ctx; wh; wl } in
  (* A probe taken before the refused ones stays the latest: it must
     survive them, committable. *)
  let held_changes = random_changes rng wh in
  let held = Problem.eval_delta problem ctx ~cls:`H ~changes:held_changes in
  (* Two values arc 0 does not hold. *)
  let a0 = 0 in
  let v0, v1 =
    match List.filter (( <> ) wh.(a0)) [ 7; 8; 9 ] with
    | v0 :: v1 :: _ -> (v0, v1)
    | _ -> assert false
  in
  List.iter
    (fun (bad, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Problem.eval_delta problem ctx ~cls:`H ~changes:[ (a0, v0); bad ])))
    [
      ((m + 5, 3), "Eval_ctx.probe: arc out of range");
      ((1, Weights.max_weight + 1), "Eval_ctx.probe: weight out of bounds");
      (* The same arc twice, refused with the other list checks. *)
      ((a0, v1), "Eval_ctx.probe: arc listed twice");
    ];
  check_delta ~what:"held probe" problem tr `H held_changes held;
  commit problem tr `H held_changes held ~what:"commit held probe";
  for i = 1 to 6 do
    let cls = if i mod 2 = 0 then `H else `L in
    let changes = random_changes rng (if cls = `H then tr.wh else tr.wl) in
    let d = Problem.eval_delta problem ctx ~cls ~changes in
    check_delta ~what:(Printf.sprintf "read %d after raising probes" i) problem tr
      cls changes d
  done;
  check_failures ~what:"failures after raising probes" problem tr

(* A stale candidate is refused before anything moves: the context and
   its memo base key stay as they were, and the latest candidate stays
   committable. *)
let test_stale_delta () =
  let g = random_graph 6 in
  let rng = Prng.create 61 in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let sol0, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  ignore (Problem.ctx_base_key ctx);
  let c1 = random_changes rng wh and c2 = random_changes rng wh in
  let d1 = Problem.eval_delta problem ctx ~cls:`H ~changes:c1 in
  let d2 = Problem.eval_delta problem ctx ~cls:`H ~changes:c2 in
  let refused what d =
    Alcotest.check_raises what
      (stale "commit")
      (fun () -> ignore (Problem.commit_delta problem ctx d));
    Alcotest.(check int) (what ^ ": base key")
      (Dtr_oracle.Ref_problem.ctx_base_key ctx) (Problem.ctx_base_key ctx)
  in
  refused "delta taken before the latest" d1;
  check_lex ~what:"state after the refusal" (Problem.objective sol0)
    (Problem.objective (Problem.ctx_solution problem ctx));
  let sol = Problem.commit_delta problem ctx d2 in
  refused "delta committed already" d2;
  refused "delta taken before the commit" d1;
  check_lex ~what:"state" (Problem.objective sol)
    (Problem.objective (Problem.ctx_solution problem ctx))

(* A probe held across a later probe, a failure probe or a sync is
   refused by every view and by commit; its objective stays readable. *)
let test_probe_views_go_stale () =
  let g = random_graph 5 in
  let rng = Prng.create 53 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let ec = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let worker = Eval_ctx.clone ec in
  let a, b = (Graph.undirected_link_pairs g).(0) in
  let held_across what ctx move =
    let p = Eval_ctx.probe ctx ~klass:0 ~changes:(random_changes rng wh) in
    let phi = Eval_ctx.probe_phi p in
    ignore (Eval_ctx.probe_dags ctx p 0);
    ignore (Eval_ctx.probe_phi_row ctx p 1);
    move ();
    Alcotest.check_raises (what ^ ": probe_dags") (stale "probe_dags") (fun () ->
        ignore (Eval_ctx.probe_dags ctx p 0));
    Alcotest.check_raises (what ^ ": probe_phi_row") (stale "probe_phi_row") (fun () ->
        ignore (Eval_ctx.probe_phi_row ctx p 1));
    Alcotest.check_raises (what ^ ": commit") (stale "commit") (fun () ->
        Eval_ctx.commit ctx p);
    Alcotest.(check (array (float 0.))) (what ^ ": objective stays readable") phi
      (Eval_ctx.probe_phi p)
  in
  held_across "a later probe" ec (fun () ->
      ignore (Eval_ctx.probe ec ~klass:1 ~changes:(random_changes rng wl)));
  held_across "a failure probe" ec (fun () ->
      ignore (Eval_ctx.fail_probe ec ~arcs:(if a = b then [ a ] else [ a; b ])));
  held_across "a sync" worker (fun () -> Eval_ctx.sync ~src:ec ~dst:worker);
  (* None of it moved either context. *)
  let fresh = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  Alcotest.(check (array (float 0.))) "context unmoved" (Eval_ctx.phi fresh)
    (Eval_ctx.phi ec);
  Alcotest.(check (array (float 0.))) "worker unmoved" (Eval_ctx.phi fresh)
    (Eval_ctx.phi worker)

(* A probe is refused by every context but the one that took it.  A
   clone's probe carries a current stamp of the clone's arena, and
   after equally many commits the clone and the original agree on
   everything else the handle could be checked against: installing it
   would put the clone's weights and rows into the original. *)
let test_foreign_probe_refused () =
  let g = Dtr_topology.Classic.ring 6 in
  let n = Graph.node_count g in
  let th = Matrix.create n and tl = Matrix.create n in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        Matrix.set th s d (float_of_int (1 + (7 * s) + d));
        Matrix.set tl s d (float_of_int (2 + s + (3 * d)))
      end
    done
  done;
  let w = Array.make (Graph.arc_count g) 5 in
  let ec = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let worker = Eval_ctx.clone ec in
  Eval_ctx.commit ec (Eval_ctx.probe ec ~klass:0 ~changes:[ (0, 30) ]);
  Eval_ctx.commit worker (Eval_ctx.probe worker ~klass:0 ~changes:[ (1, 30) ]);
  let p = Eval_ctx.probe worker ~klass:1 ~changes:[ (2, 30) ] in
  Alcotest.check_raises "commit" (stale "commit") (fun () -> Eval_ctx.commit ec p);
  Alcotest.check_raises "probe_dags" (stale "probe_dags") (fun () ->
      ignore (Eval_ctx.probe_dags ec p 0));
  Alcotest.check_raises "probe_phi_row" (stale "probe_phi_row") (fun () ->
      ignore (Eval_ctx.probe_phi_row ec p 0));
  let wh = Array.copy w in
  wh.(0) <- 30;
  let fresh = Eval_ctx.create g ~weights:[| wh; w |] ~matrices:[| th; tl |] in
  Alcotest.(check (array (float 0.))) "original unmoved" (Eval_ctx.phi fresh)
    (Eval_ctx.phi ec);
  Eval_ctx.commit worker p

(* Sync installs another context's rows and dags as they are, so it
   takes only a context of the same graph and matrices: a clone, or a
   fresh context built from them (as a search's restart builds one),
   which then evaluates as the source does.  Two contexts of one graph
   built from different matrices route on different demand cores
   (here the high class's: the second context's demand leaves node 5
   off its core) and are refused either way. *)
let test_sync_refuses_other_cores () =
  let g = Dtr_topology.Classic.line 6 ~capacity:100. in
  let n = Graph.node_count g in
  let matrix pairs =
    let m = Matrix.create n in
    List.iter (fun (s, t, x) -> Matrix.set m s t x) pairs;
    m
  in
  let th = matrix [ (0, 5, 3.); (5, 1, 2.) ] and th' = matrix [ (0, 4, 3.); (4, 1, 2.) ] in
  let tl = matrix [ (1, 4, 7.); (4, 2, 5.) ] in
  let w = Array.make (Graph.arc_count g) 5 in
  let ctx th = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let a = ctx th and b = ctx th' in
  List.iter
    (fun (what, src, dst) ->
      Alcotest.check_raises what (Invalid_argument "Eval_ctx.sync: incompatible contexts")
        (fun () -> Eval_ctx.sync ~src ~dst))
    [ ("other matrices", a, b); ("other matrices, back", b, a) ];
  let early = Eval_ctx.clone a in
  Eval_ctx.commit a (Eval_ctx.probe a ~klass:0 ~changes:[ (0, 9) ]);
  let fresh = ctx th in
  List.iter
    (fun (what, dst) ->
      Eval_ctx.sync ~src:a ~dst;
      Alcotest.(check (array (float 0.))) (what ^ " follows") (Eval_ctx.phi a)
        (Eval_ctx.phi dst);
      Alcotest.(check (array int)) (what ^ ": weights") (Eval_ctx.weights a 0)
        (Eval_ctx.weights dst 0))
    [ ("a fresh context of the same matrices", fresh); ("a clone", early) ]

(* ------------------------------------------------------------------ *)
(* (d) Failure probes' views and their errors *)

let test_failure_views_go_stale () =
  let g = random_graph 5 in
  let rng = Prng.create 51 in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ec = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let a, b = (Graph.undirected_link_pairs g).(0) in
  let f = Eval_ctx.fail_probe ec ~arcs:(if a = b then [ a ] else [ a; b ]) in
  Alcotest.(check int) "survivable" 0 (Eval_ctx.probe_unreachable f);
  let phi = Eval_ctx.probe_phi f in
  ignore (Eval_ctx.probe_dags ec f 0);
  ignore (Eval_ctx.probe_phi_row ec f 1);
  ignore (Eval_ctx.probe ec ~klass:1 ~changes:[ (0, if w.(0) = 3 then 4 else 3) ]);
  Alcotest.check_raises "dags after the next probe" (stale "probe_dags") (fun () ->
      ignore (Eval_ctx.probe_dags ec f 0));
  Alcotest.check_raises "row after the next probe" (stale "probe_phi_row") (fun () ->
      ignore (Eval_ctx.probe_phi_row ec f 0));
  Alcotest.(check (array (float 0.))) "objective stays readable" phi
    (Eval_ctx.probe_phi f);
  (* So do they after another failure probe. *)
  let f2 = Eval_ctx.fail_probe ec ~arcs:[ a ] in
  ignore (Eval_ctx.fail_probe ec ~arcs:[ b ]);
  Alcotest.check_raises "dags after the next failure probe" (stale "probe_dags")
    (fun () -> ignore (Eval_ctx.probe_dags ec f2 0))

let test_failure_view_errors () =
  (* On a line every link failure severs positive demand. *)
  let g = Dtr_topology.Classic.line 4 in
  let n = Graph.node_count g in
  let th = Matrix.create n and tl = Matrix.create n in
  Matrix.set th 0 3 1.;
  Matrix.set tl 3 0 1.;
  let w = Array.make (Graph.arc_count g) 1 in
  let ec = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let f = Eval_ctx.fail_probe ec ~arcs:[ 0 ] in
  Alcotest.(check bool) "disconnecting" true (Eval_ctx.probe_unreachable f > 0);
  let unpriced =
    Invalid_argument "Eval_ctx.probe_phi_row: class not priced by this probe"
  in
  Alcotest.check_raises "class out of range first" unpriced (fun () ->
      ignore (Eval_ctx.probe_phi_row ec f 2));
  Alcotest.check_raises "negative class" unpriced (fun () ->
      ignore (Eval_ctx.probe_phi_row ec f (-1)));
  Alcotest.check_raises "no rows for a disconnecting failure"
    (Invalid_argument "Eval_ctx.probe_phi_row: disconnecting failure has no rows")
    (fun () -> ignore (Eval_ctx.probe_phi_row ec f 0))

(* ------------------------------------------------------------------ *)
(* The scratch SPF path against the pure one *)

let scratch_matches_update seed =
  let g = random_graph seed in
  let rng = Prng.create (seed + 17) in
  let n = Graph.node_count g in
  let w = ref (Weights.random rng g) in
  let prev = ref (Spf.all_destinations g ~weights:!w) in
  let s = Spf_delta.scratch () in
  let ok = ref true in
  for _ = 1 to 25 do
    let changes = random_changes rng !w in
    let weights = apply !w changes in
    (* Now and then a link fails on top of the weight changes. *)
    let fails =
      if Prng.int rng 4 = 0 then [ Prng.int rng (Array.length weights) ] else []
    in
    List.iter (fun a -> weights.(a) <- Dijkstra.suppressed) fails;
    let spf_changes =
      List.map
        (fun a -> { Spf_delta.arc = a; before = !w.(a); after = weights.(a) })
        (List.sort_uniq compare (List.map fst changes @ fails))
    in
    let dags, dirty = Spf_delta.update g ~weights ~prev:!prev ~changes:spf_changes in
    Spf_delta.update_scratch s g ~weights ~prev:!prev ~changes:spf_changes;
    let view = Spf_delta.scratch_dags s in
    let dirty' = List.init (Spf_delta.scratch_dirty s) (Spf_delta.scratch_dirty_at s) in
    ok := !ok && dirty = dirty';
    for t = 0 to n - 1 do
      let a = dags.(t) and b = view.(t) in
      ok :=
        !ok && a.Spf.dst = b.Spf.dst && a.Spf.dist = b.Spf.dist
        && a.Spf.order_desc = b.Spf.order_desc
        && a.Spf.next_arcs = b.Spf.next_arcs
        && (List.mem t dirty || b == !prev.(t))
    done;
    (* Move on from the pure result (a new [prev], as after a commit)
       unless a link failed; otherwise stay on the same [prev]. *)
    if fails = [] && Prng.bool rng then begin
      w := weights;
      prev := dags
    end
  done;
  !ok

let prop_scratch_matches_update =
  QCheck.Test.make ~count:30 ~name:"update_scratch = update (reused scratch)"
    QCheck.(int_range 1 10_000)
    scratch_matches_update

(* ------------------------------------------------------------------ *)
(* Change lists *)

let move_changes_match seed =
  let rng = Prng.create seed in
  let m = 2 + Prng.int rng 40 in
  let w =
    Array.init m (fun _ -> Prng.int_incl rng Weights.min_weight Weights.max_weight)
  in
  (* Pin some arcs at a bound so clamped and identity moves occur. *)
  if Prng.bool rng then w.(Prng.int rng m) <- Weights.max_weight;
  if Prng.bool rng then w.(Prng.int rng m) <- Weights.min_weight;
  let up = Prng.int rng m in
  let down = (up + 1 + Prng.int rng (m - 1)) mod m in
  let move = { Neighborhood.up_arc = up; down_arc = down } in
  let step = Prng.int_incl rng 1 30 in
  let v = Prng.int_incl rng Weights.min_weight Weights.max_weight in
  Neighborhood.move_changes move ~step w
  = Problem.weight_changes w (Dtr_oracle.Ref_neighborhood.apply move ~step w)
  && Neighborhood.changes w [ (up, v) ]
     = Problem.weight_changes w (apply w [ (up, v) ])

let prop_move_changes =
  QCheck.Test.make ~count:300
    ~name:"change lists = weight_changes of the moved vector"
    QCheck.(int_range 1 1_000_000)
    move_changes_match

(* ------------------------------------------------------------------ *)
(* Nested demand cores *)

(* A ring of 5–8 core nodes with chords, and two stub rings of three
   nodes, each hung on a ring node over a bridge.  Low-priority demand
   runs between every two of the ring nodes and the first stub's two
   far nodes, so the low class's demand core takes that stub in;
   high-priority demand runs between two or three pairs of ring nodes,
   a strict subset of the low class's endpoints, so its core is the
   ring alone.  The second stub carries no demand and lies off both
   cores.  Weights 1–4 make equal-cost ties common. *)
let nested_core_instance seed =
  let rng = Prng.create ((seed * 31) + 5) in
  let ring = Prng.int_incl rng 5 8 in
  let n = ring + 6 in
  let arc u v =
    {
      Graph.src = u;
      dst = v;
      capacity = Prng.choose rng [| 20.; 50.; 100. |];
      delay = Prng.choose rng [| 1.; 5.; 12. |];
    }
  in
  let link u v = [ arc u v; arc v u ] in
  let cycle = List.concat (List.init ring (fun v -> link v ((v + 1) mod ring))) in
  let chords =
    List.concat
      (List.init (Prng.int_incl rng 1 ring) (fun _ ->
           let u = Prng.int rng ring and v = Prng.int rng ring in
           if u = v then [] else link u v))
  in
  let stub base =
    link (Prng.int rng ring) base
    @ link base (base + 1)
    @ link (base + 1) (base + 2)
    @ link (base + 2) base
  in
  let g = Graph.build ~n (cycle @ chords @ stub ring @ stub (ring + 3)) in
  let th = Matrix.create n and tl = Matrix.create n in
  let low = List.init ring Fun.id @ [ ring + 1; ring + 2 ] in
  List.iter
    (fun s ->
      List.iter (fun t -> if s <> t then Matrix.set tl s t (1. +. Prng.float rng 4.)) low)
    low;
  for _ = 1 to Prng.int_incl rng 2 3 do
    let s = Prng.int rng ring in
    Matrix.set th s ((s + 1 + Prng.int rng (ring - 1)) mod ring) (0.5 +. Prng.float rng 2.)
  done;
  let narrow () = Array.init (Graph.arc_count g) (fun _ -> Prng.int_incl rng 1 4) in
  (g, th, tl, narrow (), narrow (), rng)

let off_core_of g tm =
  let endpoints = Array.make (Graph.node_count g) false in
  Matrix.iter tm (fun s t _ ->
      endpoints.(s) <- true;
      endpoints.(t) <- true);
  Graph.off_core g ~endpoints

let same_row ~what expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d, expected %d" what (Array.length actual)
      (Array.length expected);
  Array.iteri
    (fun i e -> check_float ~what:(Printf.sprintf "%s [%d]" what i) e actual.(i))
    expected

(* A context against a fresh one at its weights, bitwise: Φ, and per
   class the Fortz, load and capacity rows, every contribution row (a
   re-projected row cleared at the wrong arcs keeps stale shares there)
   and the dags. *)
let check_fresh ~what g ~th ~tl ec =
  let weights = [| Eval_ctx.weights ec 0; Eval_ctx.weights ec 1 |] in
  let fresh = Eval_ctx.create g ~weights ~matrices:[| th; tl |] in
  same_row ~what:(what ^ " phi") (Eval_ctx.phi fresh) (Eval_ctx.phi ec);
  same_row ~what:(what ^ " residual") (Eval_ctx.to_evaluate fresh).Evaluate.residual
    (Eval_ctx.to_evaluate ec).Evaluate.residual;
  for k = 0 to 1 do
    let what = Printf.sprintf "%s class %d" what k in
    same_row ~what:(what ^ " Fortz row") (Eval_ctx.phi_per_arc fresh k)
      (Eval_ctx.phi_per_arc ec k);
    same_row ~what:(what ^ " loads") (Eval_ctx.loads fresh k) (Eval_ctx.loads ec k);
    for dst = 0 to Graph.node_count g - 1 do
      same_row
        ~what:(Printf.sprintf "%s dst %d contribution" what dst)
        (Eval_ctx.contrib_view fresh ~klass:k ~dst)
        (Eval_ctx.contrib_view ec ~klass:k ~dst)
    done;
    if Eval_ctx.dags fresh k <> Eval_ctx.dags ec k then Alcotest.failf "%s: dags" what
  done

(* What the sequences did: weight probes of a class right after a
   computation that re-projected the other class's rows (so arena rows
   move between groups with different core arcs), commits, and failure
   probes priced. *)
type core_stats = {
  mutable crossed : int;
  mutable commits : int;
  mutable failures : int;
}

(* Interleaved H, L and failure probes with commits on one DTR
   context, each priced bitwise as a fresh context prices it: a weight
   probe's Φ and Fortz rows as a fresh context at its weights, a
   failure probe's Φ as a fresh context on the graph without the link,
   and after each commit everything {!check_fresh} reads. *)
let nested_core_sequence stats seed =
  let g, th, tl, wh, wl, rng = nested_core_instance seed in
  let what0 = Printf.sprintf "seed %d" seed in
  let off_h = off_core_of g th and off_l = off_core_of g tl in
  if not (Array.for_all2 (fun l h -> (not l) || h) off_l off_h && off_l <> off_h) then
    Alcotest.failf "%s: the high class's core is not strictly inside the low's" what0;
  let ec = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let fresh_at ~graph ~wh ~wl ~tl =
    Eval_ctx.create graph ~weights:[| wh; wl |] ~matrices:[| th; tl |]
  in
  (* The classes the last computation re-projected: 0 after an H
     probe, 1 after an L probe, 2 after a failure probe (both). *)
  let last = ref 2 in
  for step = 1 to 30 do
    let what = Printf.sprintf "%s step %d" what0 step in
    if Prng.int rng 4 = 0 then begin
      let links = Graph.undirected_link_pairs g in
      let a, b = links.(Prng.int rng (Array.length links)) in
      let priced = Prng.int_incl rng 1 2 in
      let what = Printf.sprintf "%s link (%d, %d), %d classes" what a b priced in
      let arcs = if a = b then [ a ] else [ a; b ] in
      let f = Eval_ctx.fail_probe ~classes:priced ec ~arcs in
      if Eval_ctx.probe_unreachable f = 0 then begin
        let reduced, mapping = Dtr_oracle.Ref_failure.fail_link g ~link:(a, b) in
        let remap = Dtr_oracle.Ref_failure.remap_weights in
        (* Class 0 alone prices without low-priority demand, which the
           failure may sever. *)
        let tl = if priced = 1 then Matrix.create (Graph.node_count g) else tl in
        let want =
          fresh_at ~graph:reduced ~wh:(remap (Eval_ctx.weights ec 0) mapping)
            ~wl:(remap (Eval_ctx.weights ec 1) mapping) ~tl
        in
        let phi = Eval_ctx.probe_phi f in
        for k = 0 to priced - 1 do
          check_float ~what:(Printf.sprintf "%s phi %d" what k) (Eval_ctx.phi want).(k)
            phi.(k)
        done;
        stats.failures <- stats.failures + 1;
        last := 2
      end
    end
    else begin
      let klass = Prng.int rng 2 in
      let changes = random_changes rng (Eval_ctx.weights_view ec klass) in
      let w k = Eval_ctx.weights ec k in
      let wh' = if klass = 0 then apply (w 0) changes else w 0 in
      let wl' = if klass = 1 then apply (w 1) changes else w 1 in
      let want = fresh_at ~graph:g ~wh:wh' ~wl:wl' ~tl in
      let p = Eval_ctx.probe ec ~klass ~changes in
      if !last <> klass then stats.crossed <- stats.crossed + 1;
      last := klass;
      same_row ~what:(what ^ " probe phi") (Eval_ctx.phi want) (Eval_ctx.probe_phi p);
      for k = 0 to 1 do
        same_row
          ~what:(Printf.sprintf "%s probe Fortz row %d" what k)
          (Eval_ctx.phi_per_arc want k) (Eval_ctx.probe_phi_row ec p k)
      done;
      if Prng.bool rng then begin
        Eval_ctx.commit ec p;
        stats.commits <- stats.commits + 1;
        check_fresh ~what:(what ^ " commit") g ~th ~tl ec
      end
    end
  done

let test_nested_cores () =
  let stats = { crossed = 0; commits = 0; failures = 0 } in
  for seed = 1 to 60 do
    nested_core_sequence stats seed
  done;
  List.iter
    (fun (what, count) ->
      Alcotest.(check bool) (Printf.sprintf "%d %s" count what) true (count > 0))
    [
      ("probes after the other class's re-projection", stats.crossed);
      ("commits", stats.commits);
      ("survivable failure probes", stats.failures);
    ]

(* ------------------------------------------------------------------ *)
(* The kept best context *)

let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* The repair and screen work of a probe: a context whose rows came
   from an underflowing walk ([zero_shares]) screens nothing, so the
   deferred count shows the flag. *)
let work_counters =
  List.map
    (fun name -> Metrics.counter ~help:"" name)
    [
      "dtr_spf_delta_updates_total";
      "dtr_spf_delta_rebuilds_total";
      "dtr_spf_delta_patches_total";
      "dtr_spf_delta_settled_total";
      "dtr_spf_delta_deferred_total";
      "dtr_sla_lambda_reused_total";
    ]

let work f =
  let before = List.map Metrics.counter_value work_counters in
  let x = f () in
  (x, List.map2 (fun c b -> Metrics.counter_value c - b) work_counters before)

(* A Problem context against another, as their materialized solutions
   show them: weights, objective, Φ, the Fortz, load and residual
   capacity rows, and the dags. *)
let check_same_ctx ~what problem ~want ~got =
  let a = Problem.ctx_solution problem want and b = Problem.ctx_solution problem got in
  Alcotest.(check (array int)) (what ^ ": W_H") a.Problem.wh b.Problem.wh;
  Alcotest.(check (array int)) (what ^ ": W_L") a.Problem.wl b.Problem.wl;
  check_lex ~what (Problem.objective a) (Problem.objective b);
  let ea = a.Problem.result.Objective.eval and eb = b.Problem.result.Objective.eval in
  check_float ~what:(what ^ " phi_h") ea.Evaluate.phi_h eb.Evaluate.phi_h;
  check_float ~what:(what ^ " phi_l") ea.Evaluate.phi_l eb.Evaluate.phi_l;
  List.iter
    (fun (name, x, y) -> same_row ~what:(what ^ " " ^ name) x y)
    [
      ("Fortz row H", ea.Evaluate.phi_h_per_arc, eb.Evaluate.phi_h_per_arc);
      ("Fortz row L", ea.Evaluate.phi_l_per_arc, eb.Evaluate.phi_l_per_arc);
      ("loads H", ea.Evaluate.h_loads, eb.Evaluate.h_loads);
      ("loads L", ea.Evaluate.l_loads, eb.Evaluate.l_loads);
      ("residual", ea.Evaluate.residual, eb.Evaluate.residual);
    ];
  if Lazy.force ea.Evaluate.dags_h <> Lazy.force eb.Evaluate.dags_h then
    Alcotest.failf "%s: H dags" what;
  if Lazy.force ea.Evaluate.dags_l <> Lazy.force eb.Evaluate.dags_l then
    Alcotest.failf "%s: L dags" what

(* What the walks did: returns to a best that had moved off the start,
   and those in robust mode, where a new best comes from a sweep. *)
type kept_stats = { mutable moved : int; mutable robust_moved : int }

(* One run's bookkeeping driven as the searches drive it: moves of W_H
   alone, the hand-off, moves of W_L, then rounds of both with
   refinement restarts.  DTR moves are scans whose fold winner is
   committed, offered with {!Incumbent.consider} and diversified by
   jumps; annealing moves are probes, accepted when they improve or at
   random and then offered.  After the hand-off and every return to
   the best, the context must be a fresh one at the best's weights, and
   the next probe on it must be the same probe on the fresh context,
   work counts included. *)
let kept_best_walk ~anneal ~model ~robust stats seed =
  let g, th, tl, wh0, wl0, rng = nested_core_instance seed in
  let problem = Problem.create ~graph:g ~th ~tl ~model in
  let cfg =
    { Search_config.quick with Search_config.diversify_after = 3; robust }
  in
  let what0 =
    Printf.sprintf "seed %d %s %s%s" seed
      (if anneal then "anneal" else "dtr")
      (Objective.model_name model)
      (if robust = None then "" else " robust")
  in
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  let inc =
    Incumbent.create ~scan cfg problem (Incumbent.Dtr (Some (wh0, wl0)))
  in
  let start = Incumbent.best inc in
  let changes_of cls =
    random_changes rng (Problem.ctx_weights_view (Incumbent.ctx inc) cls)
  in
  let moves cls count =
    for i = 1 to count do
      let prev = Incumbent.current inc in
      if anneal then begin
        let d = Incumbent.probe inc ~cls ~changes:(changes_of cls) in
        if
          Lexico.improves (Problem.delta_objective d) (Problem.objective prev)
          || Prng.int rng 4 = 0
        then begin
          Incumbent.accept inc d;
          Incumbent.offer inc ~iteration:i
        end
      end
      else begin
        let cands = Array.init 4 (fun _ -> changes_of cls) in
        let s = Incumbent.scan inc ~cls ~changes_of:(Array.get cands) 4 in
        let win = ref (-1) and obj = ref (Problem.objective prev) in
        Array.iteri
          (fun j (x : Scan.summary) ->
            if Lexico.improves x.Scan.objective !obj then begin
              obj := x.Scan.objective;
              win := j
            end)
          s;
        if !win >= 0 then Incumbent.commit inc ~cls ~changes:cands.(!win);
        Incumbent.consider inc ~iteration:i ~prev;
        if Incumbent.stalled inc then
          Incumbent.jump inc ~cls ~changes:(changes_of cls)
      end
    done
  in
  let restore what =
    let what = what0 ^ " " ^ what in
    let best = Incumbent.best inc in
    Incumbent.return_to_best inc;
    if best != start then begin
      stats.moved <- stats.moved + 1;
      if robust <> None then stats.robust_moved <- stats.robust_moved + 1
    end;
    let ctx = Incumbent.ctx inc in
    if Incumbent.current inc != best then
      Alcotest.failf "%s: current is not the best" what;
    let _, fresh = Problem.eval_dtr_ctx problem ~wh:best.Problem.wh ~wl:best.Problem.wl in
    check_same_ctx ~what problem ~want:fresh ~got:ctx;
    (* The next probe, and its commit, on both. *)
    let cls = if Prng.bool rng then `H else `L in
    let changes = changes_of cls in
    let want, want_work =
      work (fun () -> Problem.eval_delta problem fresh ~cls ~changes)
    in
    let got, got_work = work (fun () -> Incumbent.probe inc ~cls ~changes) in
    check_lex ~what:(what ^ " next probe") (Problem.delta_objective want)
      (Problem.delta_objective got);
    check_float ~what:(what ^ " next probe phi_h") (Problem.delta_phi_h want)
      (Problem.delta_phi_h got);
    check_float ~what:(what ^ " next probe phi_l") (Problem.delta_phi_l want)
      (Problem.delta_phi_l got);
    Alcotest.(check (list int)) (what ^ ": next probe's work") want_work got_work;
    ignore (Problem.commit_delta problem fresh want : Problem.solution);
    Incumbent.accept inc got;
    check_same_ctx ~what:(what ^ " after the next commit") problem ~want:fresh
      ~got:(Incumbent.ctx inc)
  in
  moves `H 12;
  (* Routine 1 never moves W_L, so the hand-off's (best W_H, current
     W_L) is the best's own pair. *)
  Alcotest.(check (array int)) (what0 ^ ": current W_L after W_H moves") wl0
    (Incumbent.current inc).Problem.wl;
  Alcotest.(check (array int)) (what0 ^ ": best W_L after W_H moves") wl0
    (Incumbent.best inc).Problem.wl;
  restore "hand-off";
  if not anneal then Incumbent.offer inc ~iteration:0;
  moves `L 12;
  restore "after W_L moves";
  for round = 1 to 3 do
    moves `H 4;
    moves `L 4;
    if (not anneal) && Prng.bool rng then begin
      let best = Incumbent.best inc in
      let perturb w = Weights.perturb rng ~fraction:0.3 w in
      Incumbent.restart inc ~wh:(perturb best.Problem.wh) ~wl:(perturb best.Problem.wl)
    end;
    moves `H 3;
    restore (Printf.sprintf "return %d" round)
  done

let test_kept_best () =
  with_metrics @@ fun () ->
  let stats = { moved = 0; robust_moved = 0 } in
  let robust = Some { Search_config.alpha = 0.5; top_k = 1 } in
  for seed = 1 to 8 do
    List.iter
      (fun model ->
        List.iter
          (fun robust -> kept_best_walk ~anneal:false ~model ~robust stats seed)
          [ None; robust ];
        kept_best_walk ~anneal:true ~model ~robust:None stats seed)
      [ Objective.Load; Objective.Sla Sla.default ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d returns to a best off the start" stats.moved)
    true (stats.moved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d of them in robust mode" stats.robust_moved)
    true (stats.robust_moved > 0)

(* Routine 1 leaves W_L at the start's: a DTR run stopped once routine 1
   is done reports a best with the start's W_L, and a W_H that moved. *)
let test_routine_one_keeps_wl () =
  List.iter
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create seed in
      let th, tl = random_matrices rng g in
      let problem = Problem.create ~graph:g ~th ~tl ~model:(model_of seed) in
      let wh0 = Weights.random rng g and wl0 = Weights.random rng g in
      let cfg = { Search_config.quick with Search_config.n_iters = 20 } in
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls >= cfg.Search_config.n_iters
      in
      let r = Dtr_search.run ~w0:(wh0, wl0) ~stop (Prng.create 9) cfg problem in
      let what = Printf.sprintf "seed %d" seed in
      Alcotest.(check bool) (what ^ ": W_H moved") true
        (r.Dtr_search.best.Problem.wh <> wh0);
      Alcotest.(check (array int)) (what ^ ": W_L") wl0 r.Dtr_search.best.Problem.wl)
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "arena"
    [
      ( "allocation",
        [
          Alcotest.test_case "load, demand destinations" `Quick
            (allocation_gate ~model:Objective.Load);
          Alcotest.test_case "sla, demand destinations" `Quick
            (allocation_gate ~model:(Objective.Sla Sla.default));
          Alcotest.test_case "load, demand destinations, transit-stub" `Quick
            (allocation_gate ~transit_stub:true ~model:Objective.Load);
          Alcotest.test_case "sla, demand destinations, transit-stub" `Quick
            (allocation_gate ~transit_stub:true ~model:(Objective.Sla Sla.default));
          Alcotest.test_case "commits copy only arc rows, whatever the stubs" `Quick
            commit_rows_gate;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_interleavings;
          QCheck_alcotest.to_alcotest prop_scratch_matches_update;
          QCheck_alcotest.to_alcotest prop_move_changes;
          Alcotest.test_case "nested demand cores: probes and commits = fresh" `Quick
            test_nested_cores;
        ] );
      ( "kept best",
        [
          Alcotest.test_case "returns to the best = a fresh context" `Quick
            test_kept_best;
          Alcotest.test_case "routine 1 keeps the start's W_L" `Quick
            test_routine_one_keeps_wl;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "a probe raising midway leaves the arena clean" `Quick
            test_raising_probe;
          Alcotest.test_case "a stale delta is refused before anything moves"
            `Quick test_stale_delta;
          Alcotest.test_case "probe views go stale when the arena moves on" `Quick
            test_probe_views_go_stale;
          Alcotest.test_case "a clone's probe is refused by the original" `Quick
            test_foreign_probe_refused;
          Alcotest.test_case "sync refuses a context of other matrices" `Quick
            test_sync_refuses_other_cores;
          Alcotest.test_case "failure views go stale at the next probe" `Quick
            test_failure_views_go_stale;
          Alcotest.test_case "failure probe view errors" `Quick
            test_failure_view_errors;
        ] );
    ]
