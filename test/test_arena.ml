(* The probe arena: candidates (scan cost reads, committable probes,
   failure probes) are computed into context-owned scratch and only a
   committed winner is copied out.  Checked here:

   - allocation: after a warm-up pass, cost reads and failure probes
     on a network with n and m above the minor-heap size limit
     allocate nothing directly in the major heap;
   - equivalence: under random interleavings of cost reads, commits,
     failure probes and syncs on a context and its clone, every cost
     equals a from-scratch evaluation and every failure the
     reduced-graph oracle, bitwise;
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
module Problem = Dtr_core.Problem
module Scan = Dtr_core.Scan
module Neighborhood = Dtr_core.Neighborhood

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
   probes repair masked. *)
let large_problem ?(transit_stub = false) ~model ~dest_mode () =
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
  let p = Problem.create ~graph:g ~th ~tl ~model in
  { p with Problem.dest_mode }

let allocation_gate ?transit_stub ~model ~dest_mode () =
  let problem = large_problem ?transit_stub ~model ~dest_mode () in
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
    Eval_ctx.create ~dest_mode g ~weights:[| wh; wl |]
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
  Alcotest.(check (float 0.)) "words allocated directly in the major heap" 0. words

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

let () =
  Alcotest.run "arena"
    [
      ( "allocation",
        [
          Alcotest.test_case "load, demand destinations" `Quick
            (allocation_gate ~model:Objective.Load ~dest_mode:Eval_ctx.Demand);
          Alcotest.test_case "load, all destinations" `Quick
            (allocation_gate ~model:Objective.Load ~dest_mode:Eval_ctx.All);
          Alcotest.test_case "sla, demand destinations" `Quick
            (allocation_gate ~model:(Objective.Sla Sla.default)
               ~dest_mode:Eval_ctx.Demand);
          Alcotest.test_case "load, demand destinations, transit-stub" `Quick
            (allocation_gate ~transit_stub:true ~model:Objective.Load
               ~dest_mode:Eval_ctx.Demand);
          Alcotest.test_case "sla, all destinations, transit-stub" `Quick
            (allocation_gate ~transit_stub:true ~model:(Objective.Sla Sla.default)
               ~dest_mode:Eval_ctx.All);
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_interleavings;
          QCheck_alcotest.to_alcotest prop_scratch_matches_update;
          QCheck_alcotest.to_alcotest prop_move_changes;
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
          Alcotest.test_case "failure views go stale at the next probe" `Quick
            test_failure_views_go_stale;
          Alcotest.test_case "failure probe view errors" `Quick
            test_failure_view_errors;
        ] );
    ]
