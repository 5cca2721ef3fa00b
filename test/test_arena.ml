(* The probe arena: candidates (scan cost reads, committable probes,
   failure probes) are computed into context-owned scratch and only a
   committed winner is copied out.  Checked here:

   - allocation: after a warm-up pass, cost reads and failure probes
     on a network with n and m above the minor-heap size limit
     allocate nothing directly in the major heap;
   - equivalence: under random interleavings of cost reads, held
     (uncommitted) probes, commits, failure probes and syncs on a
     context and its clone, every cost equals a from-scratch
     evaluation and every failure the reduced-graph oracle, bitwise;
   - hygiene: a probe that raises midway leaves the arena usable, and
     a failure's views go stale at the context's next probe;
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

(* A 300-node network with 1800-odd arcs and PoP-style demand: both n
   and m exceed 256, as on the large presets. *)
let large_problem ~model ~dest_mode =
  let rng = Prng.create 11 in
  let g =
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
  let pops = Array.init 12 (fun i -> i * (n / 12)) in
  let tl = Gravity.generate_pop (Prng.create 5) ~n ~pops Gravity.default in
  let th = Matrix.scale tl 0.3 in
  let p = Problem.create ~graph:g ~th ~tl ~model in
  { p with Problem.dest_mode }

let allocation_gate ~model ~dest_mode () =
  let problem = large_problem ~model ~dest_mode in
  let g = problem.Problem.graph in
  Alcotest.(check bool) "n above 256" true (Graph.node_count g > 256);
  Alcotest.(check bool) "m above 256" true (Graph.arc_count g > 256);
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
  let sla_params = match model with Objective.Sla p -> Some p | _ -> None in
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
        sink := !sink +. (Problem.delta_objective d).Lexico.primary;
        Problem.abort_delta ctx d)
      candidates;
    (* Failure probes, priced as Failure_sweep prices them. *)
    Array.iter
      (fun (a, b) ->
        let arcs = if a = b then [ a ] else [ a; b ] in
        let f = Eval_ctx.fail_probe ec ~arcs in
        if Eval_ctx.failure_unreachable f = 0 then begin
          sink := !sink +. (Eval_ctx.failure_phi f).(1);
          match sla_params with
          | None -> ()
          | Some params ->
              sink :=
                !sink
                +. Evaluate.sla_lambda (Eval_ctx.sla_scratch ec) params g
                     ~th:problem.Problem.th ~dags_h:(Eval_ctx.failure_dags ec f 0)
                     ~phi_h_per_arc:(Eval_ctx.failure_phi_row f 0)
        end)
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
  mutable held : (Problem.cls * (int * int) list * Problem.delta * int) option;
      (* an uncommitted, unaborted probe and the commit count it was
         taken at *)
  mutable commits : int;
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
  tr.commits <- tr.commits + 1;
  tr.held <- None;
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
  let main = { ctx; wh; wl; held = None; commits = 0 } in
  let clone = { main with ctx = Problem.clone_ctx problem ctx; held = None } in
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
    | 0 | 1 | 2 ->
        (* A cost read, released at once as the scan engine does. *)
        let d = Problem.eval_delta problem tr.ctx ~cls ~changes in
        check_delta ~what:(what ^ " cost read") problem tr cls changes d;
        Problem.abort_delta tr.ctx d
    | 3 ->
        (* A probe kept live: later probes copy it out of the arena. *)
        let d = Problem.eval_delta problem tr.ctx ~cls ~changes in
        check_delta ~what:(what ^ " held probe") problem tr cls changes d;
        tr.held <- Some (cls, changes, d, tr.commits)
    | 4 -> (
        match tr.held with
        | Some (cls, changes, d, at) when at = tr.commits ->
            check_delta ~what:(what ^ " held probe, later") problem tr cls changes d;
            commit problem tr cls changes d ~what:(what ^ " commit held")
        | _ ->
            commit problem tr cls changes
              (Problem.eval_delta problem tr.ctx ~cls ~changes)
              ~what:(what ^ " commit"))
    | 5 | 6 -> check_failures ~what:(what ^ " failures") problem tr
    | _ ->
        Problem.sync_ctx ~src:main.ctx ~dst:clone.ctx;
        clone.wh <- main.wh;
        clone.wl <- main.wl;
        clone.held <- None;
        clone.commits <- clone.commits + 1
  done;
  true

let prop_interleavings =
  QCheck.Test.make ~count:12 ~name:"arena: interleaved probes = from scratch"
    QCheck.(int_range 1 10_000)
    interleavings

(* ------------------------------------------------------------------ *)
(* (c) A probe that raises midway *)

let test_raising_probe () =
  let g = random_graph 4 in
  let rng = Prng.create 41 in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:(Objective.Sla Sla.default) in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  let m = Graph.arc_count g in
  let tr = { ctx; wh; wl; held = None; commits = 0 } in
  (* A live probe taken before the failing ones must survive them. *)
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
      (* The same arc twice: caught only by the SPF update, after the
         probe has started writing the arena. *)
      ((a0, v1), "Spf_delta.update: weights/changes disagree");
    ];
  for i = 1 to 6 do
    let cls = if i mod 2 = 0 then `H else `L in
    let changes = random_changes rng (if cls = `H then wh else wl) in
    let d = Problem.eval_delta problem ctx ~cls ~changes in
    check_delta ~what:(Printf.sprintf "read %d after raising probes" i) problem tr
      cls changes d;
    Problem.abort_delta ctx d
  done;
  check_delta ~what:"held probe" problem tr `H held_changes held;
  commit problem tr `H held_changes held ~what:"commit held probe";
  check_failures ~what:"failures after raising probes" problem tr

(* A stale candidate is refused before anything moves: the context,
   its memo base key and its commit log stay as the winner left them. *)
let test_stale_delta () =
  let g = random_graph 6 in
  let rng = Prng.create 61 in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let _, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
  ignore (Problem.ctx_base_key ctx);
  let c1 = random_changes rng wh and c2 = random_changes rng wh in
  let d1 = Problem.eval_delta problem ctx ~cls:`H ~changes:c1 in
  let d2 = Problem.eval_delta problem ctx ~cls:`H ~changes:c2 in
  let sol = Problem.commit_delta problem ctx d1 in
  Alcotest.check_raises "stale delta"
    (Invalid_argument "Eval_ctx.commit: stale probe (context has moved on)")
    (fun () -> ignore (Problem.commit_delta problem ctx d2));
  Alcotest.(check int) "base key" (Dtr_oracle.Ref_problem.ctx_base_key ctx)
    (Problem.ctx_base_key ctx);
  Alcotest.(check int) "version" 1 (Problem.ctx_version ctx);
  check_lex ~what:"state" (Problem.objective sol)
    (Problem.objective (Problem.ctx_solution problem ctx))

(* ------------------------------------------------------------------ *)
(* (d) Failure views and failure_phi_row's errors *)

let test_failure_views_go_stale () =
  let g = random_graph 5 in
  let rng = Prng.create 51 in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ec = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let a, b = (Graph.undirected_link_pairs g).(0) in
  let f = Eval_ctx.fail_probe ec ~arcs:(if a = b then [ a ] else [ a; b ]) in
  Alcotest.(check int) "survivable" 0 (Eval_ctx.failure_unreachable f);
  let phi = Eval_ctx.failure_phi f in
  ignore (Eval_ctx.failure_dags ec f 0);
  ignore (Eval_ctx.failure_phi_row f 1);
  let p = Eval_ctx.probe ec ~klass:1 ~changes:[ (0, if w.(0) = 3 then 4 else 3) ] in
  Eval_ctx.abort ec p;
  Alcotest.check_raises "dags after the next probe"
    (Invalid_argument
       "Eval_ctx.failure_dags: stale failure (the context has probed since)")
    (fun () -> ignore (Eval_ctx.failure_dags ec f 0));
  Alcotest.check_raises "row after the next probe"
    (Invalid_argument
       "Eval_ctx.failure_phi_row: stale failure (the context has probed since)")
    (fun () -> ignore (Eval_ctx.failure_phi_row f 0));
  Alcotest.(check (array (float 0.))) "objective stays readable" phi
    (Eval_ctx.failure_phi f);
  (* So do they after another failure probe. *)
  let f2 = Eval_ctx.fail_probe ec ~arcs:[ a ] in
  ignore (Eval_ctx.fail_probe ec ~arcs:[ b ]);
  Alcotest.check_raises "dags after the next failure probe"
    (Invalid_argument
       "Eval_ctx.failure_dags: stale failure (the context has probed since)")
    (fun () -> ignore (Eval_ctx.failure_dags ec f2 0))

let test_failure_phi_row_errors () =
  (* On a line every link failure severs positive demand. *)
  let g = Dtr_topology.Classic.line 4 in
  let n = Graph.node_count g in
  let th = Matrix.create n and tl = Matrix.create n in
  Matrix.set th 0 3 1.;
  Matrix.set tl 3 0 1.;
  let w = Array.make (Graph.arc_count g) 1 in
  let ec = Eval_ctx.create g ~weights:[| w; Array.copy w |] ~matrices:[| th; tl |] in
  let f = Eval_ctx.fail_probe ec ~arcs:[ 0 ] in
  Alcotest.(check bool) "disconnecting" true (Eval_ctx.failure_unreachable f > 0);
  Alcotest.check_raises "class out of range first"
    (Invalid_argument "Eval_ctx.failure_phi_row: class out of range") (fun () ->
      ignore (Eval_ctx.failure_phi_row f 2));
  Alcotest.check_raises "negative class"
    (Invalid_argument "Eval_ctx.failure_phi_row: class out of range") (fun () ->
      ignore (Eval_ctx.failure_phi_row f (-1)));
  Alcotest.check_raises "no rows for a disconnecting failure"
    (Invalid_argument "Eval_ctx.failure_phi_row: disconnecting failure has no rows")
    (fun () -> ignore (Eval_ctx.failure_phi_row f 0))

(* ------------------------------------------------------------------ *)
(* The scratch SPF path against the pure one *)

let scratch_matches_update seed =
  let g = random_graph seed in
  let rng = Prng.create (seed + 17) in
  let n = Graph.node_count g in
  let w = ref (Weights.random rng g) in
  let prev = ref (Spf.all_destinations g ~weights:!w) in
  let s = Spf_delta.scratch () in
  let ws = Spf_delta.workspace () in
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
    let dags, dirty = Spf_delta.update ~ws g ~weights ~prev:!prev ~changes:spf_changes in
    Spf_delta.update_scratch s ~ws g ~weights ~prev:!prev ~changes:spf_changes;
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
          Alcotest.test_case "failure views go stale at the next probe" `Quick
            test_failure_views_go_stale;
          Alcotest.test_case "failure_phi_row errors" `Quick
            test_failure_phi_row_errors;
        ] );
    ]
