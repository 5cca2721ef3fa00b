(* Tests for Dtr_routing: weight vectors, ECMP load distribution (flow
   conservation properties), the delay model, and the two-class
   evaluation with residual capacities. *)

module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Prng = Dtr_util.Prng
module Matrix = Dtr_traffic.Matrix
module Weights = Dtr_routing.Weights
module Evaluate = Dtr_routing.Evaluate
module Objective = Dtr_routing.Objective
module Eval_ctx = Dtr_routing.Eval_ctx
module Ref_loads = Dtr_oracle.Ref_loads
module Ref_delay = Dtr_oracle.Ref_delay
module Ref_evaluate = Dtr_oracle.Ref_evaluate
module Ref_multi = Dtr_oracle.Ref_multi
module Ref_objective = Dtr_oracle.Ref_objective
module Classic = Dtr_topology.Classic
module Sla = Dtr_cost.Sla
module Lexico = Dtr_cost.Lexico

let checkf = Alcotest.(check (float 1e-9))

let arc ?(capacity = 1.) ?(delay = 1.) src dst =
  { Graph.src; dst; capacity; delay }

let diamond () =
  Graph.build ~n:4 [ arc 0 1; arc 1 3; arc 0 2; arc 2 3; arc 0 3 ]

(* ------------------------------------------------------------------ *)
(* Weights *)

let test_weights_uniform () =
  let g = Classic.triangle () in
  let w = Weights.uniform g 15 in
  Alcotest.(check int) "length" 6 (Array.length w);
  Array.iter (fun x -> Alcotest.(check int) "value" 15 x) w;
  Alcotest.check_raises "bounds"
    (Invalid_argument "Weights.uniform: weight out of bounds") (fun () ->
      ignore (Weights.uniform g 31))

let test_weights_random_in_bounds () =
  let g = Classic.ring 8 in
  let w = Weights.random (Prng.create 1) g in
  Weights.validate g w;
  Array.iter
    (fun x -> Alcotest.(check bool) "bounds" true (x >= 1 && x <= 30))
    w

let test_weights_validate_rejects () =
  let g = Classic.triangle () in
  Alcotest.check_raises "length"
    (Invalid_argument "Weights.validate: length mismatch") (fun () ->
      Weights.validate g [| 1; 2 |]);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Weights.validate: weight out of bounds") (fun () ->
      Weights.validate g [| 1; 1; 1; 1; 1; 0 |])

let test_weights_inverse_capacity () =
  let g =
    Graph.build ~n:2
      [ arc ~capacity:100. 0 1; arc ~capacity:10. 1 0 ]
  in
  let w = Weights.inverse_capacity g in
  Alcotest.(check int) "fastest link gets 1" 1 w.(0);
  Alcotest.(check int) "slower link gets 10x" 10 w.(1)

let test_weights_perturb_fraction () =
  let g = Classic.ring 20 in
  let w = Weights.uniform g 15 in
  let p = Weights.perturb (Prng.create 2) ~fraction:0.1 w in
  Weights.validate g p;
  let changed = ref 0 in
  Array.iteri (fun i x -> if x <> w.(i) then incr changed) p;
  (* ceil(0.1 * 40) = 4 entries re-drawn; some may redraw the old value. *)
  Alcotest.(check bool) "at most 4 changed" true (!changed <= 4);
  Alcotest.(check int) "original intact" 15 w.(0)

let test_weights_perturb_zero_fraction () =
  let g = Classic.triangle () in
  let w = Weights.uniform g 7 in
  let p = Weights.perturb (Prng.create 3) ~fraction:0. w in
  Alcotest.(check (array int)) "unchanged" w p

let test_weights_step_clamps () =
  let w = [| 29; 2 |] in
  let up = Weights.step w ~arc:0 ~delta:5 in
  Alcotest.(check int) "clamped up" 30 up.(0);
  let down = Weights.step w ~arc:1 ~delta:(-5) in
  Alcotest.(check int) "clamped down" 1 down.(1);
  Alcotest.(check int) "original untouched" 29 w.(0)

(* ------------------------------------------------------------------ *)
(* Loads *)

let single_dest_matrix n entries =
  let m = Matrix.create n in
  List.iter (fun (s, t, v) -> Matrix.set m s t v) entries;
  m

let test_loads_line () =
  let g = Classic.line 3 in
  let w = Weights.uniform g 1 in
  let dags = Spf.all_destinations g ~weights:w in
  let tm = single_dest_matrix 3 [ (0, 2, 4.) ] in
  let loads = Ref_loads.of_matrix g ~dags tm in
  (* Both hops along the line carry the full demand. *)
  let on src dst =
    match Graph.find_arc g ~src ~dst with
    | Some id -> loads.(id)
    | None -> Alcotest.fail "missing arc"
  in
  checkf "hop 1" 4. (on 0 1);
  checkf "hop 2" 4. (on 1 2);
  checkf "reverse idle" 0. (on 1 0)

let test_loads_ecmp_split () =
  let g = diamond () in
  (* Direct path cost 2 equals both 2-hop paths: three next hops at
     node 0, so 1/3 each; each two-hop branch keeps its third. *)
  let w = [| 1; 1; 1; 1; 2 |] in
  let dags = Spf.all_destinations g ~weights:w in
  let tm = single_dest_matrix 4 [ (0, 3, 3.) ] in
  let loads = Ref_loads.of_matrix g ~dags tm in
  checkf "0->1" 1. loads.(0);
  checkf "1->3" 1. loads.(1);
  checkf "0->2" 1. loads.(2);
  checkf "2->3" 1. loads.(3);
  checkf "0->3 direct" 1. loads.(4)

let test_loads_even_split_two_ways () =
  let g = diamond () in
  (* Only the two 2-hop paths are shortest (direct costs 3). *)
  let w = [| 1; 1; 1; 1; 3 |] in
  let dags = Spf.all_destinations g ~weights:w in
  let tm = single_dest_matrix 4 [ (0, 3, 2.) ] in
  let loads = Ref_loads.of_matrix g ~dags tm in
  checkf "0->1" 1. loads.(0);
  checkf "0->2" 1. loads.(2);
  checkf "direct idle" 0. loads.(4)

let test_loads_transit_accumulates () =
  let g = Classic.line 4 in
  let w = Weights.uniform g 1 in
  let dags = Spf.all_destinations g ~weights:w in
  let tm = single_dest_matrix 4 [ (0, 3, 1.); (1, 3, 1.); (2, 3, 1.) ] in
  let loads = Ref_loads.of_matrix g ~dags tm in
  let on src dst =
    match Graph.find_arc g ~src ~dst with
    | Some id -> loads.(id)
    | None -> Alcotest.fail "missing arc"
  in
  checkf "first hop" 1. (on 0 1);
  checkf "second hop" 2. (on 1 2);
  checkf "last hop" 3. (on 2 3)

let test_loads_unroutable_raises () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let dags = Spf.all_destinations g ~weights:[| 1 |] in
  let tm = single_dest_matrix 3 [ (2, 1, 1.) ] in
  Alcotest.check_raises "unroutable"
    (Invalid_argument "Loads.destination_demand: no path 2 -> 1") (fun () ->
      ignore (Ref_loads.of_matrix g ~dags tm))

let test_loads_drop_unroutable () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let dags = Spf.all_destinations g ~weights:[| 1 |] in
  let tm = single_dest_matrix 3 [ (2, 1, 1.); (0, 1, 2.) ] in
  let loads = Ref_loads.of_matrix ~drop_unroutable:true g ~dags tm in
  checkf "routable demand carried" 2. loads.(0)

let test_node_throughflow () =
  let g = Classic.line 3 in
  let w = Weights.uniform g 1 in
  let dag = Spf.to_destination g ~weights:w ~dst:2 in
  let flow = Ref_loads.node_throughflow g ~dag ~demand_to_dst:[| 1.; 2.; 0. |] in
  checkf "origin" 1. flow.(0);
  checkf "transit accumulates" 3. flow.(1)

(* Random connected symmetric graph with random demands, for flow
   conservation properties. *)
let random_case_gen =
  QCheck.Gen.(
    let* n = int_range 3 10 in
    let* seed = int_range 0 1_000_000 in
    return (n, seed))

let build_case (n, seed) =
  let rng = Prng.create seed in
  let arcs = ref [] in
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    arcs := Graph.add_symmetric ~capacity:10. ~delay:1. u v !arcs
  done;
  for _ = 1 to n do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && Graph.find_arc (Graph.build ~n !arcs) ~src:u ~dst:v = None then
      arcs := Graph.add_symmetric ~capacity:10. ~delay:1. u v !arcs
  done;
  let g = Graph.build ~n !arcs in
  let w = Array.init (Graph.arc_count g) (fun _ -> 1 + Prng.int rng 8) in
  let tm = Matrix.create n in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && Prng.bool rng then Matrix.set tm s t (Prng.float rng 5.)
    done
  done;
  (g, w, tm)

let prop_flow_conservation_at_destination =
  QCheck.Test.make
    ~name:"per destination, inflow at dst = total demand to dst" ~count:100
    (QCheck.make random_case_gen) (fun params ->
      let g, w, tm = build_case params in
      let dags = Spf.all_destinations g ~weights:w in
      let ok = ref true in
      let n = Graph.node_count g in
      for t = 0 to n - 1 do
        (* Single-destination slice of the demand. *)
        let slice = Matrix.create n in
        let total = ref 0. in
        for s = 0 to n - 1 do
          if s <> t then begin
            let v = Matrix.get tm s t in
            if v > 0. then begin
              Matrix.set slice s t v;
              total := !total +. v
            end
          end
        done;
        let loads = Ref_loads.of_matrix g ~dags slice in
        let inflow = ref 0. in
        Array.iter (fun id -> inflow := !inflow +. loads.(id)) (Graph.in_arcs g t);
        if Float.abs (!inflow -. !total) > 1e-6 then ok := false
      done;
      !ok)

let prop_flow_conservation_at_transit =
  QCheck.Test.make
    ~name:"per destination, transit nodes forward demand + inflow" ~count:100
    (QCheck.make random_case_gen) (fun params ->
      let g, w, tm = build_case params in
      let dags = Spf.all_destinations g ~weights:w in
      let ok = ref true in
      let n = Graph.node_count g in
      for t = 0 to n - 1 do
        let slice = Matrix.create n in
        for s = 0 to n - 1 do
          if s <> t then begin
            let v = Matrix.get tm s t in
            if v > 0. then Matrix.set slice s t v
          end
        done;
        let loads = Ref_loads.of_matrix g ~dags slice in
        for v = 0 to n - 1 do
          if v <> t then begin
            let inflow = ref 0. and outflow = ref 0. in
            Array.iter (fun id -> inflow := !inflow +. loads.(id)) (Graph.in_arcs g v);
            Array.iter (fun id -> outflow := !outflow +. loads.(id)) (Graph.out_arcs g v);
            let demand = Matrix.get slice v t in
            if Float.abs (!inflow +. demand -. !outflow) > 1e-6 then ok := false
          end
        done
      done;
      !ok)

let prop_total_load_equals_demand_times_hops =
  QCheck.Test.make
    ~name:"sum of arc loads = sum over pairs of demand x mean hop count"
    ~count:60 (QCheck.make random_case_gen) (fun params ->
      let g, w, tm = build_case params in
      let dags = Spf.all_destinations g ~weights:w in
      let loads = Ref_loads.of_matrix g ~dags tm in
      let total_load = Array.fold_left ( +. ) 0. loads in
      (* Mean hop count of pair (s,t) under even splitting equals the
         expected delay with unit arc delays. *)
      let unit_delay = Array.make (Graph.arc_count g) 1. in
      let expected = ref 0. in
      Matrix.iter tm (fun s t v ->
          let xi =
            Ref_delay.expected_to_destination g ~dag:dags.(t) ~arc_delay:unit_delay
          in
          expected := !expected +. (v *. xi.(s)));
      Float.abs (total_load -. !expected) <= 1e-6 *. Float.max 1. total_load)

let prop_loads_linear_in_demand =
  QCheck.Test.make ~name:"loads are linear in the demand matrix" ~count:60
    (QCheck.make
       QCheck.Gen.(pair random_case_gen (float_range 0.1 5.)))
    (fun (params, factor) ->
      let g, w, tm = build_case params in
      let dags = Spf.all_destinations g ~weights:w in
      let base = Ref_loads.of_matrix g ~dags tm in
      let scaled = Ref_loads.of_matrix g ~dags (Matrix.scale tm factor) in
      let ok = ref true in
      Array.iteri
        (fun i b ->
          if Float.abs (scaled.(i) -. (factor *. b)) > 1e-6 *. Float.max 1. b
          then ok := false)
        base;
      !ok)

let prop_phi_h_independent_of_wl =
  QCheck.Test.make
    ~name:"high-priority cost never depends on low-priority weights" ~count:60
    (QCheck.make QCheck.Gen.(pair random_case_gen (int_range 0 1_000_000)))
    (fun (params, wseed) ->
      let g, wh, tm = build_case params in
      let rng = Prng.create wseed in
      let wl1 = Weights.random rng g and wl2 = Weights.random rng g in
      let e1 = Ref_evaluate.evaluate g ~wh ~wl:wl1 ~th:tm ~tl:tm in
      let e2 = Ref_evaluate.evaluate g ~wh ~wl:wl2 ~th:tm ~tl:tm in
      Float.abs (e1.Evaluate.phi_h -. e2.Evaluate.phi_h) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Delay *)

let test_delay_line_sums () =
  let g = Classic.line 3 in
  let w = Weights.uniform g 1 in
  let dag = Spf.to_destination g ~weights:w ~dst:2 in
  let arc_delay = Array.make (Graph.arc_count g) 2.5 in
  let xi = Ref_delay.expected_to_destination g ~dag ~arc_delay in
  checkf "two hops" 5. xi.(0);
  checkf "one hop" 2.5 xi.(1);
  checkf "zero at dst" 0. xi.(2)

let test_delay_ecmp_average () =
  let g = diamond () in
  let w = [| 1; 1; 1; 1; 2 |] in
  let dag = Spf.to_destination g ~weights:w ~dst:3 in
  (* Give the direct arc delay 6, all others 1: paths cost 2, 2, 6;
     three equally likely next hops at node 0 -> mean = (2+2+6)/3. *)
  let arc_delay = [| 1.; 1.; 1.; 1.; 6. |] in
  let xi = Ref_delay.expected_to_destination g ~dag ~arc_delay in
  checkf "ecmp mean" (10. /. 3.) xi.(0)

let test_delay_unreachable_nan () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let dag = Spf.to_destination g ~weights:[| 1 |] ~dst:1 in
  let xi = Ref_delay.expected_to_destination g ~dag ~arc_delay:[| 1. |] in
  Alcotest.(check bool) "nan for unreachable" true (Float.is_nan xi.(2))

let test_arc_delays_formula () =
  let g = Graph.build ~n:2 [ arc ~capacity:500. ~delay:10. 0 1 ] in
  let d = Ref_delay.arc_delays Sla.default g ~phi_h_per_arc:[| 0. |] in
  checkf "matches Sla.link_delay" 10.016 d.(0)

let test_pair_delays () =
  let g = Classic.line 3 in
  let w = Weights.uniform g 1 in
  let dags = Spf.all_destinations g ~weights:w in
  let arc_delay = Array.make (Graph.arc_count g) 1. in
  let out = Ref_delay.pair_delays g ~dags ~arc_delay ~pairs:[ (0, 2); (2, 0) ] in
  Alcotest.(check int) "two pairs" 2 (List.length out);
  List.iter
    (fun (_, _, d) ->
      match d with
      | Ref_delay.Reachable d -> checkf "two unit hops" 2. d
      | Ref_delay.Unreachable -> Alcotest.fail "pair reported unreachable")
    out

let test_pair_delays_unreachable () =
  (* 0 -> 1 only; the (2, 0) pair has no path and must be reported as
     data, not raised. *)
  let g = Graph.build ~n:3 [ arc 0 1; arc 1 0; arc 1 2 ] in
  let w = Weights.uniform g 1 in
  let dags = Spf.all_destinations g ~weights:w in
  let arc_delay = Array.make (Graph.arc_count g) 1. in
  let out = Ref_delay.pair_delays g ~dags ~arc_delay ~pairs:[ (0, 2); (2, 0) ] in
  match out with
  | [ (0, 2, Ref_delay.Reachable d); (2, 0, Ref_delay.Unreachable) ] ->
      checkf "reachable pair delay" 2. d
  | _ -> Alcotest.fail "expected one reachable and one unreachable pair"

(* ------------------------------------------------------------------ *)
(* Evaluate *)

let two_class_line () =
  let g = Classic.line 3 ~capacity:10. in
  let th = single_dest_matrix 3 [ (0, 2, 4.) ] in
  let tl = single_dest_matrix 3 [ (0, 2, 4.) ] in
  (g, th, tl)

(* The oracle's evaluation at [w] for both classes, with its SLA
   costing under the default bound. *)
let evaluate_sla g ~w ~th ~tl =
  let r = Ref_objective.evaluate (Objective.Sla Sla.default) g ~wh:w ~wl:w ~th ~tl in
  (Objective.eval r, Option.get r.Objective.sla)

let test_evaluate_residual () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let e = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  (* H load 4 on both forward arcs of capacity 10 -> residual 6. *)
  Array.iteri
    (fun i h ->
      if h > 0. then checkf "residual" 6. e.Evaluate.residual.(i)
      else checkf "idle residual" 10. e.Evaluate.residual.(i))
    e.Evaluate.h_loads

let test_evaluate_residual_clamped () =
  let g = Classic.line 3 ~capacity:1. in
  let th = single_dest_matrix 3 [ (0, 2, 5.) ] in
  let tl = single_dest_matrix 3 [ (0, 2, 1.) ] in
  let w = Weights.uniform g 1 in
  let e = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  Array.iteri
    (fun i h ->
      if h > 0. then checkf "clamped to zero" 0. e.Evaluate.residual.(i))
    e.Evaluate.h_loads

let test_evaluate_saturated_finite () =
  (* High-priority load above capacity: residual clamps to 0, the
     low-priority Φ lands on the steepest Fortz segment, and nothing
     anywhere becomes NaN — Λ included. *)
  let g = Classic.line 3 ~capacity:1. in
  let th = single_dest_matrix 3 [ (0, 2, 5.) ] in
  let tl = single_dest_matrix 3 [ (0, 2, 2.) ] in
  let w = Weights.uniform g 1 in
  let e, s = evaluate_sla g ~w ~th ~tl in
  Array.iteri
    (fun i h -> if h > 0. then checkf "residual clamped" 0. e.Evaluate.residual.(i))
    e.Evaluate.h_loads;
  Alcotest.(check bool) "phi_h finite" true (Float.is_finite e.Evaluate.phi_h);
  Alcotest.(check bool) "phi_l finite" true (Float.is_finite e.Evaluate.phi_l);
  (* phi at zero capacity is pure slope: 5000 * load on each loaded arc. *)
  Array.iteri
    (fun i l ->
      if l > 0. then checkf "steepest segment" (5000. *. l) e.Evaluate.phi_l_per_arc.(i))
    e.Evaluate.l_loads;
  Alcotest.(check bool) "lambda not nan" false (Float.is_nan s.Evaluate.lambda);
  Alcotest.(check bool) "lambda finite" true (Float.is_finite s.Evaluate.lambda);
  List.iter
    (fun (_, _, d) ->
      Alcotest.(check bool) "pair delay finite" true (Float.is_finite d))
    s.Evaluate.pair_delays;
  (* The combined objective must stay orderable. *)
  let obj = { Lexico.primary = e.Evaluate.phi_h; secondary = s.Evaluate.lambda } in
  Alcotest.(check int) "lexico self-compare" 0 (Lexico.compare obj obj)

let test_evaluate_saturated_monotone () =
  (* More low-priority demand on a saturated link must cost strictly
     more, not overflow or go flat. *)
  let g = Classic.line 3 ~capacity:1. in
  let th = single_dest_matrix 3 [ (0, 2, 5.) ] in
  let w = Weights.uniform g 1 in
  let phi_l demand =
    let tl = single_dest_matrix 3 [ (0, 2, demand) ] in
    (Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl).Evaluate.phi_l
  in
  let prev = ref (phi_l 0.) in
  List.iter
    (fun d ->
      let v = phi_l d in
      Alcotest.(check bool) "finite" true (Float.is_finite v);
      Alcotest.(check bool) "strictly increasing" true (v > !prev);
      prev := v)
    [ 0.5; 1.; 2.; 8.; 64. ]

let test_evaluate_sla_unreachable () =
  (* A severed high-priority pair is reported (infinite Λ, counted)
     rather than raised — failure sweeps evaluate cut topologies — and
     Λ stays infinite when the penalty has no per-ms term ([b = 0]). *)
  let g = Graph.build ~n:3 [ arc 2 0; arc 0 1; arc 1 0 ] in
  let w = Weights.uniform g 1 in
  let dags = Spf.all_destinations g ~weights:w in
  let th = single_dest_matrix 3 [ (0, 2, 1.); (1, 0, 1.) ] in
  let h_loads = Ref_loads.of_matrix ~drop_unroutable:true g ~dags th in
  let l_loads = Array.make (Graph.arc_count g) 0. in
  let e = Ref_evaluate.assemble g ~h_loads ~l_loads in
  List.iter
    (fun params ->
      let what = Printf.sprintf "b = %g: " params.Sla.b in
      let s =
        Ref_evaluate.sla params g ~th ~dags_h:dags ~phi_h_per_arc:e.Evaluate.phi_h_per_arc
      in
      Alcotest.(check int) (what ^ "one unreachable") 1 s.Evaluate.unreachable;
      Alcotest.(check bool) (what ^ "lambda infinite") true (s.Evaluate.lambda = Float.infinity);
      Alcotest.(check bool) (what ^ "lambda not nan") false (Float.is_nan s.Evaluate.lambda);
      Alcotest.(check bool) (what ^ "at least the severed violation") true
        (s.Evaluate.violations >= 1);
      checkf (what ^ "worst delay infinite") Float.infinity s.Evaluate.worst_delay)
    [ Sla.default; { Sla.default with Sla.b = 0. } ]

(* One weight vector routes both classes once: in the oracle, one
   physical dag array; in the engine, one weight group whose dags every
   class views as the same physical values. *)
let test_evaluate_str_shares_dags () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let dags_h, dags_l = Ref_evaluate.routings g ~wh:w ~wl:w in
  Alcotest.(check bool) "oracle: physically shared" true (dags_h == dags_l);
  let ec = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  Alcotest.(check bool) "engine: physically shared" true
    (Array.for_all2 ( == ) (Eval_ctx.dags ec 0) (Eval_ctx.dags ec 1))

let test_evaluate_phi_sums () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let e = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  checkf "phi_h total" (Array.fold_left ( +. ) 0. e.Evaluate.phi_h_per_arc)
    e.Evaluate.phi_h;
  checkf "phi_l total" (Array.fold_left ( +. ) 0. e.Evaluate.phi_l_per_arc)
    e.Evaluate.phi_l;
  (* H at 40% utilization (segment 2); L at 4/6 of residual 6. *)
  let expected_h = 2. *. ((3. *. 4.) -. (2. /. 3. *. 10.)) in
  checkf "phi_h value" expected_h e.Evaluate.phi_h

let test_evaluate_priority_insulation () =
  (* Low-priority demand must not affect the high-priority cost. *)
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let e1 = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  let tl_heavy = Matrix.scale tl 100. in
  let e2 = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl:tl_heavy in
  checkf "phi_h unchanged" e1.Evaluate.phi_h e2.Evaluate.phi_h;
  Alcotest.(check bool) "phi_l grows" true
    (e2.Evaluate.phi_l > e1.Evaluate.phi_l)

let test_evaluate_dtr_separates () =
  (* With different weights, the low-priority class can avoid the
     high-priority path entirely. *)
  let g = Classic.triangle ~capacity:1. () in
  let th = single_dest_matrix 3 [ (0, 2, 0.5) ] in
  let tl = single_dest_matrix 3 [ (0, 2, 0.5) ] in
  let wh = Weights.uniform g 1 in
  (* Push low priority onto 0 -> 1 -> 2 by penalizing the direct arc. *)
  let wl = Array.copy wh in
  (match Graph.find_arc g ~src:0 ~dst:2 with
  | Some id -> wl.(id) <- 30
  | None -> Alcotest.fail "missing arc");
  let e = Ref_evaluate.evaluate g ~wh ~wl ~th ~tl in
  (match Graph.find_arc g ~src:0 ~dst:2 with
  | Some id ->
      checkf "H on direct" 0.5 e.Evaluate.h_loads.(id);
      checkf "L avoids direct" 0. e.Evaluate.l_loads.(id)
  | None -> ());
  match Graph.find_arc g ~src:0 ~dst:1 with
  | Some id -> checkf "L detours" 0.5 e.Evaluate.l_loads.(id)
  | None -> ()

let test_evaluate_utilization () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let e = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  let u = Evaluate.utilization e in
  let hu = Evaluate.h_utilization e in
  (* Forward arcs carry 8/10 total, 4/10 high priority. *)
  let max_u = Array.fold_left Float.max 0. u in
  let max_hu = Array.fold_left Float.max 0. hu in
  checkf "max util" 0.8 max_u;
  checkf "max h-util" 0.4 max_hu;
  checkf "max accessor" 0.8 (Evaluate.max_utilization e);
  checkf "avg = mean" (Dtr_util.Stats.mean u) (Evaluate.avg_utilization e)

let test_evaluate_sla_counts () =
  let g = Graph.build ~n:2
      (Graph.add_symmetric ~capacity:500. ~delay:30. 0 1 [])
  in
  let th = single_dest_matrix 2 [ (0, 1, 10.) ] in
  let tl = single_dest_matrix 2 [ (1, 0, 10.) ] in
  let w = Weights.uniform g 1 in
  let _, s = evaluate_sla g ~w ~th ~tl in
  (* 30 ms propagation > 25 ms bound. *)
  Alcotest.(check int) "one violation" 1 s.Evaluate.violations;
  Alcotest.(check bool) "penalty at least a" true (s.Evaluate.lambda >= 100.);
  Alcotest.(check bool) "worst delay > 30" true (s.Evaluate.worst_delay > 30.)

let test_evaluate_sla_no_violation () =
  let g = Graph.build ~n:2 (Graph.add_symmetric ~capacity:500. ~delay:5. 0 1 []) in
  let th = single_dest_matrix 2 [ (0, 1, 10.) ] in
  let tl = single_dest_matrix 2 [ (1, 0, 10.) ] in
  let w = Weights.uniform g 1 in
  let _, s = evaluate_sla g ~w ~th ~tl in
  Alcotest.(check int) "no violations" 0 s.Evaluate.violations;
  checkf "zero penalty" 0. s.Evaluate.lambda

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_objective_load () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let r = Ref_objective.evaluate Objective.Load g ~wh:w ~wl:w ~th ~tl in
  checkf "primary is phi_h" (Objective.eval r).Evaluate.phi_h
    r.Objective.objective.Lexico.primary;
  checkf "secondary is phi_l" (Objective.eval r).Evaluate.phi_l
    r.Objective.objective.Lexico.secondary;
  Alcotest.(check bool) "no sla" true (r.Objective.sla = None)

let test_objective_sla () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let r = Ref_objective.evaluate (Objective.Sla Sla.default) g ~wh:w ~wl:w ~th ~tl in
  (match r.Objective.sla with
  | Some s ->
      checkf "primary is lambda" s.Evaluate.lambda
        r.Objective.objective.Lexico.primary
  | None -> Alcotest.fail "expected SLA evaluation");
  checkf "secondary is phi_l" (Objective.eval r).Evaluate.phi_l
    r.Objective.objective.Lexico.secondary

let test_objective_link_costs () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let r = Ref_objective.evaluate Objective.Load g ~wh:w ~wl:w ~th ~tl in
  let costs = Ref_objective.link_costs_h Objective.Load r in
  Alcotest.(check int) "per arc" (Graph.arc_count g) (Array.length costs);
  Array.iteri
    (fun i c ->
      checkf "primary = phi_h_l" (Objective.eval r).Evaluate.phi_h_per_arc.(i)
        c.Lexico.primary)
    costs;
  let lcosts = Ref_objective.link_costs_l r in
  Array.iteri
    (fun i c ->
      checkf "findl cost" (Objective.eval r).Evaluate.phi_l_per_arc.(i) c)
    lcosts

(* ------------------------------------------------------------------ *)
(* Multi-class evaluation *)

let three_class_line () =
  let g = Classic.line 3 ~capacity:10. in
  let m0 = single_dest_matrix 3 [ (0, 2, 2.) ] in
  let m1 = single_dest_matrix 3 [ (0, 2, 3.) ] in
  let m2 = single_dest_matrix 3 [ (0, 2, 4.) ] in
  (g, [| m0; m1; m2 |])

let test_multi_two_class_matches_evaluate () =
  (* T = 2 must agree with the dedicated two-class evaluation. *)
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let e2 = Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  let m = Ref_multi.evaluate g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  checkf "phi_h agrees" e2.Evaluate.phi_h m.Ref_multi.phi.(0);
  checkf "phi_l agrees" e2.Evaluate.phi_l m.Ref_multi.phi.(1)

let test_multi_residual_chain () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  let m = Ref_multi.evaluate g ~weights:[| w; w; w |] ~matrices in
  (* On the loaded forward arcs: class 0 sees 10, class 1 sees 8,
     class 2 sees 5. *)
  Array.iteri
    (fun a l0 ->
      if l0 > 0. then begin
        checkf "class0 capacity" 10. m.Ref_multi.capacity_seen.(0).(a);
        checkf "class1 capacity" 8. m.Ref_multi.capacity_seen.(1).(a);
        checkf "class2 capacity" 5. m.Ref_multi.capacity_seen.(2).(a)
      end)
    m.Ref_multi.loads.(0)

let test_multi_capacity_monotone () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  let m = Ref_multi.evaluate g ~weights:[| w; w; w |] ~matrices in
  for k = 1 to 2 do
    Array.iteri
      (fun a c ->
        Alcotest.(check bool) "capacity non-increasing in class" true
          (c <= m.Ref_multi.capacity_seen.(k - 1).(a)))
      m.Ref_multi.capacity_seen.(k)
  done

let test_multi_shares_dags_when_aliased () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  let d = Ref_multi.routings g ~weights:[| w; w; w |] in
  Alcotest.(check bool) "oracle: dags shared" true (d.(0) == d.(1) && d.(1) == d.(2));
  let ec = Eval_ctx.create g ~weights:[| w; w; w |] ~matrices in
  let shared k = Array.for_all2 ( == ) (Eval_ctx.dags ec 0) (Eval_ctx.dags ec k) in
  Alcotest.(check bool) "engine: dags shared" true (shared 1 && shared 2)

let test_multi_higher_class_insulated () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  let m1 = Ref_multi.evaluate g ~weights:[| w; w; w |] ~matrices in
  let heavier = Array.copy matrices in
  heavier.(2) <- Matrix.scale matrices.(2) 50.;
  let m2 = Ref_multi.evaluate g ~weights:[| w; w; w |] ~matrices:heavier in
  checkf "class 0 unchanged" m1.Ref_multi.phi.(0) m2.Ref_multi.phi.(0);
  checkf "class 1 unchanged" m1.Ref_multi.phi.(1) m2.Ref_multi.phi.(1);
  Alcotest.(check bool) "class 2 grows" true (m2.Ref_multi.phi.(2) > m1.Ref_multi.phi.(2))

let test_multi_compare_objective () =
  let compare = Dtr_cost.Lexico.compare_vectors in
  Alcotest.(check bool) "first component dominates" true
    (compare [| 1.; 99. |] [| 2.; 0. |] < 0);
  Alcotest.(check bool) "later components break ties" true
    (compare [| 1.; 2.; 3. |] [| 1.; 2.; 4. |] < 0);
  Alcotest.(check int) "equal" 0 (compare [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.check_raises "length"
    (Invalid_argument "Lexico.compare_vectors: length mismatch") (fun () ->
      ignore (compare [| 1. |] [| 1.; 2. |]))

let test_multi_rejects () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  Alcotest.check_raises "no classes"
    (Invalid_argument "Multi.evaluate: need at least one class") (fun () ->
      ignore (Ref_multi.evaluate g ~weights:[||] ~matrices:[||]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Multi.evaluate: weights/matrices length mismatch")
    (fun () -> ignore (Ref_multi.evaluate g ~weights:[| w |] ~matrices))

let test_multi_utilization () =
  let g, matrices = three_class_line () in
  let w = Weights.uniform g 1 in
  let ec = Eval_ctx.create g ~weights:[| w; w; w |] ~matrices in
  let u =
    Array.mapi
      (fun a c ->
        ((Eval_ctx.loads ec 0).(a) +. (Eval_ctx.loads ec 1).(a)
        +. (Eval_ctx.loads ec 2).(a))
        /. c)
      (Graph.capacities g)
  in
  (* Forward arcs: (2+3+4)/10. *)
  let max_u = Array.fold_left Float.max 0. u in
  checkf "total utilization" 0.9 max_u;
  Alcotest.(check int) "class count" 3 (Eval_ctx.class_count ec)

(* ------------------------------------------------------------------ *)

let test_objective_of_eval_sla_cache () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let model = Objective.Sla Sla.default in
  let r1 = Ref_objective.evaluate model g ~wh:w ~wl:w ~th ~tl in
  match r1.Objective.sla with
  | None -> Alcotest.fail "expected sla"
  | Some sla ->
      let r2 = Objective.of_eval model (Objective.eval r1) ~sla:(fun _ -> sla) in
      (match r2.Objective.sla with
      | Some s2 -> Alcotest.(check bool) "costing kept" true (s2 == sla)
      | None -> Alcotest.fail "costing dropped")

(* ------------------------------------------------------------------ *)
(* Weights_io *)

module Weights_io = Dtr_routing.Weights_io

let test_weights_io_roundtrip () =
  let sets = [| [| 1; 15; 30 |]; [| 7; 7; 7 |] |] in
  match Weights_io.of_string (Weights_io.to_string sets) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "two topologies" 2 (Array.length back);
      Alcotest.(check (array int)) "topo 0" sets.(0) back.(0);
      Alcotest.(check (array int)) "topo 1" sets.(1) back.(1)

let test_weights_io_single_topology () =
  let sets = [| [| 3; 9 |] |] in
  match Weights_io.of_string (Weights_io.to_string sets) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check (array int)) "roundtrip" sets.(0) back.(0)

let test_weights_io_comments () =
  let src = "# saved weights\narcs 2 topologies 1\nw 0 5\nw 1 6\n" in
  match Weights_io.of_string src with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check (array int)) "parsed" [| 5; 6 |] back.(0)

let test_weights_io_errors () =
  (match Weights_io.of_string "w 0 5\n" with
  | Error e -> Alcotest.(check string) "missing header" "missing header" e
  | Ok _ -> Alcotest.fail "expected error");
  (match Weights_io.of_string "arcs 2 topologies 1\nw 0 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-arc error");
  (match Weights_io.of_string "arcs 1 topologies 1\nw 0 5\nw 0 6\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected duplicate error");
  match Weights_io.of_string "arcs 1 topologies 2\nw 0 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected arity error"

(* Rejection corpus: every malformed input must fail with an error
   that names the offending line, so a bad --init-weights file points
   the user at the exact row to fix. *)
let check_rejected label src expected =
  match Weights_io.of_string src with
  | Ok _ -> Alcotest.failf "%s: expected rejection" label
  | Error e -> Alcotest.(check string) label expected e

let test_weights_io_rejects_out_of_range () =
  check_rejected "weight too large" "arcs 2 topologies 1\nw 0 5\nw 1 31\n"
    "line 3: weight 31 out of range [1, 30]";
  check_rejected "weight zero" "arcs 1 topologies 2\nw 0 0 7\n"
    "line 2: weight 0 out of range [1, 30]";
  check_rejected "negative weight" "arcs 1 topologies 1\nw 0 -3\n"
    "line 2: weight -3 out of range [1, 30]";
  check_rejected "arc out of range" "arcs 2 topologies 1\nw 0 5\nw 7 5\n"
    "line 3: arc 7 out of range";
  (* With two bad rows, the first in file order is reported. *)
  check_rejected "first of two bad rows"
    "arcs 3 topologies 2\nw 0 5 5\nw 7 5 5\nw 1 5\n"
    "line 3: arc 7 out of range"

let test_weights_io_rejects_duplicate_arc () =
  check_rejected "duplicate arc" "arcs 2 topologies 1\nw 0 5\nw 0 6\n"
    "line 3: duplicate arc 0"

let test_weights_io_rejects_short_row () =
  check_rejected "short row" "arcs 1 topologies 2\nw 0 5\n"
    "line 2: arc 0: expected 2 weights";
  (* No row carries the header's count: rejected before the weight
     matrix is allocated. *)
  check_rejected "topology count no row matches"
    "arcs 1 topologies 4611686018427387903\nw 0 5\n"
    "line 2: arc 0: expected 4611686018427387903 weights"

let test_weights_io_tabs () =
  (* Fields split on any run of blanks, as in topology files. *)
  match Weights_io.of_string "arcs\t2 topologies 1\r\nw\t0\t5\r\nw 1  6\n" with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check (array int)) "parsed" [| 5; 6 |] back.(0)

(* Mutated writer output (Dtr_oracle.Mutate): Ok or Error, never an
   exception; only the whole-file errors may lack a line number. *)
let prop_weights_io_mutations =
  QCheck.Test.make ~name:"of_string never raises on mutated files" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let sets =
        Array.init (Prng.int_incl rng 1 2) (fun _ ->
            Array.init 9 (fun _ -> Prng.int_incl rng 1 30))
      in
      let graph = if Prng.bool rng then Some "0123456789abcdef" else None in
      match
        Weights_io.of_string
          (Dtr_oracle.Mutate.mutate rng (Weights_io.to_string ?graph sets))
      with
      | Ok _ -> true
      | Error e ->
          e = "missing header"
          || String.starts_with ~prefix:"line " e
          || String.starts_with ~prefix:"expected " e)

let test_weights_io_rejects_junk () =
  check_rejected "junk header" "arcs two topologies 1\nw 0 5\n"
    "line 1: bad header";
  check_rejected "junk value" "arcs 1 topologies 1\nw 0 five\n"
    "line 2: bad weights";
  check_rejected "junk directive" "arcs 1 topologies 1\nweight 0 5\n"
    "line 2: unknown directive"

let test_weights_io_rejects_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Weights_io.to_string: length mismatch") (fun () ->
      ignore (Weights_io.to_string [| [| 1 |]; [| 1; 2 |] |]))

(* A file names its graph by digest: a loader given its own graph's
   digest refuses weights of another graph and takes a file that names
   none. *)
let test_weights_io_graph () =
  let sets = [| [| 1; 2 |]; [| 3; 4 |] |] in
  let here = "00d98796d49d3246" and there = "3f95594810a0a172" in
  let saved = Weights_io.to_string ~graph:here sets in
  Alcotest.(check bool) "graph line" true
    (List.mem ("graph " ^ here) (String.split_on_char '\n' saved));
  let loads label graph src =
    match Weights_io.of_string ?graph src with
    | Ok back -> Alcotest.(check (array (array int))) label sets back
    | Error e -> Alcotest.failf "%s: %s" label e
  in
  loads "own graph" (Some here) saved;
  loads "no graph given" None saved;
  loads "no graph named" (Some there) (Weights_io.to_string sets);
  (match Weights_io.of_string ~graph:here (Weights_io.to_string ~graph:there sets) with
  | Error e ->
      Alcotest.(check string) "another graph"
        "weights for graph 3f95594810a0a172, not for graph 00d98796d49d3246" e
  | Ok _ -> Alcotest.fail "another graph: expected rejection");
  check_rejected "bad digest" "arcs 1 topologies 1\ngraph 00D98796D49D3246\nw 0 5\n"
    "line 2: bad graph digest";
  check_rejected "two graph lines"
    ("arcs 1 topologies 1\ngraph " ^ here ^ "\ngraph " ^ here ^ "\nw 0 5\n")
    "line 3: duplicate graph line";
  Alcotest.check_raises "writer refuses a non-digest"
    (Invalid_argument "Weights_io.to_string: bad graph digest") (fun () ->
      ignore (Weights_io.to_string ~graph:"isp" sets))

let test_weights_io_file_roundtrip () =
  let sets = [| [| 2; 4; 6 |] |] in
  let path = Filename.temp_file "dtr_weights" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Weights_io.save sets path;
      match Weights_io.load path with
      | Error e -> Alcotest.fail e
      | Ok back -> Alcotest.(check (array int)) "file roundtrip" sets.(0) back.(0))

(* ------------------------------------------------------------------ *)
(* Report *)

module Report = Dtr_routing.Report
module Table = Dtr_util.Table

let report_eval () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl

let test_report_per_link () =
  let e = report_eval () in
  let t = Report.per_link_table e in
  Alcotest.(check int) "one row per arc" 4 (List.length (Table.rows t));
  (* Rows sorted by decreasing utilization. *)
  let utils =
    List.map (fun row -> float_of_string (List.nth row 6)) (Table.rows t)
  in
  let rec desc = function
    | a :: (b :: _ as rest) -> a >= b && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (desc utils)

let test_report_per_link_top () =
  let e = report_eval () in
  let t = Report.per_link_table ~top:2 e in
  Alcotest.(check int) "limited rows" 2 (List.length (Table.rows t))

let test_report_summary () =
  let e = report_eval () in
  let t = Report.summary_table e in
  Alcotest.(check int) "five metrics" 5 (List.length (Table.rows t))

let test_report_pair_delays () =
  let g, th, tl = two_class_line () in
  let w = Weights.uniform g 1 in
  let _, sla = evaluate_sla g ~w ~th ~tl in
  let t = Report.per_pair_delay_table ~node_name:(Printf.sprintf "n%d") sla Sla.default in
  Alcotest.(check int) "one HP pair" 1 (List.length (Table.rows t));
  match Table.rows t with
  | [ row ] ->
      Alcotest.(check string) "named source" "n0" (List.nth row 0);
      Alcotest.(check bool) "positive margin" true
        (String.length (List.nth row 3) > 0 && (List.nth row 3).[0] = '+');
      Alcotest.(check string) "ok verdict" "ok" (List.nth row 4)
  | _ -> Alcotest.fail "expected one row"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_routing"
    [
      ( "weights",
        [
          Alcotest.test_case "uniform" `Quick test_weights_uniform;
          Alcotest.test_case "random in bounds" `Quick
            test_weights_random_in_bounds;
          Alcotest.test_case "validate rejects" `Quick
            test_weights_validate_rejects;
          Alcotest.test_case "inverse capacity" `Quick
            test_weights_inverse_capacity;
          Alcotest.test_case "perturb fraction" `Quick
            test_weights_perturb_fraction;
          Alcotest.test_case "perturb zero fraction" `Quick
            test_weights_perturb_zero_fraction;
          Alcotest.test_case "step clamps" `Quick test_weights_step_clamps;
        ] );
      ( "loads",
        [
          Alcotest.test_case "line" `Quick test_loads_line;
          Alcotest.test_case "three-way ECMP split" `Quick test_loads_ecmp_split;
          Alcotest.test_case "two-way even split" `Quick
            test_loads_even_split_two_ways;
          Alcotest.test_case "transit accumulates" `Quick
            test_loads_transit_accumulates;
          Alcotest.test_case "unroutable raises" `Quick
            test_loads_unroutable_raises;
          Alcotest.test_case "drop unroutable" `Quick test_loads_drop_unroutable;
          Alcotest.test_case "node throughflow" `Quick test_node_throughflow;
          qc prop_flow_conservation_at_destination;
          qc prop_flow_conservation_at_transit;
          qc prop_total_load_equals_demand_times_hops;
          qc prop_loads_linear_in_demand;
          qc prop_phi_h_independent_of_wl;
        ] );
      ( "delay",
        [
          Alcotest.test_case "line sums" `Quick test_delay_line_sums;
          Alcotest.test_case "ecmp average" `Quick test_delay_ecmp_average;
          Alcotest.test_case "unreachable nan" `Quick test_delay_unreachable_nan;
          Alcotest.test_case "arc delay formula" `Quick test_arc_delays_formula;
          Alcotest.test_case "pair delays" `Quick test_pair_delays;
          Alcotest.test_case "pair delays unreachable" `Quick
            test_pair_delays_unreachable;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "residual capacity" `Quick test_evaluate_residual;
          Alcotest.test_case "residual clamped at zero" `Quick
            test_evaluate_residual_clamped;
          Alcotest.test_case "saturated links stay finite" `Quick
            test_evaluate_saturated_finite;
          Alcotest.test_case "saturated phi_l monotone" `Quick
            test_evaluate_saturated_monotone;
          Alcotest.test_case "SLA severed pair" `Quick
            test_evaluate_sla_unreachable;
          Alcotest.test_case "STR shares DAGs" `Quick
            test_evaluate_str_shares_dags;
          Alcotest.test_case "phi sums" `Quick test_evaluate_phi_sums;
          Alcotest.test_case "priority insulation" `Quick
            test_evaluate_priority_insulation;
          Alcotest.test_case "DTR separates classes" `Quick
            test_evaluate_dtr_separates;
          Alcotest.test_case "utilization" `Quick test_evaluate_utilization;
          Alcotest.test_case "SLA violation counting" `Quick
            test_evaluate_sla_counts;
          Alcotest.test_case "SLA no violation" `Quick
            test_evaluate_sla_no_violation;
        ] );
      ( "multi",
        [
          Alcotest.test_case "T=2 matches Evaluate" `Quick
            test_multi_two_class_matches_evaluate;
          Alcotest.test_case "residual chain" `Quick test_multi_residual_chain;
          Alcotest.test_case "capacity monotone" `Quick
            test_multi_capacity_monotone;
          Alcotest.test_case "shared DAGs when aliased" `Quick
            test_multi_shares_dags_when_aliased;
          Alcotest.test_case "higher classes insulated" `Quick
            test_multi_higher_class_insulated;
          Alcotest.test_case "compare objective" `Quick
            test_multi_compare_objective;
          Alcotest.test_case "rejects bad input" `Quick test_multi_rejects;
          Alcotest.test_case "utilization and class count" `Quick
            test_multi_utilization;
        ] );
      ( "objective",
        [
          Alcotest.test_case "load objective" `Quick test_objective_load;
          Alcotest.test_case "sla objective" `Quick test_objective_sla;
          Alcotest.test_case "link costs" `Quick test_objective_link_costs;
          Alcotest.test_case "sla cache reuse" `Quick
            test_objective_of_eval_sla_cache;
        ] );
      ( "weights-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_weights_io_roundtrip;
          Alcotest.test_case "single topology" `Quick
            test_weights_io_single_topology;
          Alcotest.test_case "comments" `Quick test_weights_io_comments;
          Alcotest.test_case "errors" `Quick test_weights_io_errors;
          Alcotest.test_case "rejects out-of-range" `Quick
            test_weights_io_rejects_out_of_range;
          Alcotest.test_case "rejects duplicate arc" `Quick
            test_weights_io_rejects_duplicate_arc;
          Alcotest.test_case "rejects short row" `Quick
            test_weights_io_rejects_short_row;
          Alcotest.test_case "rejects junk" `Quick test_weights_io_rejects_junk;
          Alcotest.test_case "tab-separated fields" `Quick test_weights_io_tabs;
          Alcotest.test_case "rejects mismatch" `Quick
            test_weights_io_rejects_mismatch;
          Alcotest.test_case "file roundtrip" `Quick
            test_weights_io_file_roundtrip;
          Alcotest.test_case "names its graph" `Quick test_weights_io_graph;
          QCheck_alcotest.to_alcotest prop_weights_io_mutations;
        ] );
      ( "report",
        [
          Alcotest.test_case "per-link table" `Quick test_report_per_link;
          Alcotest.test_case "per-link top" `Quick test_report_per_link_top;
          Alcotest.test_case "summary" `Quick test_report_summary;
          Alcotest.test_case "pair delays" `Quick test_report_pair_delays;
        ] );
    ]
