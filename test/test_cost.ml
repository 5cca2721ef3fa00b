(* Tests for Dtr_cost: the Fortz-Thorup piecewise cost (exact values on
   every segment, convexity properties), the SLA penalty, and the
   lexicographic order laws. *)

module Fortz = Dtr_cost.Fortz
module Sla = Dtr_cost.Sla
module Lexico = Dtr_cost.Lexico

let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fortz: exact values from Eq. (1) at interior points of each segment. *)

let test_phi_zero () = checkf "phi(0)" 0. (Fortz.phi ~load:0. ~capacity:10.)

let test_phi_segment1 () =
  (* u = 0.2: phi = load *)
  checkf "segment 1" 2. (Fortz.phi ~load:2. ~capacity:10.)

let test_phi_segment2 () =
  (* u = 0.5: phi = 3*load - 2/3*C = 15 - 20/3 *)
  checkf "segment 2" (15. -. (20. /. 3.)) (Fortz.phi ~load:5. ~capacity:10.)

let test_phi_segment3 () =
  (* u = 0.8: phi = 10*load - 16/3*C = 80 - 160/3 *)
  checkf "segment 3" (80. -. (160. /. 3.)) (Fortz.phi ~load:8. ~capacity:10.)

let test_phi_segment4 () =
  (* u = 0.95: phi = 70*load - 178/3*C *)
  checkf "segment 4"
    ((70. *. 9.5) -. (1780. /. 3.))
    (Fortz.phi ~load:9.5 ~capacity:10.)

let test_phi_segment5 () =
  (* u = 1.05: phi = 500*load - 1468/3*C *)
  checkf "segment 5"
    ((500. *. 10.5) -. (14680. /. 3.))
    (Fortz.phi ~load:10.5 ~capacity:10.)

let test_phi_segment6 () =
  (* u = 1.5: phi = 5000*load - 16318/3*C *)
  checkf "segment 6"
    ((5000. *. 15.) -. (163180. /. 3.))
    (Fortz.phi ~load:15. ~capacity:10.)

let test_phi_breakpoint_continuity () =
  (* The max-of-affine form is automatically continuous; check the
     known breakpoints anyway. *)
  List.iter
    (fun u ->
      let c = 10. in
      let below = Fortz.phi ~load:((u -. 1e-9) *. c) ~capacity:c in
      let above = Fortz.phi ~load:((u +. 1e-9) *. c) ~capacity:c in
      Alcotest.(check bool)
        (Printf.sprintf "continuous at %g" u)
        true
        (Float.abs (above -. below) < 1e-4))
    [ 1. /. 3.; 2. /. 3.; 0.9; 1.0; 1.1 ]

let test_phi_zero_capacity () =
  (* Saturated residual capacity: steepest segment applies. *)
  checkf "5000x at C=0" 5000. (Fortz.phi ~load:1. ~capacity:0.)

let test_phi_rejects_negative () =
  Alcotest.check_raises "negative load"
    (Invalid_argument "Fortz.phi: negative load") (fun () ->
      ignore (Fortz.phi ~load:(-1.) ~capacity:1.));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Fortz.phi: negative capacity") (fun () ->
      ignore (Fortz.phi ~load:1. ~capacity:(-1.)))

(* A NaN load or capacity is refused like a negative one, not priced:
   every comparison with NaN is false, so the pieces' maximum would
   stay at its start, 0. *)
let test_phi_rejects_nan () =
  Alcotest.check_raises "NaN load" (Invalid_argument "Fortz.phi: negative load")
    (fun () -> ignore (Fortz.phi ~load:Float.nan ~capacity:1.));
  Alcotest.check_raises "NaN load, no capacity"
    (Invalid_argument "Fortz.phi: negative load") (fun () ->
      ignore (Fortz.phi ~load:Float.nan ~capacity:0.));
  Alcotest.check_raises "NaN capacity" (Invalid_argument "Fortz.phi: negative capacity")
    (fun () -> ignore (Fortz.phi ~load:1. ~capacity:Float.nan));
  Alcotest.check_raises "NaN capacity, no load"
    (Invalid_argument "Fortz.phi: negative capacity") (fun () ->
      ignore (Fortz.phi ~load:0. ~capacity:Float.nan));
  checkf "-0. load is no load" 0. (Fortz.phi ~load:(-0.) ~capacity:1.)

let test_phi_segment_lookup () =
  Alcotest.(check int) "u=0.1" 0 (Fortz.segment ~utilization:0.1);
  Alcotest.(check int) "u=0.5" 1 (Fortz.segment ~utilization:0.5);
  Alcotest.(check int) "u=0.8" 2 (Fortz.segment ~utilization:0.8);
  Alcotest.(check int) "u=0.95" 3 (Fortz.segment ~utilization:0.95);
  Alcotest.(check int) "u=1.05" 4 (Fortz.segment ~utilization:1.05);
  Alcotest.(check int) "u=2" 5 (Fortz.segment ~utilization:2.)

let test_phi_uncapacitated () =
  checkf "matches phi" (Fortz.phi ~load:0.5 ~capacity:1.)
    (Fortz.phi_uncapacitated 0.5)

let prop_phi_monotone_in_load =
  QCheck.Test.make ~name:"phi is non-decreasing in load" ~count:500
    QCheck.(triple (float_range 0. 20.) (float_range 0. 5.) (float_range 0.1 10.))
    (fun (load, delta, capacity) ->
      Fortz.phi ~load:(load +. delta) ~capacity >= Fortz.phi ~load ~capacity)

let prop_phi_monotone_in_capacity =
  QCheck.Test.make ~name:"phi is non-increasing in capacity" ~count:500
    QCheck.(triple (float_range 0. 20.) (float_range 0.1 10.) (float_range 0. 5.))
    (fun (load, capacity, delta) ->
      Fortz.phi ~load ~capacity:(capacity +. delta)
      <= Fortz.phi ~load ~capacity +. 1e-9)

let prop_phi_saturated_finite_monotone =
  (* The saturated-residual case the search feeds in: C = 0 exactly.
     Must stay finite (never NaN) and non-decreasing in load. *)
  QCheck.Test.make ~name:"phi at zero capacity is finite and monotone"
    ~count:500
    QCheck.(pair (float_range 0. 1e6) (float_range 0. 1e6))
    (fun (load, delta) ->
      let a = Fortz.phi ~load ~capacity:0. in
      let b = Fortz.phi ~load:(load +. delta) ~capacity:0. in
      Float.is_finite a && Float.is_finite b && b >= a)

let prop_phi_convex_in_load =
  QCheck.Test.make ~name:"phi is convex in load (midpoint rule)" ~count:500
    QCheck.(triple (float_range 0. 20.) (float_range 0. 20.) (float_range 0.1 10.))
    (fun (x, y, c) ->
      let mid = Fortz.phi ~load:((x +. y) /. 2.) ~capacity:c in
      let avg = (Fortz.phi ~load:x ~capacity:c +. Fortz.phi ~load:y ~capacity:c) /. 2. in
      mid <= avg +. 1e-6)

let prop_phi_scale_invariant =
  QCheck.Test.make ~name:"phi(k*x, k*C) = k * phi(x, C)" ~count:500
    QCheck.(triple (float_range 0. 5.) (float_range 0.1 5.) (float_range 0.1 10.))
    (fun (load, capacity, k) ->
      let a = Fortz.phi ~load:(k *. load) ~capacity:(k *. capacity) in
      let b = k *. Fortz.phi ~load ~capacity in
      Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Sla *)

let test_sla_penalty_zero_within_bound () =
  let p = Sla.default in
  checkf "within" 0. (Sla.penalty p ~delay:25.);
  checkf "below" 0. (Sla.penalty p ~delay:1.)

let test_sla_penalty_formula () =
  let p = Sla.default in
  (* a + b * excess = 100 + 1 * 5 *)
  checkf "violation" 105. (Sla.penalty p ~delay:30.)

(* A severed pair's infinite delay is an infinite penalty for every
   [b], [b = 0] included, where the formula alone gives NaN. *)
let test_sla_penalty_infinite_delay () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "b = %g" b)
        true
        (Sla.penalty { Sla.default with Sla.b } ~delay:Float.infinity = Float.infinity))
    [ 0.; 1.; 2.5 ]

let test_sla_violated () =
  let p = Sla.default in
  Alcotest.(check bool) "at bound" false (Sla.violated p ~delay:25.);
  Alcotest.(check bool) "above" true (Sla.violated p ~delay:25.0001)

let test_sla_link_delay_idle () =
  (* Idle 500 Mbps link, 8000-bit packets: transmission = 0.016 ms. *)
  let p = Sla.default in
  let d = Sla.link_delay p ~capacity:500. ~phi_h:0. ~prop_delay:10. in
  checkf "idle link" (10. +. 0.016) d

let test_sla_link_delay_grows_with_phi () =
  let p = Sla.default in
  let d0 = Sla.link_delay p ~capacity:500. ~phi_h:0. ~prop_delay:10. in
  let d1 = Sla.link_delay p ~capacity:500. ~phi_h:1000. ~prop_delay:10. in
  Alcotest.(check bool) "queueing grows" true (d1 > d0)

let test_sla_link_delay_rejects () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Sla.link_delay: non-positive capacity") (fun () ->
      ignore (Sla.link_delay Sla.default ~capacity:0. ~phi_h:0. ~prop_delay:0.))

let test_sla_relaxed_bound () =
  let p = Sla.with_relaxed_bound Sla.default ~epsilon:0.2 in
  checkf "25 * 1.2" 30. p.Sla.theta;
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Sla.with_relaxed_bound: negative epsilon") (fun () ->
      ignore (Sla.with_relaxed_bound Sla.default ~epsilon:(-0.1)))

let prop_sla_penalty_monotone =
  QCheck.Test.make ~name:"penalty is non-decreasing in delay" ~count:300
    QCheck.(pair (float_range 0. 100.) (float_range 0. 20.))
    (fun (delay, delta) ->
      Sla.penalty Sla.default ~delay:(delay +. delta)
      >= Sla.penalty Sla.default ~delay)

(* ------------------------------------------------------------------ *)
(* Lexico *)

let mk p s = Lexico.make ~primary:p ~secondary:s

let test_lexico_ordering () =
  Alcotest.(check bool) "primary dominates" true (Lexico.lt (mk 1. 100.) (mk 2. 0.));
  Alcotest.(check bool) "secondary breaks ties" true (Lexico.lt (mk 1. 1.) (mk 1. 2.));
  Alcotest.(check bool) "equal not lt" false (Lexico.lt (mk 1. 1.) (mk 1. 1.))

let test_lexico_compare_contract () =
  Alcotest.(check int) "eq" 0 (Lexico.compare (mk 1. 2.) (mk 1. 2.));
  Alcotest.(check bool) "antisym" true
    (Lexico.compare (mk 1. 2.) (mk 2. 0.) < 0
    && Lexico.compare (mk 2. 0.) (mk 1. 2.) > 0)

let test_lexico_rel_tol () =
  (* Primaries within the tolerance: secondary decides. *)
  let a = mk 1000.0000001 1. and b = mk 1000. 2. in
  Alcotest.(check bool) "tolerant compare" true (Lexico.lt ~rel_tol:1e-6 a b);
  (* Without tolerance, the primary difference decides the other way. *)
  Alcotest.(check bool) "exact compare" true (Lexico.lt b a)

let test_lexico_min () =
  let a = mk 1. 5. and b = mk 1. 3. in
  Alcotest.(check (float 0.)) "min picks smaller secondary" 3.
    (Lexico.min a b).Lexico.secondary;
  (* Ties return the first argument. *)
  let t1 = mk 1. 1. and t2 = mk 1. 1. in
  Alcotest.(check bool) "tie returns first" true (Lexico.min t1 t2 == t1)

let test_lexico_add_zero () =
  let a = mk 3. 4. in
  let z = Lexico.add a Lexico.zero in
  checkf "primary" 3. z.Lexico.primary;
  checkf "secondary" 4. z.Lexico.secondary

let test_lexico_infinity_identity () =
  let a = mk 3. 4. in
  Alcotest.(check bool) "min with infinity" true (Lexico.min a Lexico.infinity == a)

let test_lexico_to_joint () =
  checkf "alpha blend" 35. (Lexico.to_joint ~alpha:10. (mk 3. 5.));
  Alcotest.check_raises "negative alpha"
    (Invalid_argument "Lexico.to_joint: negative alpha") (fun () ->
      ignore (Lexico.to_joint ~alpha:(-1.) (mk 1. 1.)))

let prop_lexico_total_order =
  QCheck.Test.make ~name:"lexicographic compare is transitive" ~count:300
    QCheck.(
      triple
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun ((p1, s1), (p2, s2), (p3, s3)) ->
      let a = mk p1 s1 and b = mk p2 s2 and c = mk p3 s3 in
      if Lexico.compare a b <= 0 && Lexico.compare b c <= 0 then
        Lexico.compare a c <= 0
      else true)

let prop_lexico_add_monotone =
  QCheck.Test.make ~name:"adding a common term preserves order" ~count:300
    QCheck.(
      triple
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun ((p1, s1), (p2, s2), (pc, sc)) ->
      let a = mk p1 s1 and b = mk p2 s2 and c = mk pc sc in
      if Lexico.lt a b then
        Lexico.compare (Lexico.add a c) (Lexico.add b c) <= 0
      else true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_cost"
    [
      ( "fortz",
        [
          Alcotest.test_case "phi(0) = 0" `Quick test_phi_zero;
          Alcotest.test_case "segment 1" `Quick test_phi_segment1;
          Alcotest.test_case "segment 2" `Quick test_phi_segment2;
          Alcotest.test_case "segment 3" `Quick test_phi_segment3;
          Alcotest.test_case "segment 4" `Quick test_phi_segment4;
          Alcotest.test_case "segment 5" `Quick test_phi_segment5;
          Alcotest.test_case "segment 6" `Quick test_phi_segment6;
          Alcotest.test_case "breakpoint continuity" `Quick
            test_phi_breakpoint_continuity;
          Alcotest.test_case "zero capacity" `Quick test_phi_zero_capacity;
          Alcotest.test_case "rejects negative" `Quick test_phi_rejects_negative;
          Alcotest.test_case "rejects NaN" `Quick test_phi_rejects_nan;
          Alcotest.test_case "segment lookup" `Quick test_phi_segment_lookup;
          Alcotest.test_case "uncapacitated" `Quick test_phi_uncapacitated;
          qc prop_phi_monotone_in_load;
          qc prop_phi_monotone_in_capacity;
          qc prop_phi_saturated_finite_monotone;
          qc prop_phi_convex_in_load;
          qc prop_phi_scale_invariant;
        ] );
      ( "sla",
        [
          Alcotest.test_case "no penalty within bound" `Quick
            test_sla_penalty_zero_within_bound;
          Alcotest.test_case "penalty formula" `Quick test_sla_penalty_formula;
          Alcotest.test_case "violated" `Quick test_sla_violated;
          Alcotest.test_case "idle link delay" `Quick test_sla_link_delay_idle;
          Alcotest.test_case "delay grows with phi" `Quick
            test_sla_link_delay_grows_with_phi;
          Alcotest.test_case "rejects bad capacity" `Quick
            test_sla_link_delay_rejects;
          Alcotest.test_case "relaxed bound" `Quick test_sla_relaxed_bound;
          qc prop_sla_penalty_monotone;
          Alcotest.test_case "infinite delay, infinite penalty" `Quick
            test_sla_penalty_infinite_delay;
        ] );
      ( "lexico",
        [
          Alcotest.test_case "ordering" `Quick test_lexico_ordering;
          Alcotest.test_case "compare contract" `Quick
            test_lexico_compare_contract;
          Alcotest.test_case "relative tolerance" `Quick test_lexico_rel_tol;
          Alcotest.test_case "min" `Quick test_lexico_min;
          Alcotest.test_case "add zero" `Quick test_lexico_add_zero;
          Alcotest.test_case "infinity identity" `Quick
            test_lexico_infinity_identity;
          Alcotest.test_case "to_joint" `Quick test_lexico_to_joint;
          qc prop_lexico_total_order;
          qc prop_lexico_add_monotone;
        ] );
    ]
