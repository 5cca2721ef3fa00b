(* Tests for Dtr_traffic: matrices, the gravity model (Eqs. 6-7), and
   the high-priority models (random / sink, volume scaling). *)

module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph

(* ------------------------------------------------------------------ *)
(* Matrix *)

let test_matrix_get_set () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  Alcotest.(check (float 0.)) "set/get" 5. (Matrix.get m 0 1);
  Alcotest.(check (float 0.)) "other zero" 0. (Matrix.get m 1 0)

let test_matrix_rejects_diagonal () =
  let m = Matrix.create 3 in
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Matrix.set: diagonal must stay zero") (fun () ->
      Matrix.set m 1 1 1.)

let test_matrix_rejects_negative () =
  let m = Matrix.create 3 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Matrix.set: negative demand") (fun () ->
      Matrix.set m 0 1 (-1.))

(* A demand that is not finite is refused, as a negative one is, and
   leaves the entry as it was. *)
let test_matrix_rejects_non_finite () =
  let m = Matrix.create 3 in
  Matrix.set m 0 2 4.;
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "set %g" v)
        (Invalid_argument "Matrix.set: demand must be finite")
        (fun () -> Matrix.set m 0 1 v);
      Alcotest.check_raises
        (Printf.sprintf "add %g" v)
        (Invalid_argument "Matrix.set: demand must be finite")
        (fun () -> Matrix.add m 0 2 v))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check (float 0.)) "refused entry" 0. (Matrix.get m 0 1);
  Alcotest.(check (float 0.)) "entry added to" 4. (Matrix.get m 0 2);
  Alcotest.(check int) "pair count" 1 (Matrix.pair_count m);
  Alcotest.(check (float 0.)) "total" 4. (Matrix.total m);
  Alcotest.check_raises "scale to infinity"
    (Invalid_argument "Matrix.scale: demand must stay finite") (fun () ->
      ignore (Matrix.scale m Float.infinity))

let test_matrix_rejects_out_of_range () =
  let m = Matrix.create 3 in
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Matrix: index out of range") (fun () ->
      ignore (Matrix.get m 0 3));
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Matrix: index out of range") (fun () ->
      Matrix.set m (-1) 0 1.)

let test_matrix_total_and_scale () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 2.;
  Matrix.set m 2 0 3.;
  Alcotest.(check (float 1e-9)) "total" 5. (Matrix.total m);
  let s = Matrix.scale m 2. in
  Alcotest.(check (float 1e-9)) "scaled total" 10. (Matrix.total s);
  Alcotest.(check (float 1e-9)) "original untouched" 5. (Matrix.total m)

let test_matrix_add () =
  let m = Matrix.create 2 in
  Matrix.add m 0 1 1.;
  Matrix.add m 0 1 2.;
  Alcotest.(check (float 1e-9)) "accumulated" 3. (Matrix.get m 0 1)

let test_matrix_pairs () =
  let m = Matrix.create 3 in
  Matrix.set m 0 2 1.;
  Matrix.set m 2 1 4.;
  Alcotest.(check int) "pair count" 2 (Matrix.pair_count m);
  Alcotest.(check (list (pair int (pair int (float 0.))))) "row major order"
    [ (0, (2, 1.)); (2, (1, 4.)) ]
    (List.map (fun (s, t, v) -> (s, (t, v))) (Matrix.pairs m))

let test_matrix_copy_independent () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 1.;
  let c = Matrix.copy m in
  Matrix.set c 0 1 9.;
  Alcotest.(check (float 0.)) "original unchanged" 1. (Matrix.get m 0 1)

let test_matrix_map2 () =
  let a = Matrix.create 2 and b = Matrix.create 2 in
  Matrix.set a 0 1 1.;
  Matrix.set b 0 1 2.;
  let c = Matrix.map2 a b ( +. ) in
  Alcotest.(check (float 0.)) "sum" 3. (Matrix.get c 0 1)

let test_matrix_equal () =
  let a = Matrix.create 2 and b = Matrix.create 2 in
  Matrix.set a 0 1 1.;
  Matrix.set b 0 1 (1. +. 1e-12);
  Alcotest.(check bool) "equal within eps" true (Matrix.equal a b);
  Matrix.set b 0 1 2.;
  Alcotest.(check bool) "not equal" false (Matrix.equal a b)

(* ------------------------------------------------------------------ *)
(* Gravity *)

let test_gravity_dense_positive () =
  let m = Gravity.generate (Prng.create 1) ~n:10 Gravity.default in
  for s = 0 to 9 do
    for t = 0 to 9 do
      if s <> t then
        Alcotest.(check bool) "positive demand" true (Matrix.get m s t > 0.)
    done
  done

let test_gravity_row_sums_in_demand_bands () =
  (* Each node's total originated traffic is one of the three bands of
     Eq. (7): [10, 50], [80, 130] or [150, 200]. *)
  let m = Gravity.generate (Prng.create 2) ~n:20 Gravity.default in
  for s = 0 to 19 do
    let d = ref 0. in
    for t = 0 to 19 do
      if t <> s then d := !d +. Matrix.get m s t
    done;
    let in_band lo hi = !d >= lo -. 1e-6 && !d <= hi +. 1e-6 in
    Alcotest.(check bool) "row total in a band" true
      (in_band 10. 50. || in_band 80. 130. || in_band 150. 200.)
  done

let test_gravity_mass_attraction () =
  (* Within one source row, the split across destinations is
     proportional to exp(V_t): ratios bounded by exp(1.5 - 1). *)
  let m = Gravity.generate (Prng.create 3) ~n:10 Gravity.default in
  let max_ratio = exp 0.5 +. 1e-9 in
  for s = 0 to 9 do
    for t1 = 0 to 9 do
      for t2 = 0 to 9 do
        if t1 <> s && t2 <> s && t1 <> t2 then begin
          let r = Matrix.get m s t1 /. Matrix.get m s t2 in
          Alcotest.(check bool) "bounded attraction ratio" true
            (r <= max_ratio && r >= 1. /. max_ratio)
        end
      done
    done
  done

let test_gravity_reproducible () =
  let a = Gravity.generate (Prng.create 4) ~n:8 Gravity.default in
  let b = Gravity.generate (Prng.create 4) ~n:8 Gravity.default in
  Alcotest.(check bool) "same matrices" true (Matrix.equal a b)

let test_gravity_rejects_small () =
  Alcotest.check_raises "n=1"
    (Invalid_argument "Gravity.generate: need at least 2 nodes") (fun () ->
      ignore (Gravity.generate (Prng.create 1) ~n:1 Gravity.default))

(* ------------------------------------------------------------------ *)
(* Highpri: random pairs *)

let test_random_pairs_count () =
  let pairs = Highpri.random_pairs (Prng.create 1) ~n:10 ~density:0.1 in
  (* 10 * 9 = 90 ordered pairs; 10% = 9. *)
  Alcotest.(check int) "nine pairs" 9 (List.length pairs)

let test_random_pairs_distinct_valid () =
  let n = 12 in
  let pairs = Highpri.random_pairs (Prng.create 2) ~n ~density:0.5 in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool) "valid" true (s >= 0 && s < n && t >= 0 && t < n && s <> t);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl (s, t));
      Hashtbl.add tbl (s, t) ())
    pairs

let test_random_pairs_full_density () =
  let pairs = Highpri.random_pairs (Prng.create 3) ~n:5 ~density:1.0 in
  Alcotest.(check int) "all pairs" 20 (List.length pairs)

let test_random_pairs_rejects () =
  Alcotest.check_raises "density > 1"
    (Invalid_argument "Highpri.random_pairs: density must be in [0, 1]")
    (fun () -> ignore (Highpri.random_pairs (Prng.create 1) ~n:5 ~density:1.5));
  Alcotest.check_raises "density nan"
    (Invalid_argument "Highpri.random_pairs: density must be in [0, 1]")
    (fun () ->
      ignore (Highpri.random_pairs (Prng.create 1) ~n:5 ~density:Float.nan))

(* ------------------------------------------------------------------ *)
(* Highpri: sinks *)

let test_sink_pairs_bidirectional () =
  let pairs = Highpri.sink_pairs ~sinks:[| 0; 1 |] ~clients:[| 2; 3; 4 |] in
  Alcotest.(check int) "2 sinks x 3 clients x 2 directions" 12
    (List.length pairs);
  List.iter
    (fun (s, t) ->
      let is_sink v = v = 0 || v = 1 in
      Alcotest.(check bool) "one endpoint is a sink" true
        (is_sink s <> is_sink t))
    pairs

let test_sink_pairs_rejects_overlap () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Highpri.sink_pairs: duplicate/overlapping clients")
    (fun () -> ignore (Highpri.sink_pairs ~sinks:[| 0 |] ~clients:[| 0; 1 |]))

let test_select_clients_uniform () =
  let g = Dtr_topology.Classic.ring 10 in
  let clients =
    Highpri.select_clients (Prng.create 1) g ~sinks:[| 0 |] ~count:4
      Highpri.Uniform
  in
  Alcotest.(check int) "four clients" 4 (Array.length clients);
  Array.iter
    (fun c -> Alcotest.(check bool) "not the sink" true (c <> 0))
    clients

let test_select_clients_local () =
  (* On a ring, the nodes closest to sink 0 are 1, 2, 9, 8 (hop <= 2). *)
  let g = Dtr_topology.Classic.ring 10 in
  let clients =
    Highpri.select_clients (Prng.create 2) g ~sinks:[| 0 |] ~count:4
      Highpri.Local
  in
  let sorted = Array.copy clients in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "nearest nodes" [| 1; 2; 8; 9 |] sorted

let test_select_clients_rejects_count () =
  let g = Dtr_topology.Classic.ring 5 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Highpri.select_clients: count out of range") (fun () ->
      ignore
        (Highpri.select_clients (Prng.create 1) g ~sinks:[| 0 |] ~count:5
           Highpri.Uniform))

let test_client_count_for_density () =
  (* n=30, 3 sinks, k=10%: 0.1 * 870 / 6 = 14.5 -> 15 clients. *)
  Alcotest.(check int) "count" 15
    (Highpri.client_count_for_density ~n:30 ~sinks:3 ~density:0.1);
  Alcotest.(check int) "clamped to available" 27
    (Highpri.client_count_for_density ~n:30 ~sinks:3 ~density:1.0);
  Alcotest.(check int) "at least one" 1
    (Highpri.client_count_for_density ~n:30 ~sinks:3 ~density:0.0001)

(* ------------------------------------------------------------------ *)
(* Highpri: volumes *)

let test_volumes_fraction () =
  let rng = Prng.create 5 in
  let low = Gravity.generate rng ~n:12 Gravity.default in
  let pairs = Highpri.random_pairs rng ~n:12 ~density:0.2 in
  let high = Highpri.volumes rng ~low ~fraction:0.3 ~pairs in
  let f = Matrix.total high /. (Matrix.total high +. Matrix.total low) in
  Alcotest.(check (float 1e-9)) "f = 30%" 0.3 f

let test_volumes_only_selected_pairs () =
  let rng = Prng.create 6 in
  let low = Gravity.generate rng ~n:8 Gravity.default in
  let pairs = [ (0, 3); (5, 2) ] in
  let high = Highpri.volumes rng ~low ~fraction:0.25 ~pairs in
  Alcotest.(check int) "two entries" 2 (Matrix.pair_count high);
  Alcotest.(check bool) "selected pair positive" true (Matrix.get high 0 3 > 0.)

let test_volumes_heterogeneous () =
  (* The per-pair marks are Uniform(1,4), so volumes must differ but by
     at most a factor of 4. *)
  let rng = Prng.create 7 in
  let low = Gravity.generate rng ~n:10 Gravity.default in
  let pairs = Highpri.random_pairs rng ~n:10 ~density:0.3 in
  let high = Highpri.volumes rng ~low ~fraction:0.3 ~pairs in
  let vols = List.map (fun (_, _, v) -> v) (Matrix.pairs high) in
  let lo = List.fold_left min infinity vols in
  let hi = List.fold_left max 0. vols in
  Alcotest.(check bool) "spread" true (hi > lo);
  Alcotest.(check bool) "bounded by mark range" true (hi /. lo <= 4. +. 1e-9)

let test_volumes_rejects () =
  let rng = Prng.create 8 in
  let low = Gravity.generate rng ~n:5 Gravity.default in
  Alcotest.check_raises "no pairs"
    (Invalid_argument "Highpri.volumes: no pairs") (fun () ->
      ignore (Highpri.volumes rng ~low ~fraction:0.3 ~pairs:[]));
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Highpri.volumes: fraction must be in (0, 1)") (fun () ->
      ignore (Highpri.volumes rng ~low ~fraction:1.0 ~pairs:[ (0, 1) ]));
  Alcotest.check_raises "nan fraction"
    (Invalid_argument "Highpri.volumes: fraction must be in (0, 1)") (fun () ->
      ignore (Highpri.volumes rng ~low ~fraction:Float.nan ~pairs:[ (0, 1) ]))

(* ------------------------------------------------------------------ *)
(* Diurnal *)

module Diurnal = Dtr_traffic.Diurnal

let test_diurnal_peak_and_trough () =
  let p = Diurnal.default in
  Alcotest.(check (float 1e-9)) "peak at peak_hour" 1.0
    (Diurnal.multiplier p ~hour:20.);
  Alcotest.(check (float 1e-9)) "trough 12h later" 0.35
    (Diurnal.multiplier p ~hour:8.)

let test_diurnal_bounds () =
  let p = Diurnal.default in
  for h = 0 to 23 do
    let m = Diurnal.multiplier p ~hour:(float_of_int h) in
    Alcotest.(check bool) "within [trough, peak]" true
      (m >= p.Diurnal.trough -. 1e-9 && m <= p.Diurnal.peak +. 1e-9)
  done

let test_diurnal_periodic () =
  let p = Diurnal.default in
  Alcotest.(check (float 1e-9)) "24h periodic"
    (Diurnal.multiplier p ~hour:3.)
    (Diurnal.multiplier p ~hour:27.)

let test_diurnal_snapshots_scale () =
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 1 10.;
  Matrix.set tl 1 2 20.;
  let snaps = Diurnal.snapshots Diurnal.default ~hours:[ 20.; 8. ] ~th ~tl in
  Alcotest.(check int) "two snapshots" 2 (List.length snaps);
  (match snaps with
  | (h1, th1, tl1) :: (h2, th2, _) :: _ ->
      Alcotest.(check (float 1e-9)) "hour kept" 20. h1;
      Alcotest.(check (float 1e-9)) "peak unscaled" 10. (Matrix.get th1 0 1);
      Alcotest.(check (float 1e-9)) "peak unscaled low" 20. (Matrix.get tl1 1 2);
      Alcotest.(check (float 1e-9)) "hour kept 2" 8. h2;
      Alcotest.(check (float 1e-9)) "trough scaled" 3.5 (Matrix.get th2 0 1)
  | _ -> Alcotest.fail "expected two snapshots");
  (* Base matrices untouched. *)
  Alcotest.(check (float 1e-9)) "base intact" 10. (Matrix.get th 0 1)

let test_diurnal_rejects () =
  Alcotest.check_raises "bad profile"
    (Invalid_argument "Diurnal: peak must be >= trough") (fun () ->
      ignore
        (Diurnal.multiplier
           { Diurnal.trough = 1.0; peak = 0.5; peak_hour = 12. }
           ~hour:0.))

let prop_volumes_fraction_exact =
  QCheck.Test.make ~name:"high-priority share is always exactly f" ~count:100
    QCheck.(pair (int_range 0 10_000) (float_range 0.05 0.95))
    (fun (seed, fraction) ->
      let rng = Prng.create seed in
      let low = Gravity.generate rng ~n:6 Gravity.default in
      let pairs = Highpri.random_pairs rng ~n:6 ~density:0.4 in
      if pairs = [] then true
      else begin
        let high = Highpri.volumes rng ~low ~fraction ~pairs in
        let f = Matrix.total high /. (Matrix.total high +. Matrix.total low) in
        Float.abs (f -. fraction) < 1e-9
      end)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_traffic"
    [
      ( "matrix",
        [
          Alcotest.test_case "get/set" `Quick test_matrix_get_set;
          Alcotest.test_case "rejects diagonal" `Quick
            test_matrix_rejects_diagonal;
          Alcotest.test_case "rejects negative" `Quick
            test_matrix_rejects_negative;
          Alcotest.test_case "rejects non-finite demand" `Quick
            test_matrix_rejects_non_finite;
          Alcotest.test_case "rejects out of range" `Quick
            test_matrix_rejects_out_of_range;
          Alcotest.test_case "total and scale" `Quick test_matrix_total_and_scale;
          Alcotest.test_case "add accumulates" `Quick test_matrix_add;
          Alcotest.test_case "pairs" `Quick test_matrix_pairs;
          Alcotest.test_case "copy independence" `Quick
            test_matrix_copy_independent;
          Alcotest.test_case "map2" `Quick test_matrix_map2;
          Alcotest.test_case "equal" `Quick test_matrix_equal;
        ] );
      ( "gravity",
        [
          Alcotest.test_case "dense positive" `Quick test_gravity_dense_positive;
          Alcotest.test_case "row sums in Eq.(7) bands" `Quick
            test_gravity_row_sums_in_demand_bands;
          Alcotest.test_case "mass attraction bounded" `Quick
            test_gravity_mass_attraction;
          Alcotest.test_case "reproducible" `Quick test_gravity_reproducible;
          Alcotest.test_case "rejects n<2" `Quick test_gravity_rejects_small;
        ] );
      ( "highpri-random",
        [
          Alcotest.test_case "pair count" `Quick test_random_pairs_count;
          Alcotest.test_case "distinct valid pairs" `Quick
            test_random_pairs_distinct_valid;
          Alcotest.test_case "full density" `Quick test_random_pairs_full_density;
          Alcotest.test_case "rejects bad density" `Quick
            test_random_pairs_rejects;
        ] );
      ( "highpri-sinks",
        [
          Alcotest.test_case "bidirectional pairs" `Quick
            test_sink_pairs_bidirectional;
          Alcotest.test_case "rejects overlap" `Quick
            test_sink_pairs_rejects_overlap;
          Alcotest.test_case "uniform selection" `Quick
            test_select_clients_uniform;
          Alcotest.test_case "local selection" `Quick test_select_clients_local;
          Alcotest.test_case "rejects bad count" `Quick
            test_select_clients_rejects_count;
          Alcotest.test_case "client count for density" `Quick
            test_client_count_for_density;
        ] );
      ( "diurnal",
        [
          Alcotest.test_case "peak and trough" `Quick
            test_diurnal_peak_and_trough;
          Alcotest.test_case "bounds" `Quick test_diurnal_bounds;
          Alcotest.test_case "periodic" `Quick test_diurnal_periodic;
          Alcotest.test_case "snapshots scale" `Quick
            test_diurnal_snapshots_scale;
          Alcotest.test_case "rejects bad profile" `Quick test_diurnal_rejects;
        ] );
      ( "highpri-volumes",
        [
          Alcotest.test_case "fraction respected" `Quick test_volumes_fraction;
          Alcotest.test_case "only selected pairs" `Quick
            test_volumes_only_selected_pairs;
          Alcotest.test_case "heterogeneous volumes" `Quick
            test_volumes_heterogeneous;
          Alcotest.test_case "rejects bad input" `Quick test_volumes_rejects;
          qc prop_volumes_fraction_exact;
        ] );
    ]
