(* Tests for Dtr_topology: classic shapes, the random and power-law
   generators, the ISP backbone, and serialization. *)

module Graph = Dtr_graph.Graph
module Prng = Dtr_util.Prng
module Classic = Dtr_topology.Classic
module Random_topo = Dtr_topology.Random_topo
module Power_law = Dtr_topology.Power_law
module Isp = Dtr_topology.Isp
module Topo_io = Dtr_topology.Topo_io

(* ------------------------------------------------------------------ *)
(* Classic *)

let test_triangle () =
  let g = Classic.triangle () in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "arcs" 6 (Graph.arc_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_ring () =
  let g = Classic.ring 7 in
  Alcotest.(check int) "nodes" 7 (Graph.node_count g);
  Alcotest.(check int) "arcs" 14 (Graph.arc_count g);
  for v = 0 to 6 do
    Alcotest.(check int) "degree 2" 2 (Graph.out_degree g v)
  done;
  Alcotest.check_raises "too small"
    (Invalid_argument "Classic.ring: need at least 3 nodes") (fun () ->
      ignore (Classic.ring 2))

let test_full_mesh () =
  let g = Classic.full_mesh 5 in
  Alcotest.(check int) "arcs" 20 (Graph.arc_count g);
  for v = 0 to 4 do
    Alcotest.(check int) "degree 4" 4 (Graph.out_degree g v)
  done

let test_grid () =
  let g = Classic.grid ~rows:3 ~cols:4 () in
  Alcotest.(check int) "nodes" 12 (Graph.node_count g);
  (* 3*3 horizontal + 2*4 vertical = 17 links, 34 arcs *)
  Alcotest.(check int) "arcs" 34 (Graph.arc_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_line () =
  let g = Classic.line 5 in
  Alcotest.(check int) "arcs" 8 (Graph.arc_count g);
  Alcotest.(check int) "end degree" 1 (Graph.out_degree g 0);
  Alcotest.(check int) "middle degree" 2 (Graph.out_degree g 2)

let test_dumbbell () =
  let g = Classic.dumbbell ~capacity:10. ~bottleneck:1. 3 in
  Alcotest.(check int) "nodes" 8 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g);
  (* Bottleneck is the hub-hub link. *)
  match Graph.find_arc g ~src:3 ~dst:4 with
  | Some id ->
      Alcotest.(check (float 0.)) "bottleneck capacity" 1.
        (Graph.arc g id).Graph.capacity
  | None -> Alcotest.fail "hub link missing"

(* ------------------------------------------------------------------ *)
(* Random_topo *)

let test_random_default_shape () =
  let g = Random_topo.generate (Prng.create 1) Random_topo.default in
  Alcotest.(check int) "nodes" 30 (Graph.node_count g);
  Alcotest.(check int) "arcs = 2 x 150" 300 (Graph.arc_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_random_degree_balance () =
  let g = Random_topo.generate (Prng.create 2) Random_topo.default in
  let degs = Array.init 30 (fun v -> Graph.out_degree g v) in
  let lo = Array.fold_left min max_int degs in
  let hi = Array.fold_left max 0 degs in
  (* 150 links over 30 nodes = average degree 10; balanced generator
     should stay within a tight band. *)
  Alcotest.(check bool) "similar degrees" true (hi - lo <= 3)

let test_random_delay_range () =
  let g = Random_topo.generate (Prng.create 3) Random_topo.default in
  Array.iter
    (fun (a : Graph.arc) ->
      Alcotest.(check bool) "delay in [1.2, 15]" true
        (a.Graph.delay >= 1.2 && a.Graph.delay <= 15.))
    (Graph.arcs g)

let test_random_capacity () =
  let g = Random_topo.generate (Prng.create 4) Random_topo.default in
  Array.iter
    (fun (a : Graph.arc) ->
      Alcotest.(check (float 0.)) "500 Mbps" 500. a.Graph.capacity)
    (Graph.arcs g)

let test_random_reproducible () =
  let a = Random_topo.generate (Prng.create 7) Random_topo.default in
  let b = Random_topo.generate (Prng.create 7) Random_topo.default in
  Alcotest.(check string) "same serialization" (Topo_io.to_string a)
    (Topo_io.to_string b)

let test_random_rejects () =
  Alcotest.check_raises "too few links"
    (Invalid_argument "Random_topo.generate: too few links to connect")
    (fun () ->
      ignore
        (Random_topo.generate (Prng.create 1)
           { Random_topo.default with nodes = 10; links = 5 }));
  Alcotest.check_raises "too many links"
    (Invalid_argument "Random_topo.generate: more links than node pairs")
    (fun () ->
      ignore
        (Random_topo.generate (Prng.create 1)
           { Random_topo.default with nodes = 5; links = 11 }))

let test_random_tree_case () =
  let p = { Random_topo.default with nodes = 8; links = 7 } in
  let g = Random_topo.generate (Prng.create 5) p in
  Alcotest.(check int) "tree arcs" 14 (Graph.arc_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

(* ------------------------------------------------------------------ *)
(* Power_law *)

let test_power_law_default_shape () =
  let g = Power_law.generate (Prng.create 1) Power_law.default in
  Alcotest.(check int) "nodes" 30 (Graph.node_count g);
  Alcotest.(check int) "162 links" 162 (Power_law.link_count Power_law.default);
  Alcotest.(check int) "arcs = 2 x 162" 324 (Graph.arc_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_power_law_heavy_tail () =
  let g = Power_law.generate (Prng.create 2) Power_law.default in
  let degs = Power_law.degrees g in
  let hi = Array.fold_left max 0 degs in
  let avg = float_of_int (Array.fold_left ( + ) 0 degs) /. 30. in
  (* Preferential attachment should grow hubs well above the mean. *)
  Alcotest.(check bool) "has hub" true (float_of_int hi > 1.5 *. avg)

let test_power_law_min_degree () =
  let g = Power_law.generate (Prng.create 3) Power_law.default in
  Array.iter
    (fun d -> Alcotest.(check bool) "degree >= m" true (d >= 6))
    (Power_law.degrees g)

let test_power_law_top_degree_nodes () =
  let g = Power_law.generate (Prng.create 4) Power_law.default in
  let top = Power_law.top_degree_nodes g 3 in
  Alcotest.(check int) "three sinks" 3 (Array.length top);
  let degs = Power_law.degrees g in
  let third_best = degs.(top.(2)) in
  Array.iteri
    (fun v d ->
      if not (Array.mem v top) then
        Alcotest.(check bool) "top really top" true (d <= third_best))
    degs

let test_power_law_rejects () =
  Alcotest.check_raises "m > m0"
    (Invalid_argument "Power_law.generate: need 1 <= m <= m0") (fun () ->
      ignore
        (Power_law.generate (Prng.create 1)
           { Power_law.default with m0 = 2; m = 3 }))

(* ------------------------------------------------------------------ *)
(* Isp *)

let test_isp_shape () =
  let g = Isp.generate () in
  Alcotest.(check int) "16 nodes" 16 (Graph.node_count g);
  Alcotest.(check int) "70 arcs" 70 (Graph.arc_count g);
  Alcotest.(check int) "35 links" 35 Isp.link_count;
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_isp_delays_in_range () =
  let g = Isp.generate () in
  Array.iter
    (fun (a : Graph.arc) ->
      Alcotest.(check bool) "delay in [8, 15]" true
        (a.Graph.delay >= 8. -. 1e-9 && a.Graph.delay <= 15. +. 1e-9))
    (Graph.arcs g)

let test_isp_symmetric () =
  let g = Isp.generate () in
  Alcotest.(check int) "35 undirected links" 35
    (Array.length (Graph.undirected_link_pairs g));
  Array.iter
    (fun (a, b) ->
      Alcotest.(check (float 1e-9)) "symmetric delays"
        (Graph.arc g a).Graph.delay (Graph.arc g b).Graph.delay)
    (Graph.undirected_link_pairs g)

let test_isp_city_names () =
  Alcotest.(check string) "node 0" "Seattle" (Isp.city_name 0);
  Alcotest.(check string) "node 15" "Boston" (Isp.city_name 15);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Isp.city_name: out of range") (fun () ->
      ignore (Isp.city_name 16))

let test_isp_great_circle () =
  (* Seattle -> Boston is about 4,000 km. *)
  let d = Isp.great_circle_km (Isp.city_position 0) (Isp.city_position 15) in
  Alcotest.(check bool) "coast to coast" true (d > 3500. && d < 4500.);
  Alcotest.(check (float 1e-9)) "zero distance to self" 0.
    (Isp.great_circle_km (Isp.city_position 3) (Isp.city_position 3))

let test_isp_deterministic () =
  Alcotest.(check string) "no randomness"
    (Topo_io.to_string (Isp.generate ()))
    (Topo_io.to_string (Isp.generate ()))

let test_isp_custom_capacity () =
  let g = Isp.generate ~capacity:100. () in
  Array.iter
    (fun (a : Graph.arc) ->
      Alcotest.(check (float 0.)) "100 Mbps" 100. a.Graph.capacity)
    (Graph.arcs g)

(* ------------------------------------------------------------------ *)
(* Abilene *)

module Abilene = Dtr_topology.Abilene

let test_abilene_shape () =
  let g = Abilene.generate () in
  Alcotest.(check int) "11 nodes" 11 (Graph.node_count g);
  Alcotest.(check int) "28 arcs" 28 (Graph.arc_count g);
  Alcotest.(check int) "14 links" 14 Abilene.link_count;
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_abilene_known_links () =
  let g = Abilene.generate () in
  (* Chicago (8) - New York (9) is a link; Seattle (0) - NY (9) is not. *)
  Alcotest.(check bool) "Chicago-NY" true (Graph.find_arc g ~src:8 ~dst:9 <> None);
  Alcotest.(check bool) "no Seattle-NY" true
    (Graph.find_arc g ~src:0 ~dst:9 = None)

let test_abilene_delays_geographic () =
  let g = Abilene.generate () in
  (* Chicago-NY is ~1,150 km: about 5.7 ms at 200 km/ms. *)
  match Graph.find_arc g ~src:8 ~dst:9 with
  | None -> Alcotest.fail "missing link"
  | Some id ->
      let d = (Graph.arc g id).Graph.delay in
      Alcotest.(check bool) "plausible delay" true (d > 4. && d < 8.)

let test_abilene_capacity () =
  let g = Abilene.generate () in
  Alcotest.(check (float 0.)) "OC-192" 9920. (Graph.arc g 0).Graph.capacity;
  let g100 = Abilene.generate ~capacity:100. () in
  Alcotest.(check (float 0.)) "custom" 100. (Graph.arc g100 0).Graph.capacity

let test_abilene_city_names () =
  Alcotest.(check string) "node 0" "Seattle" (Abilene.city_name 0);
  Alcotest.(check string) "node 10" "WashingtonDC" (Abilene.city_name 10);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Abilene.city_name: out of range") (fun () ->
      ignore (Abilene.city_name 11))

(* ------------------------------------------------------------------ *)
(* Waxman *)

module Waxman = Dtr_topology.Waxman

let test_waxman_connected () =
  for seed = 0 to 4 do
    let g = Waxman.generate (Prng.create seed) Waxman.default in
    Alcotest.(check int) "30 nodes" 30 (Graph.node_count g);
    Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)
  done

let test_waxman_delays_in_range () =
  let g = Waxman.generate (Prng.create 1) Waxman.default in
  Array.iter
    (fun (a : Graph.arc) ->
      Alcotest.(check bool) "delay in range" true
        (a.Graph.delay >= 1.2 -. 1e-9 && a.Graph.delay <= 15. +. 1e-9))
    (Graph.arcs g)

let test_waxman_locality () =
  (* With a small beta, most links should connect nearby nodes: the
     mean linked distance must be well below the mean pairwise
     distance. *)
  let p = { Waxman.default with Waxman.nodes = 40; alpha = 0.9; beta = 0.08 } in
  let g, pos = Waxman.positions (Prng.create 2) p in
  let dist u v =
    let xu, yu = pos.(u) and xv, yv = pos.(v) in
    sqrt (((xu -. xv) ** 2.) +. ((yu -. yv) ** 2.))
  in
  let linked = ref [] in
  Array.iter
    (fun (a : Graph.arc) -> linked := dist a.Graph.src a.Graph.dst :: !linked)
    (Graph.arcs g);
  let all = ref [] in
  for u = 0 to 39 do
    for v = u + 1 to 39 do
      all := dist u v :: !all
    done
  done;
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Alcotest.(check bool) "links are local" true (mean !linked < mean !all)

let test_waxman_alpha_density () =
  (* Higher alpha must produce more links on the same node placement
     (statistically; check with a comfortable margin). *)
  let sparse =
    Waxman.generate (Prng.create 3) { Waxman.default with Waxman.alpha = 0.05 }
  in
  let dense =
    Waxman.generate (Prng.create 3) { Waxman.default with Waxman.alpha = 0.9 }
  in
  Alcotest.(check bool) "alpha increases density" true
    (Graph.arc_count dense > Graph.arc_count sparse)

let test_waxman_rejects () =
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Waxman.generate: alpha must be in (0, 1]") (fun () ->
      ignore
        (Waxman.generate (Prng.create 1) { Waxman.default with Waxman.alpha = 0. }))

(* ------------------------------------------------------------------ *)
(* Transit_stub *)

module Transit_stub = Dtr_topology.Transit_stub

let test_transit_stub_shape () =
  let p = Transit_stub.default in
  let g = Transit_stub.generate (Prng.create 1) p in
  Alcotest.(check int) "node count" (Transit_stub.node_count p)
    (Graph.node_count g);
  Alcotest.(check int) "28 nodes" 28 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_transit_stub_core_mesh () =
  let p = Transit_stub.default in
  let g = Transit_stub.generate (Prng.create 2) p in
  for u = 0 to p.Transit_stub.transit - 1 do
    for v = 0 to p.Transit_stub.transit - 1 do
      if u <> v then
        Alcotest.(check bool) "core is a full mesh" true
          (Graph.find_arc g ~src:u ~dst:v <> None)
    done
  done

let test_transit_stub_capacities () =
  let p = Transit_stub.default in
  let g = Transit_stub.generate (Prng.create 3) p in
  Array.iter
    (fun (a : Graph.arc) ->
      let core =
        Transit_stub.is_transit p a.Graph.src && Transit_stub.is_transit p a.Graph.dst
      in
      Alcotest.(check (float 0.)) "capacity by tier"
        (if core then 1000. else 500.)
        a.Graph.capacity)
    (Graph.arcs g)

let test_transit_stub_is_transit () =
  let p = Transit_stub.default in
  Alcotest.(check bool) "node 0" true (Transit_stub.is_transit p 0);
  Alcotest.(check bool) "node 3" true (Transit_stub.is_transit p 3);
  Alcotest.(check bool) "node 4" false (Transit_stub.is_transit p 4)

let test_transit_stub_single_node_stubs () =
  let p =
    { Transit_stub.default with Transit_stub.stub_size = 1; stubs_per_transit = 3 }
  in
  let g = Transit_stub.generate (Prng.create 4) p in
  Alcotest.(check int) "node count" 16 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_transit_stub_rejects () =
  Alcotest.check_raises "one transit"
    (Invalid_argument "Transit_stub.generate: need >= 2 transit") (fun () ->
      ignore
        (Transit_stub.generate (Prng.create 1)
           { Transit_stub.default with Transit_stub.transit = 1 }))

(* ------------------------------------------------------------------ *)
(* Topo_io *)

let test_io_roundtrip () =
  let g = Isp.generate () in
  match Topo_io.of_string (Topo_io.to_string g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g');
      Alcotest.(check int) "arcs" (Graph.arc_count g) (Graph.arc_count g');
      Alcotest.(check string) "identical" (Topo_io.to_string g)
        (Topo_io.to_string g')

let test_io_comments_and_blanks () =
  let src = "# a comment\n\nnodes 2\narc 0 1 10 1.5\n" in
  match Topo_io.of_string src with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check int) "one arc" 1 (Graph.arc_count g);
      Alcotest.(check (float 1e-9)) "delay kept" 1.5 (Graph.arc g 0).Graph.delay

let test_io_errors () =
  (match Topo_io.of_string "arc 0 1 1 1\n" with
  | Error e ->
      Alcotest.(check string) "missing nodes" "missing 'nodes' directive" e
  | Ok _ -> Alcotest.fail "expected error");
  (match Topo_io.of_string "nodes 2\narc 0 nope 1 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match Topo_io.of_string "nodes 2\nfrobnicate\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown directive error"

let test_io_whitespace_variants () =
  (* Tabs, CRLF line endings, and runs of blanks parse identically to
     the canonical single-space form. *)
  let canonical = "nodes 3\narc 0 1 10 1.5\narc 1 2 20 2.5\n" in
  let messy = "nodes\t3\r\n\r\narc\t0  1\t10   1.5\r\narc 1\t2 20\t2.5\r\n" in
  match (Topo_io.of_string canonical, Topo_io.of_string messy) with
  | Ok a, Ok b ->
      Alcotest.(check string) "same graph" (Topo_io.to_string a)
        (Topo_io.to_string b)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_io_crlf_tab_roundtrip () =
  (* Rewrite a full canonical serialization with CRLF endings and tab
     separators: it must parse back to the byte-identical canonical
     form. *)
  let g = Isp.generate () in
  let s = Topo_io.to_string g in
  let buf = Buffer.create (String.length s * 2) in
  String.iter
    (function
      | ' ' -> Buffer.add_char buf '\t'
      | '\n' -> Buffer.add_string buf "\r\n"
      | c -> Buffer.add_char buf c)
    s;
  match Topo_io.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok g' -> Alcotest.(check string) "identical" s (Topo_io.to_string g')

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_io_rejects_invalid_values () =
  (* Corpus of files that used to parse and then blow up deep inside a
     search; each must now fail at parse time with a line number. *)
  let cases =
    [
      ("nodes 2\narc 0 1 0 1\n", "line 2");
      ("nodes 2\narc 0 1 -5 1\n", "line 2");
      ("nodes 2\narc 0 1 10 -1\n", "line 2");
      ("nodes 2\narc 0 1 nan 1\n", "line 2");
      ("nodes 2\narc 0 1 10 nan\n", "line 2");
      ("nodes 2\narc 0 1 inf 1\n", "line 2");
      ("nodes 2\narc 0 1 10 inf\n", "line 2");
      ("nodes 2\narc 0 1 -inf 1\n", "line 2");
      ("nodes 0\n", "line 1");
      ("nodes -3\n", "line 1");
      ("nodes 2\n# comment\n\narc 0 1 0 1\n", "line 4");
      ("nodes 2\narc 0 1 1\n", "line 2");
      ("nodes 2\narc 0 1 1 1 1\n", "line 2");
      (* A node count above twice the arcs leaves a node without an arc
         and is rejected before anything that size is allocated. *)
      ("nodes 100000000000\n", "line 1:");
      ("nodes 4611686018427387903\n", "line 1:");
      ("# header\nnodes 5\narc 0 1 1 1\n", "line 2:");
      ("nodes 2\narc 0 1 1 1\narc 1 7 1 1\n", "line 3:");
      ("nodes 2\narc 0 1 1 1\narc -1 0 1 1\n", "line 3:");
      ("nodes 2\narc 0 1 1 1\narc 1 1 1 1\n", "line 3:");
    ]
  in
  List.iter
    (fun (src, frag) ->
      match Topo_io.of_string src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error e ->
          if not (contains_substring e frag) then
            Alcotest.failf "error %S for %S does not mention %S" e src frag)
    cases

(* Errors a whole file can have; every other error belongs to one line
   and must name it. *)
let topo_error_located e =
  e = "missing 'nodes' directive" || String.starts_with ~prefix:"line " e

let prop_io_never_raises =
  (* Arbitrary input, and files the writer emits with corpus mutations
     (Dtr_oracle.Mutate), must come back as Ok or Error, never an
     exception. *)
  QCheck.Test.make ~name:"of_string never raises on arbitrary input"
    ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 80)) (int_range 0 1_000_000))
    (fun (s, seed) ->
      let rng = Prng.create seed in
      let g =
        Random_topo.generate rng
          { Random_topo.default with Random_topo.nodes = 6; links = 9 }
      in
      let mutated = Dtr_oracle.Mutate.mutate rng (Topo_io.to_string g) in
      List.for_all
        (fun src ->
          match Topo_io.of_string src with
          | Ok _ -> true
          | Error e -> topo_error_located e)
        [ s; mutated ])

let prop_io_roundtrip_random_graphs =
  QCheck.Test.make ~name:"serialization roundtrips any generated graph"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g =
        Random_topo.generate rng
          { Random_topo.default with Random_topo.nodes = 12; links = 20 }
      in
      match Topo_io.of_string (Topo_io.to_string g) with
      | Error _ -> false
      | Ok g' -> Topo_io.to_string g = Topo_io.to_string g')

let prop_weights_io_roundtrip =
  QCheck.Test.make ~name:"weight serialization roundtrips" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 0 1_000_000))
    (fun (topos, seed) ->
      let rng = Prng.create seed in
      let sets =
        Array.init topos (fun _ ->
            Array.init 17 (fun _ -> Dtr_util.Prng.int_incl rng 1 30))
      in
      match
        Dtr_routing.Weights_io.of_string (Dtr_routing.Weights_io.to_string sets)
      with
      | Error _ -> false
      | Ok back -> back = sets)

let test_io_file_roundtrip () =
  let g = Classic.triangle () in
  let path = Filename.temp_file "dtr_topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo_io.save g path;
      match Topo_io.load path with
      | Error e -> Alcotest.fail e
      | Ok g' ->
          Alcotest.(check string) "roundtrip" (Topo_io.to_string g)
            (Topo_io.to_string g'))

let () =
  Alcotest.run "dtr_topology"
    [
      ( "classic",
        [
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "full mesh" `Quick test_full_mesh;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "dumbbell" `Quick test_dumbbell;
        ] );
      ( "random",
        [
          Alcotest.test_case "default shape" `Quick test_random_default_shape;
          Alcotest.test_case "degree balance" `Quick test_random_degree_balance;
          Alcotest.test_case "delay range" `Quick test_random_delay_range;
          Alcotest.test_case "capacity" `Quick test_random_capacity;
          Alcotest.test_case "reproducible" `Quick test_random_reproducible;
          Alcotest.test_case "rejects bad params" `Quick test_random_rejects;
          Alcotest.test_case "spanning tree case" `Quick test_random_tree_case;
        ] );
      ( "power-law",
        [
          Alcotest.test_case "default shape" `Quick test_power_law_default_shape;
          Alcotest.test_case "heavy tail" `Quick test_power_law_heavy_tail;
          Alcotest.test_case "min degree" `Quick test_power_law_min_degree;
          Alcotest.test_case "top degree nodes" `Quick
            test_power_law_top_degree_nodes;
          Alcotest.test_case "rejects bad params" `Quick test_power_law_rejects;
        ] );
      ( "isp",
        [
          Alcotest.test_case "shape" `Quick test_isp_shape;
          Alcotest.test_case "delays in range" `Quick test_isp_delays_in_range;
          Alcotest.test_case "symmetric" `Quick test_isp_symmetric;
          Alcotest.test_case "city names" `Quick test_isp_city_names;
          Alcotest.test_case "great circle" `Quick test_isp_great_circle;
          Alcotest.test_case "deterministic" `Quick test_isp_deterministic;
          Alcotest.test_case "custom capacity" `Quick test_isp_custom_capacity;
        ] );
      ( "abilene",
        [
          Alcotest.test_case "shape" `Quick test_abilene_shape;
          Alcotest.test_case "known links" `Quick test_abilene_known_links;
          Alcotest.test_case "geographic delays" `Quick
            test_abilene_delays_geographic;
          Alcotest.test_case "capacity" `Quick test_abilene_capacity;
          Alcotest.test_case "city names" `Quick test_abilene_city_names;
        ] );
      ( "waxman",
        [
          Alcotest.test_case "connected" `Quick test_waxman_connected;
          Alcotest.test_case "delays in range" `Quick
            test_waxman_delays_in_range;
          Alcotest.test_case "locality" `Quick test_waxman_locality;
          Alcotest.test_case "alpha drives density" `Quick
            test_waxman_alpha_density;
          Alcotest.test_case "rejects bad params" `Quick test_waxman_rejects;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "shape" `Quick test_transit_stub_shape;
          Alcotest.test_case "core mesh" `Quick test_transit_stub_core_mesh;
          Alcotest.test_case "tiered capacities" `Quick
            test_transit_stub_capacities;
          Alcotest.test_case "is_transit" `Quick test_transit_stub_is_transit;
          Alcotest.test_case "single-node stubs" `Quick
            test_transit_stub_single_node_stubs;
          Alcotest.test_case "rejects bad params" `Quick
            test_transit_stub_rejects;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "whitespace variants" `Quick
            test_io_whitespace_variants;
          Alcotest.test_case "CRLF/tab roundtrip" `Quick
            test_io_crlf_tab_roundtrip;
          Alcotest.test_case "invalid value corpus" `Quick
            test_io_rejects_invalid_values;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_io_never_raises;
          QCheck_alcotest.to_alcotest prop_io_roundtrip_random_graphs;
          QCheck_alcotest.to_alcotest prop_weights_io_roundtrip;
        ] );
    ]
