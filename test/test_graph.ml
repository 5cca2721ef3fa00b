(* Tests for Dtr_graph: Graph construction, Dijkstra (with
   Bellman–Ford and binary-heap oracle properties, Dtr_oracle.Ref_dijkstra),
   and the ECMP SPF DAG. *)

module Graph = Dtr_graph.Graph
module Dijkstra = Dtr_graph.Dijkstra
module Ref_dijkstra = Dtr_oracle.Ref_dijkstra
module Spf = Dtr_graph.Spf
module Prng = Dtr_util.Prng
module Classic = Dtr_topology.Classic

let arc src dst = { Graph.src; dst; capacity = 1.; delay = 1. }

let diamond () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, plus direct 0 -> 3. *)
  Graph.build ~n:4 [ arc 0 1; arc 1 3; arc 0 2; arc 2 3; arc 0 3 ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_build_counts () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "arcs" 5 (Graph.arc_count g)

let test_build_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.build: self-loop")
    (fun () -> ignore (Graph.build ~n:2 [ arc 1 1 ]))

let test_build_rejects_out_of_range () =
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Graph.build: dst out of range") (fun () ->
      ignore (Graph.build ~n:2 [ arc 0 5 ]))

let test_build_rejects_bad_capacity () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Graph.build: non-positive capacity") (fun () ->
      ignore
        (Graph.build ~n:2 [ { Graph.src = 0; dst = 1; capacity = 0.; delay = 1. } ]))

let test_adjacency () =
  let g = diamond () in
  Alcotest.(check int) "out degree of 0" 3 (Graph.out_degree g 0);
  Alcotest.(check int) "in degree of 3" 3 (Graph.in_degree g 3);
  Alcotest.(check int) "out degree of 3" 0 (Graph.out_degree g 3);
  let out0 = Graph.out_arcs g 0 in
  Alcotest.(check bool) "arc ids valid" true
    (Array.for_all (fun id -> (Graph.arc g id).Graph.src = 0) out0)

let test_find_arc () =
  let g = diamond () in
  (match Graph.find_arc g ~src:0 ~dst:3 with
  | Some id ->
      let a = Graph.arc g id in
      Alcotest.(check int) "src" 0 a.Graph.src;
      Alcotest.(check int) "dst" 3 a.Graph.dst
  | None -> Alcotest.fail "expected arc 0 -> 3");
  Alcotest.(check bool) "absent arc" true (Graph.find_arc g ~src:3 ~dst:0 = None)

let test_strongly_connected () =
  Alcotest.(check bool) "diamond is not" false
    (Graph.is_strongly_connected (diamond ()));
  Alcotest.(check bool) "triangle is" true
    (Graph.is_strongly_connected (Classic.triangle ()))

let test_reverse () =
  let g = diamond () in
  let r = Graph.reverse g in
  Alcotest.(check int) "same arc count" (Graph.arc_count g) (Graph.arc_count r);
  let a = Graph.arc g 0 and b = Graph.arc r 0 in
  Alcotest.(check int) "flipped src" a.Graph.dst b.Graph.src;
  Alcotest.(check int) "flipped dst" a.Graph.src b.Graph.dst

let test_add_symmetric () =
  let arcs = Graph.add_symmetric ~capacity:2. ~delay:3. 0 1 [] in
  Alcotest.(check int) "two arcs" 2 (List.length arcs);
  let g = Graph.build ~n:2 arcs in
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g)

let test_undirected_link_pairs () =
  let g = Classic.triangle () in
  let pairs = Graph.undirected_link_pairs g in
  Alcotest.(check int) "three physical links" 3 (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      let x = Graph.arc g a and y = Graph.arc g b in
      Alcotest.(check bool) "twins" true
        (x.Graph.src = y.Graph.dst && x.Graph.dst = y.Graph.src))
    pairs

let test_undirected_link_pairs_lone_arc () =
  let g = Graph.build ~n:2 [ arc 0 1 ] in
  Alcotest.(check (array (pair int int))) "lone arc pairs with itself"
    [| (0, 0) |]
    (Graph.undirected_link_pairs g)

let test_capacities_delays () =
  let g = Graph.build ~n:2 [ { Graph.src = 0; dst = 1; capacity = 7.; delay = 9. } ] in
  Alcotest.(check (array (float 0.))) "capacities" [| 7. |] (Graph.capacities g);
  Alcotest.(check (array (float 0.))) "delays" [| 9. |] (Graph.delays g)

let test_to_dot_mentions_arcs () =
  let g = Classic.triangle () in
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ")

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_dijkstra_line () =
  let g = Classic.line 4 in
  let w = Array.make (Graph.arc_count g) 1 in
  let d = Dijkstra.distances_to g ~weights:w ~dst:3 in
  Alcotest.(check (array int)) "distances" [| 3; 2; 1; 0 |] d

let test_dijkstra_weighted () =
  let g = diamond () in
  (* weights: 0->1:1, 1->3:1, 0->2:5, 2->3:5, 0->3:3 *)
  let w = [| 1; 1; 5; 5; 3 |] in
  let d = Dijkstra.distances_to g ~weights:w ~dst:3 in
  Alcotest.(check int) "via 1" 2 d.(0);
  Alcotest.(check int) "node 1" 1 d.(1);
  Alcotest.(check int) "node 2" 5 d.(2)

let test_dijkstra_unreachable () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let d = Dijkstra.distances_to g ~weights:[| 1 |] ~dst:1 in
  Alcotest.(check int) "reachable" 1 d.(0);
  Alcotest.(check int) "unreachable" Dijkstra.unreachable d.(2)

let test_dijkstra_from () =
  let g = Classic.line 4 in
  let w = Array.make (Graph.arc_count g) 2 in
  let d = Dijkstra.distances_from g ~weights:w ~src:0 in
  Alcotest.(check (array int)) "from 0" [| 0; 2; 4; 6 |] d

let test_dijkstra_rejects_bad_weights () =
  let g = Classic.line 2 in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Dijkstra: weights must be positive") (fun () ->
      ignore (Dijkstra.distances_to g ~weights:[| 0; 1 |] ~dst:0));
  Alcotest.check_raises "length"
    (Invalid_argument "Dijkstra: weights length mismatch") (fun () ->
      ignore (Dijkstra.distances_to g ~weights:[| 1 |] ~dst:0))

(* Random graph generator for property tests. *)
let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* extra = int_range 0 30 in
    let* seed = int_range 0 1_000_000 in
    return (n, extra, seed))

let build_random (n, extra, seed) =
  let rng = Prng.create seed in
  let arcs = ref [] in
  (* random tree then random extra arcs; weights random in [1, 30] *)
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    arcs := arc u v :: arc v u :: !arcs
  done;
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then arcs := arc u v :: !arcs
  done;
  let g = Graph.build ~n !arcs in
  let w = Array.init (Graph.arc_count g) (fun _ -> 1 + Prng.int rng 30) in
  (g, w)

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:150
    (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let a = Dijkstra.distances_to g ~weights:w ~dst in
        let b = Ref_dijkstra.bellman_ford_to g ~weights:w ~dst in
        if a <> b then ok := false
      done;
      !ok)

(* The bucket-queue kernel ([distances_to]) against the retained
   binary-heap reference ([distances_to_heap]): identical arrays on
   every random graph and destination. *)
let prop_dijkstra_bucket_matches_heap =
  QCheck.Test.make ~name:"bucket-queue dijkstra = heap dijkstra" ~count:150
    (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let a = Dijkstra.distances_to g ~weights:w ~dst in
        let b = Ref_dijkstra.distances_to_heap g ~weights:w ~dst in
        if a <> b then ok := false
      done;
      !ok)

(* Edge cases for the bucket queue: maximal weights (largest bucket
   spans), disconnected nodes (queue drains without settling them),
   and a single-node graph (empty weight array, no arcs at all). *)
let test_dijkstra_all_max_weights () =
  let g = Classic.ring 6 in
  let w = Array.make (Graph.arc_count g) 30 in
  for dst = 0 to Graph.node_count g - 1 do
    let a = Dijkstra.distances_to g ~weights:w ~dst in
    let b = Ref_dijkstra.distances_to_heap g ~weights:w ~dst in
    let c = Ref_dijkstra.bellman_ford_to g ~weights:w ~dst in
    Alcotest.(check (array int)) "bucket = heap at max weights" b a;
    Alcotest.(check (array int)) "bucket = bellman-ford at max weights" c a
  done

let test_dijkstra_disconnected () =
  (* Two components: {0,1} linked, {2,3} linked, nothing between. *)
  let g = Graph.build ~n:4 [ arc 0 1; arc 1 0; arc 2 3; arc 3 2 ] in
  let w = [| 7; 7; 7; 7 |] in
  let a = Dijkstra.distances_to g ~weights:w ~dst:0 in
  let b = Ref_dijkstra.distances_to_heap g ~weights:w ~dst:0 in
  Alcotest.(check (array int)) "bucket = heap on disconnected" b a;
  Alcotest.(check int) "own component" 7 a.(1);
  Alcotest.(check int) "other component unreachable" Dijkstra.unreachable a.(2);
  Alcotest.(check int) "other component unreachable" Dijkstra.unreachable a.(3)

let test_dijkstra_single_node () =
  let g = Graph.build ~n:1 [] in
  let a = Dijkstra.distances_to g ~weights:[||] ~dst:0 in
  Alcotest.(check (array int)) "single node" [| 0 |] a;
  Alcotest.(check (array int)) "single node (heap)" [| 0 |]
    (Ref_dijkstra.distances_to_heap g ~weights:[||] ~dst:0)

(* Spf.all_destinations validates once up front (hoisted out of the
   per-destination loop) — it must still reject bad weight arrays. *)
let test_spf_all_destinations_rejects_bad_weights () =
  let g = Classic.line 2 in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Dijkstra: weights must be positive") (fun () ->
      ignore (Spf.all_destinations g ~weights:[| 0; 1 |]));
  Alcotest.check_raises "length"
    (Invalid_argument "Dijkstra: weights length mismatch") (fun () ->
      ignore (Spf.all_destinations g ~weights:[| 1 |]))

let prop_dijkstra_triangle_inequality =
  QCheck.Test.make ~name:"distance never exceeds any arc relaxation" ~count:100
    (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let d = Dijkstra.distances_to g ~weights:w ~dst in
        for id = 0 to Graph.arc_count g - 1 do
          let a = Graph.arc g id in
          if d.(a.Graph.dst) <> Dijkstra.unreachable then
            if d.(a.Graph.src) > w.(id) + d.(a.Graph.dst) then ok := false
        done
      done;
      !ok)

let prop_undirected_pairs_on_symmetric_graphs =
  QCheck.Test.make
    ~name:"symmetric graphs pair every arc with its reverse twin" ~count:80
    QCheck.(pair (int_range 3 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let arcs = ref [] in
      for v = 1 to n - 1 do
        let u = Prng.int rng v in
        arcs := Graph.add_symmetric ~capacity:1. ~delay:1. u v !arcs
      done;
      let g = Graph.build ~n !arcs in
      let pairs = Graph.undirected_link_pairs g in
      Array.length pairs = Graph.arc_count g / 2
      && Array.for_all (fun (a, b) -> a <> b) pairs)

(* ------------------------------------------------------------------ *)
(* Spf *)

let test_spf_ecmp_next_arcs () =
  let g = diamond () in
  (* Make both two-hop paths and the direct path equal cost 2. *)
  let w = [| 1; 1; 1; 1; 2 |] in
  let dag = Spf.to_destination g ~weights:w ~dst:3 in
  Alcotest.(check int) "dist from 0" 2 dag.Spf.dist.(0);
  Alcotest.(check int) "three ECMP next hops at 0" 3
    (Array.length dag.Spf.next_arcs.(0))

let test_spf_no_next_at_dst () =
  let g = Classic.triangle () in
  let w = Array.make (Graph.arc_count g) 1 in
  let dag = Spf.to_destination g ~weights:w ~dst:1 in
  Alcotest.(check int) "dst has no next arcs" 0
    (Array.length dag.Spf.next_arcs.(1))

let test_spf_order_desc_properties () =
  let g = Classic.ring 6 in
  let w = Array.make (Graph.arc_count g) 1 in
  let dag = Spf.to_destination g ~weights:w ~dst:0 in
  Alcotest.(check int) "order excludes dst" 5 (Array.length dag.Spf.order_desc);
  let prev = ref max_int in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "non-increasing distance" true
        (dag.Spf.dist.(v) <= !prev);
      prev := dag.Spf.dist.(v))
    dag.Spf.order_desc

let test_spf_unreachable_empty () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let dag = Spf.to_destination g ~weights:[| 1 |] ~dst:1 in
  Alcotest.(check int) "unreachable node has no next arcs" 0
    (Array.length dag.Spf.next_arcs.(2));
  Alcotest.(check int) "order only includes reachable" 1
    (Array.length dag.Spf.order_desc)

let test_spf_all_destinations () =
  let g = Classic.triangle () in
  let w = Array.make (Graph.arc_count g) 1 in
  let dags = Spf.all_destinations g ~weights:w in
  Alcotest.(check int) "one dag per node" 3 (Array.length dags);
  Array.iteri (fun i dag -> Alcotest.(check int) "dst" i dag.Spf.dst) dags

let test_spf_path_count_diamond () =
  let g = diamond () in
  let w = [| 1; 1; 1; 1; 2 |] in
  let dag = Spf.to_destination g ~weights:w ~dst:3 in
  Alcotest.(check (float 0.)) "three shortest paths" 3.
    (Spf.path_count g dag ~src:0)

let test_spf_first_path () =
  let g = Classic.line 4 in
  let w = Array.make (Graph.arc_count g) 1 in
  let dag = Spf.to_destination g ~weights:w ~dst:3 in
  let path = Spf.first_path g dag ~src:0 in
  Alcotest.(check int) "three hops" 3 (List.length path);
  let last = List.nth path 2 in
  Alcotest.(check int) "ends at dst" 3 (Graph.arc g last).Graph.dst

(* Brute-force path enumeration over the DAG, as an oracle for
   path_count. *)
let count_paths_brute g dag src =
  let rec go v =
    if v = dag.Spf.dst then 1.
    else
      Array.fold_left
        (fun acc id -> acc +. go (Graph.arc g id).Graph.dst)
        0. dag.Spf.next_arcs.(v)
  in
  if dag.Spf.dist.(src) = Dijkstra.unreachable then 0. else go src

let prop_spf_path_count_matches_enumeration =
  QCheck.Test.make ~name:"path_count equals brute-force enumeration" ~count:60
    (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let dag = Spf.to_destination g ~weights:w ~dst in
        for src = 0 to Graph.node_count g - 1 do
          if
            Float.abs
              (Spf.path_count g dag ~src -. count_paths_brute g dag src)
            > 1e-9
          then ok := false
        done
      done;
      !ok)

let test_spf_first_path_unreachable () =
  let g = Graph.build ~n:3 [ arc 0 1 ] in
  let dag = Spf.to_destination g ~weights:[| 1 |] ~dst:1 in
  Alcotest.check_raises "unreachable"
    (Invalid_argument "Spf.first_path: unreachable") (fun () ->
      ignore (Spf.first_path g dag ~src:2))

let prop_spf_next_arcs_decrease_distance =
  QCheck.Test.make
    ~name:"every ECMP next hop strictly decreases remaining distance" ~count:100
    (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let dag = Spf.to_destination g ~weights:w ~dst in
        Array.iteri
          (fun v arcs ->
            Array.iter
              (fun id ->
                let a = Graph.arc g id in
                if
                  not
                    (dag.Spf.dist.(a.Graph.dst) < dag.Spf.dist.(v)
                    && dag.Spf.dist.(v) = w.(id) + dag.Spf.dist.(a.Graph.dst))
                then ok := false)
              arcs)
          dag.Spf.next_arcs
      done;
      !ok)

(* [order_desc] is exactly the (distance desc, id asc) sort of the
   reachable non-destination nodes, over wide weight ranges and with
   failed arcs leaving nodes unreachable. *)
let prop_spf_order_desc_sorted =
  QCheck.Test.make ~name:"order_desc = (dist desc, id asc) sort" ~count:100
    (QCheck.make QCheck.Gen.(pair random_graph_gen (int_range 1 1000)))
    (fun (params, wmax) ->
      let g, w = build_random params in
      let rng = Prng.create wmax in
      let w =
        Array.map
          (fun _ ->
            if Prng.int rng 8 = 0 then Dijkstra.suppressed else 1 + Prng.int rng wmax)
          w
      in
      let n = Graph.node_count g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        let dag = Spf.to_destination g ~weights:w ~dst in
        let dist = dag.Spf.dist in
        let expected =
          List.init n Fun.id
          |> List.filter (fun v -> v <> dst && dist.(v) <> Dijkstra.unreachable)
          |> List.sort (fun a b ->
                 let c = compare dist.(b) dist.(a) in
                 if c <> 0 then c else compare a b)
        in
        if Array.to_list dag.Spf.order_desc <> expected then ok := false
      done;
      !ok)

let prop_spf_reachable_nodes_have_next_arcs =
  QCheck.Test.make ~name:"reachable non-destination nodes have a next hop"
    ~count:100 (QCheck.make random_graph_gen) (fun params ->
      let g, w = build_random params in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let dag = Spf.to_destination g ~weights:w ~dst in
        for v = 0 to Graph.node_count g - 1 do
          if v <> dst && dag.Spf.dist.(v) <> Dijkstra.unreachable then
            if Array.length dag.Spf.next_arcs.(v) = 0 then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Demand core: Graph.off_core against brute-force path enumeration *)

(* A small multigraph of blocks: a base ring with chords, then one to
   four pieces (a ring, a path or one more link), each hung on a node
   already placed, directly (several at one node give it several
   blocks) or over a bridge, and sometimes a separate component.  Each
   link is one arc in a random direction, sometimes doubled by a
   parallel or an anti-parallel arc; only the undirected shape counts.
   Endpoints are a random subset, cut vertices included.  Returns the
   graph, the endpoints, and whether a piece hung over a bridge and
   whether a parallel and an anti-parallel arc were drawn. *)
let block_graph seed =
  let rng = Prng.create seed in
  let arcs = ref [] and n = ref 0 in
  let parallel = ref false and anti = ref false and bridged = ref false in
  let fresh () =
    incr n;
    !n - 1
  in
  let link u v =
    let u, v = if Prng.bool rng then (u, v) else (v, u) in
    arcs := arc u v :: !arcs;
    match Prng.int rng 6 with
    | 0 ->
        parallel := true;
        arcs := arc u v :: !arcs
    | 1 ->
        anti := true;
        arcs := arc v u :: !arcs
    | _ -> ()
  in
  (* A path of [k] fresh nodes from [u]; returns its last node. *)
  let path u k =
    let last = ref u in
    for _ = 1 to k do
      let v = fresh () in
      link !last v;
      last := v
    done;
    !last
  in
  let ring u k = link (path u k) u in
  let base = fresh () in
  let size = Prng.int_incl rng 2 4 in
  ring base size;
  for _ = 1 to Prng.int rng 3 do
    let u = Prng.int rng (size + 1) and v = Prng.int rng (size + 1) in
    if u <> v then link u v
  done;
  for _ = 1 to Prng.int_incl rng 1 4 do
    let at = Prng.int rng !n in
    let at =
      if Prng.int rng 3 = 0 then begin
        bridged := true;
        path at 1
      end
      else at
    in
    match Prng.int rng 3 with
    | 0 -> ring at (Prng.int_incl rng 2 3)
    | 1 -> ignore (path at (Prng.int_incl rng 1 3) : int)
    | _ -> link at (Prng.int rng !n)
  done;
  if Prng.int rng 3 = 0 then begin
    let v = fresh () in
    if Prng.bool rng then ring v 2 else ignore (path v (Prng.int rng 3) : int)
  end;
  let n = !n in
  let arcs = List.filter (fun (a : Graph.arc) -> a.src <> a.dst) !arcs in
  let endpoints = Array.init n (fun _ -> Prng.int rng 4 = 0) in
  (Graph.build ~n arcs, endpoints, !bridged, !parallel && !anti)

(* Undirected neighbours, without repeats. *)
let neighbours g v =
  let out = Array.map (Graph.dst g) (Graph.out_arcs g v) in
  let inc = Array.map (Graph.src g) (Graph.in_arcs g v) in
  List.sort_uniq compare (Array.to_list out @ Array.to_list inc)

(* The nodes on some simple path between two distinct endpoints, by
   enumerating every simple path from every endpoint.  A walk stops at
   the first endpoint it meets: a path that goes on splits there into
   two such paths. *)
let brute_core g endpoints =
  let n = Graph.node_count g in
  let nbrs = Array.init n (neighbours g) in
  let core = Array.make n false and on = Array.make n false in
  let rec walk path v =
    on.(v) <- true;
    List.iter
      (fun w ->
        if not on.(w) then
          if endpoints.(w) then List.iter (fun x -> core.(x) <- true) (w :: path)
          else walk (w :: path) w)
      nbrs.(v);
    on.(v) <- false
  in
  Array.iteri (fun a e -> if e then walk [ a ] a) endpoints;
  core

(* The components of [g] without node [without] (-1: none). *)
let components g ~without =
  let n = Graph.node_count g in
  let nbrs = Array.init n (neighbours g) in
  let seen = Array.make n false in
  if without >= 0 then seen.(without) <- true;
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let members = ref [] in
      let rec go x =
        if not seen.(x) then begin
          seen.(x) <- true;
          members := x :: !members;
          List.iter go nbrs.(x)
        end
      in
      go s;
      comps := !members :: !comps
    end
  done;
  !comps

(* Shapes the generator must reach across the property's cases, and
   how many cases reached each. *)
let core_shapes =
  [|
    "an off-core node"; "a piece over a bridge"; "a parallel and an anti-parallel arc";
    "a cut vertex in three or more blocks"; "an endpoint on a cut vertex";
    "a component without endpoints";
  |]

let core_shapes_seen = Array.make (Array.length core_shapes) 0

let prop_off_core_matches_enumeration =
  QCheck.Test.make ~name:"off_core = no simple path between endpoints" ~count:600
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, endpoints, bridged, both_arcs = block_graph seed in
      let n = Graph.node_count g in
      let off = Graph.off_core g ~endpoints in
      let core = brute_core g endpoints in
      for v = 0 to n - 1 do
        let want = (not endpoints.(v)) && not core.(v) in
        if off.(v) <> want then
          QCheck.Test.fail_reportf "seed %d node %d: off_core %b, enumeration %b" seed v
            off.(v) want
      done;
      (* Removing a node that splits its component into k pieces leaves
         [base + k - 1] components. *)
      let comps = components g ~without:(-1) in
      let base = List.length comps in
      let pieces v = List.length (components g ~without:v) - base + 1 in
      let nodes = List.init n Fun.id in
      let cuts = List.filter (fun v -> pieces v >= 2) nodes in
      List.iteri
        (fun i hit -> if hit then core_shapes_seen.(i) <- core_shapes_seen.(i) + 1)
        [
          Array.exists Fun.id off;
          bridged;
          both_arcs;
          List.exists (fun v -> pieces v >= 3) cuts;
          List.exists (fun v -> endpoints.(v)) cuts;
          List.exists (List.for_all (fun v -> not endpoints.(v))) comps;
        ];
      true)

let test_off_core_enumeration =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_off_core_matches_enumeration in
  ( name,
    speed,
    fun () ->
      Array.fill core_shapes_seen 0 (Array.length core_shapes_seen) 0;
      run ();
      Array.iteri
        (fun i what -> if core_shapes_seen.(i) = 0 then Alcotest.failf "no case had %s" what)
        core_shapes )

let test_off_core_rejects_length () =
  Alcotest.check_raises "length"
    (Invalid_argument "Graph.off_core: endpoints length mismatch") (fun () ->
      ignore (Graph.off_core (diamond ()) ~endpoints:[| true |]))

(* ------------------------------------------------------------------ *)
(* Graph.induced against a filter of the arc list *)

(* Random multigraphs (parallel and anti-parallel arcs, random
   capacities and delays) with random node flags: the subgraph holds
   the kept nodes in ascending order, and its arcs are the arcs with
   both ends kept, one for one in id order, each with its ends
   renumbered and its capacity and delay; its adjacency rows and
   find_arc are those of a graph built from that arc list. *)
let prop_induced =
  QCheck.Test.make ~name:"induced keeps exactly the arcs between kept nodes"
    ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_incl rng 2 8 in
      let arcs =
        List.init (Prng.int rng 25) (fun _ ->
            let u = Prng.int rng n in
            {
              Graph.src = u;
              dst = (u + 1 + Prng.int rng (n - 1)) mod n;
              capacity = float_of_int (Prng.int_incl rng 1 9);
              delay = Prng.float rng 3.;
            })
      in
      let g = Graph.build ~n arcs in
      let keep = Array.init n (fun _ -> Prng.int rng 3 > 0) in
      let h, nodes, ids = Graph.induced g ~keep in
      let want_nodes = List.filter (fun v -> keep.(v)) (List.init n Fun.id) in
      let want_ids =
        List.filter
          (fun id -> keep.(Graph.src g id) && keep.(Graph.dst g id))
          (List.init (Graph.arc_count g) Fun.id)
      in
      let at v =
        let rec find i = function
          | [] -> -1
          | x :: rest -> if x = v then i else find (i + 1) rest
        in
        find 0 want_nodes
      in
      let renumbered =
        List.map
          (fun id ->
            let a = Graph.arc g id in
            { a with Graph.src = at a.Graph.src; dst = at a.Graph.dst })
          want_ids
      in
      let c = List.length want_nodes in
      Array.to_list nodes = want_nodes
      && Array.to_list ids = want_ids
      && Graph.node_count h = c
      && Array.to_list (Graph.arcs h) = renumbered
      && (c = 0
         ||
         let built = Graph.build ~n:c renumbered in
         List.for_all
           (fun v ->
             Graph.out_arcs h v = Graph.out_arcs built v
             && Graph.in_arcs h v = Graph.in_arcs built v
             && List.for_all
                  (fun u -> Graph.find_arc h ~src:v ~dst:u = Graph.find_arc built ~src:v ~dst:u)
                  (List.init c Fun.id))
           (List.init c Fun.id)))

let test_induced_rejects_length () =
  Alcotest.check_raises "length" (Invalid_argument "Graph.induced: keep length mismatch")
    (fun () -> ignore (Graph.induced (diamond ()) ~keep:[| true |]))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "build counts" `Quick test_build_counts;
          Alcotest.test_case "rejects self-loop" `Quick
            test_build_rejects_self_loop;
          Alcotest.test_case "rejects out of range" `Quick
            test_build_rejects_out_of_range;
          Alcotest.test_case "rejects bad capacity" `Quick
            test_build_rejects_bad_capacity;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "find_arc" `Quick test_find_arc;
          Alcotest.test_case "strong connectivity" `Quick test_strongly_connected;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "add_symmetric" `Quick test_add_symmetric;
          Alcotest.test_case "undirected link pairs" `Quick
            test_undirected_link_pairs;
          Alcotest.test_case "lone arc pairs with itself" `Quick
            test_undirected_link_pairs_lone_arc;
          Alcotest.test_case "capacities and delays" `Quick
            test_capacities_delays;
          Alcotest.test_case "to_dot" `Quick test_to_dot_mentions_arcs;
          qc prop_undirected_pairs_on_symmetric_graphs;
          test_off_core_enumeration;
          Alcotest.test_case "off_core rejects a wrong-length mask" `Quick
            test_off_core_rejects_length;
          qc prop_induced;
          Alcotest.test_case "induced rejects a wrong-length mask" `Quick
            test_induced_rejects_length;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "line distances" `Quick test_dijkstra_line;
          Alcotest.test_case "weighted shortest path" `Quick
            test_dijkstra_weighted;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "distances from source" `Quick test_dijkstra_from;
          Alcotest.test_case "rejects bad weights" `Quick
            test_dijkstra_rejects_bad_weights;
          Alcotest.test_case "all max-weight arcs" `Quick
            test_dijkstra_all_max_weights;
          Alcotest.test_case "disconnected components" `Quick
            test_dijkstra_disconnected;
          Alcotest.test_case "single-node graph" `Quick
            test_dijkstra_single_node;
          qc prop_dijkstra_matches_bellman_ford;
          qc prop_dijkstra_bucket_matches_heap;
          qc prop_dijkstra_triangle_inequality;
        ] );
      ( "spf",
        [
          Alcotest.test_case "ECMP next arcs" `Quick test_spf_ecmp_next_arcs;
          Alcotest.test_case "no next arcs at destination" `Quick
            test_spf_no_next_at_dst;
          Alcotest.test_case "order_desc properties" `Quick
            test_spf_order_desc_properties;
          Alcotest.test_case "unreachable handling" `Quick
            test_spf_unreachable_empty;
          Alcotest.test_case "all destinations" `Quick test_spf_all_destinations;
          Alcotest.test_case "all destinations rejects bad weights" `Quick
            test_spf_all_destinations_rejects_bad_weights;
          Alcotest.test_case "path count on diamond" `Quick
            test_spf_path_count_diamond;
          Alcotest.test_case "first path" `Quick test_spf_first_path;
          Alcotest.test_case "first path unreachable" `Quick
            test_spf_first_path_unreachable;
          qc prop_spf_next_arcs_decrease_distance;
          qc prop_spf_reachable_nodes_have_next_arcs;
          qc prop_spf_order_desc_sorted;
          qc prop_spf_path_count_matches_enumeration;
        ] );
    ]
