(* Tests for the real-ISP-scale tier: observational equality of the
   CSR flat-array graph core against a naive adjacency reference
   (including parallel links and disconnected graphs), reusable
   Dijkstra/SPF workspaces, arena load projection, demand-only
   evaluation contexts, sparse traffic matrices, the O(links) BA
   sampler, the large presets, and the searches' incremental ranking
   and memo keys against their references. *)

module Graph = Dtr_graph.Graph
module Dijkstra = Dtr_graph.Dijkstra
module Spf = Dtr_graph.Spf
module Prng = Dtr_util.Prng
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Power_law = Dtr_topology.Power_law
module Large = Dtr_topology.Large
module Loads = Dtr_routing.Loads
module Weights = Dtr_routing.Weights
module Eval_ctx = Dtr_routing.Eval_ctx
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Sla = Dtr_cost.Sla
module Ref_evaluate = Dtr_oracle.Ref_evaluate
module Ref_loads = Dtr_oracle.Ref_loads
module Ref_failure = Dtr_oracle.Ref_failure

let mkarc ?(capacity = 1.) ?(delay = 1.) src dst =
  { Graph.src; dst; capacity; delay }

(* ------------------------------------------------------------------ *)
(* CSR core vs. a naive reference on random multigraphs.  The arc list
   is drawn uniformly, so parallel links appear routinely and nothing
   guarantees connectivity — exactly the shapes the flat layout has to
   represent faithfully. *)

let random_multigraph_gen =
  QCheck.Gen.(
    let* n = int_range 2 14 in
    let* m = int_range 0 40 in
    let* seed = int_range 0 1_000_000 in
    return (n, m, seed))

let build_multigraph (n, m, seed) =
  let rng = Prng.create seed in
  let arcs =
    List.init m (fun _ ->
        let u = Prng.int rng n in
        let v = (u + 1 + Prng.int rng (n - 1)) mod n in
        mkarc
          ~capacity:(1. +. float_of_int (Prng.int rng 5))
          ~delay:(0.5 +. Prng.float rng 5.)
          u v)
  in
  (Graph.build ~n arcs, Array.of_list arcs)

(* Naive reference: everything recomputed from the arc records. *)
let ref_out_arcs arcs v =
  Array.of_list
    (List.filteri (fun _ _ -> true)
       (List.filter_map
          (fun (i, a) -> if a.Graph.src = v then Some i else None)
          (List.mapi (fun i a -> (i, a)) (Array.to_list arcs))))

let ref_in_arcs arcs v =
  Array.of_list
    (List.filter_map
       (fun (i, a) -> if a.Graph.dst = v then Some i else None)
       (List.mapi (fun i a -> (i, a)) (Array.to_list arcs)))

let ref_find_arc arcs ~src ~dst =
  let rec go i =
    if i >= Array.length arcs then None
    else if arcs.(i).Graph.src = src && arcs.(i).Graph.dst = dst then Some i
    else go (i + 1)
  in
  go 0

let ref_reachable arcs ~n ~from =
  let seen = Array.make n false in
  seen.(from) <- true;
  let queue = Queue.create () in
  Queue.add from queue;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun a ->
        if a.Graph.src = v && not seen.(a.Graph.dst) then begin
          seen.(a.Graph.dst) <- true;
          incr count;
          Queue.add a.Graph.dst queue
        end)
      arcs
  done;
  !count

(* Lowest-unpaired-twin pairing; a twinless arc pairs with itself.
   Output is the sorted array of normalized (lo, hi) pairs. *)
let ref_link_pairs arcs =
  let m = Array.length arcs in
  let paired = Array.make m false in
  let out = ref [] in
  for a = 0 to m - 1 do
    if not paired.(a) then begin
      let twin = ref (-1) in
      for b = m - 1 downto 0 do
        if
          (not paired.(b)) && b <> a
          && arcs.(b).Graph.src = arcs.(a).Graph.dst
          && arcs.(b).Graph.dst = arcs.(a).Graph.src
        then twin := b
      done;
      paired.(a) <- true;
      if !twin >= 0 then begin
        paired.(!twin) <- true;
        out := (min a !twin, max a !twin) :: !out
      end
      else out := (a, a) :: !out
    end
  done;
  let a = Array.of_list !out in
  Array.sort compare a;
  a

let prop_csr_matches_reference =
  QCheck.Test.make ~name:"CSR accessors = naive reference on multigraphs"
    ~count:300 (QCheck.make random_multigraph_gen) (fun params ->
      let g, arcs = build_multigraph params in
      let n = Graph.node_count g in
      let ok = ref (Graph.arc_count g = Array.length arcs) in
      Array.iteri
        (fun i a ->
          ok :=
            !ok && Graph.arc g i = a
            && Graph.src g i = a.Graph.src
            && Graph.dst g i = a.Graph.dst
            && Graph.capacity g i = a.Graph.capacity
            && Graph.delay g i = a.Graph.delay
            && (Graph.capacities g).(i) = a.Graph.capacity
            && (Graph.delays g).(i) = a.Graph.delay)
        arcs;
      ok := !ok && Graph.arcs g = arcs;
      for v = 0 to n - 1 do
        let out = ref_out_arcs arcs v and inc = ref_in_arcs arcs v in
        ok :=
          !ok
          && Graph.out_arcs g v = out
          && Graph.in_arcs g v = inc
          && Graph.out_degree g v = Array.length out
          && Graph.in_degree g v = Array.length inc
          && Array.sub (Graph.out_arc_ids g)
               (Graph.out_offsets g).(v)
               (Array.length out)
             = out
          && Array.sub (Graph.in_arc_ids g)
               (Graph.in_offsets g).(v)
               (Array.length inc)
             = inc;
        for w = 0 to n - 1 do
          ok := !ok && Graph.find_arc g ~src:v ~dst:w = ref_find_arc arcs ~src:v ~dst:w
        done
      done;
      let sc = Array.for_all (fun v -> ref_reachable arcs ~n ~from:v = n)
          (Array.init n (fun v -> v)) in
      ok := !ok && Graph.is_strongly_connected g = sc;
      let r = Graph.reverse g in
      Array.iteri
        (fun i a ->
          ok :=
            !ok
            && Graph.arc r i
               = {
                   Graph.src = a.Graph.dst;
                   dst = a.Graph.src;
                   capacity = a.Graph.capacity;
                   delay = a.Graph.delay;
                 })
        arcs;
      ok := !ok && Graph.undirected_link_pairs g = ref_link_pairs arcs;
      !ok)

(* ------------------------------------------------------------------ *)
(* Reusable workspaces: a shared arena across a destination sweep must
   reproduce the fresh-allocation runs bit for bit. *)

(* Connected random graph (tree + extras) for routing-level tests. *)
let connected_graph_gen =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* extra = int_range 0 25 in
    let* seed = int_range 0 1_000_000 in
    return (n, extra, seed))

let build_connected (n, extra, seed) =
  let rng = Prng.create seed in
  let arcs = ref [] in
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    arcs := mkarc u v :: mkarc v u :: !arcs
  done;
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    (* Parallel links welcome: draw without deduplication. *)
    if u <> v then arcs := mkarc u v :: !arcs
  done;
  let g = Graph.build ~n !arcs in
  let w = Array.init (Graph.arc_count g) (fun _ -> 1 + Prng.int rng 30) in
  (g, w, rng)

let prop_workspace_dijkstra_identical =
  QCheck.Test.make ~name:"shared Dijkstra workspace = fresh runs" ~count:200
    (QCheck.make connected_graph_gen) (fun params ->
      let g, w, _ = build_connected params in
      let ws = Dijkstra.workspace () in
      let ok = ref true in
      for dst = 0 to Graph.node_count g - 1 do
        let a = Dijkstra.distances_to_unchecked ~ws g ~weights:w ~dst in
        let b = Dijkstra.distances_to g ~weights:w ~dst in
        if a <> b then ok := false
      done;
      !ok)

let prop_workspace_spf_identical =
  QCheck.Test.make ~name:"shared SPF workspace = fresh sweep" ~count:200
    (QCheck.make connected_graph_gen) (fun params ->
      let g, w, _ = build_connected params in
      let ws = Dijkstra.workspace () in
      Spf.all_destinations ~ws g ~weights:w = Spf.all_destinations g ~weights:w)

let prop_for_destinations_active_subset =
  QCheck.Test.make ~name:"for_destinations: active dags = full sweep dags"
    ~count:200 (QCheck.make connected_graph_gen) (fun params ->
      let g, w, rng = build_connected params in
      let n = Graph.node_count g in
      let active = Array.init n (fun _ -> Prng.bool rng) in
      let all = Spf.all_destinations g ~weights:w in
      let sel = Spf.for_destinations g ~weights:w ~active in
      let ok = ref (Array.length sel = n) in
      for t = 0 to n - 1 do
        if active.(t) then ok := !ok && sel.(t) = all.(t)
        else ok := !ok && Spf.is_placeholder sel.(t) && sel.(t).Spf.dst = t
      done;
      !ok)

(* The engine's walk as a context runs it, into a zeroed row with a
   flow buffer reused from walk to walk, against the oracle's fresh
   walk: over full dags and over dags of a subgraph that keeps about a
   fifth of the nodes, numbered densely as a context's core graph is,
   whose rows are shorter than the buffers. *)
let prop_spread_demand_fresh =
  QCheck.Test.make ~name:"spread_demand = Ref_loads"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 3 40 in
         let* extra = int_range 0 25 in
         let* seed = int_range 0 1_000_000 in
         return (n, extra, seed)))
    (fun params ->
      let g, w, rng = build_connected params in
      let n = Graph.node_count g and m = Graph.arc_count g in
      let dags = Spf.all_destinations g ~weights:w in
      let flow = Array.make n 0. and contrib = Array.make m 0. in
      let ok = ref true in
      for dst = 0 to n - 1 do
        let keep = Array.init n (fun v -> v = dst || Prng.int rng 5 = 0) in
        let h, nodes, arcs = Graph.induced g ~keep in
        let at = ref 0 in
        Array.iteri (fun i v -> if v = dst then at := i) nodes;
        List.iter
          (fun (g, dag) ->
            let demand_to_dst =
              Array.init (Graph.node_count g) (fun s ->
                  if s <> dag.Spf.dst && Prng.bool rng then Prng.float rng 50. else 0.)
            in
            let fresh = Array.make (Graph.arc_count g) 0. in
            let want =
              Ref_loads.destination_loads_into g ~dag ~demand_to_dst
                ~flow:(Array.make (Graph.node_count g) 0.) ~contrib:fresh
            in
            Array.fill contrib 0 m 0.;
            let got = Loads.spread_demand g ~dag ~demand_to_dst ~flow ~contrib in
            if got <> want || Array.sub contrib 0 (Graph.arc_count g) <> fresh then
              ok := false)
          [
            (g, dags.(dst));
            (h, Spf.to_destination h ~weights:(Array.map (Array.get w) arcs) ~dst:!at);
          ]
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Demand-only contexts against the from-scratch reference.  A context
   routes each weight group only to the destinations its member classes
   sink demand at, on the group's core graph: its dags there are exact
   at every core node and read unreachable off the core, and every
   other destination holds a placeholder.  Ref_evaluate routes every
   destination on the whole graph (Spf.all_destinations and
   whole-matrix loads summed over ascending destinations, the engine's
   association).  Every evaluation, probe, failure probe and commit
   must price as the reference does at its weights, bitwise, and agree
   with it on the core. *)

let random_sparse_matrix rng ~n ~pairs =
  let m = Matrix.create_sparse n in
  for _ = 1 to pairs do
    let s = Prng.int rng n and t = Prng.int rng n in
    if s <> t then Matrix.set m s t (1. +. Prng.float rng 40.)
  done;
  m

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The group that routes class [k]: the nodes off its core (those of
   the endpoints of every class sharing its weights) and the
   destinations it sinks demand at. *)
let group_core g ~matrices ctx k =
  let n = Graph.node_count g in
  let endpoints = Array.make n false and sinks = Array.make n false in
  Array.iteri
    (fun j m ->
      if Eval_ctx.shares_group ctx j k then
        Matrix.iter m (fun s t _ ->
            endpoints.(s) <- true;
            endpoints.(t) <- true;
            sinks.(t) <- true))
    matrices;
  (Graph.off_core g ~endpoints, sinks)

(* The reference evaluation at [wh]/[wl], with the dags it routed on. *)
let reference g ~matrices ~wh ~wl =
  Ref_evaluate.evaluate_routed g ~wh ~wl ~th:matrices.(0) ~tl:matrices.(1)

let reference_primary ~model ~th ((e : Evaluate.t), dags_h, _) =
  match model with
  | Objective.Load -> e.Evaluate.phi_h
  | Objective.Sla params ->
      (Ref_evaluate.sla params e.Evaluate.graph ~th ~dags_h
         ~phi_h_per_arc:e.Evaluate.phi_h_per_arc)
        .Evaluate.lambda

(* A probe that priced the leading [priced] classes against the
   reference [want] at the probed weights: Φ, the Fortz rows and the
   primary.  For a failure probe, [want] is on the graph without the
   link, whose arc [i] is the context's arc [mapping.(i)]; the failed
   arcs cost zero. *)
let check_probe ?mapping ~what ~model ~th ~priced ctx p want =
  let (e : Evaluate.t), _, _ = want in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let widen row =
    match mapping with
    | None -> row
    | Some mapping ->
        let full = Array.make (Graph.arc_count (Eval_ctx.graph ctx)) 0. in
        Array.iteri (fun i a -> full.(a) <- row.(i)) mapping;
        full
  in
  let phi = [| e.Evaluate.phi_h; e.Evaluate.phi_l |] in
  let rows = [| e.Evaluate.phi_h_per_arc; e.Evaluate.phi_l_per_arc |] in
  if not (same_bits (Array.sub phi 0 priced) (Eval_ctx.probe_phi p)) then
    fail "probe phi";
  for k = 0 to priced - 1 do
    if not (same_bits (widen rows.(k)) (Eval_ctx.probe_phi_row ctx p k)) then
      fail "probe Fortz row %d" k
  done;
  if
    not
      (same_bits
         [| reference_primary ~model ~th want |]
         [| Eval_ctx.probe_primary ~model ~th ctx p |])
  then fail "probe primary"

(* The committed context against the reference at its weights: Φ, the
   primary, the residual, and per class the Fortz and load rows
   bitwise.  At each destination the class sends demand to, its
   demand column is the reference's, its contribution row is
   Ref_loads.destination_loads over the reference dag, and the
   context's dag is the reference one at every core node
   (labels and next-hop sets), its order is the reference order
   restricted to the core, and every off-core node reads unreachable
   with no next hop.  Every other destination has no row, and a
   placeholder dag unless another class of the group sinks demand
   there. *)
let check_reference ~what ~model ~matrices ctx =
  let g = Eval_ctx.graph ctx and th = matrices.(0) in
  let ((e : Evaluate.t), dags_h, dags_l) as want =
    reference g ~matrices ~wh:(Eval_ctx.weights ctx 0) ~wl:(Eval_ctx.weights ctx 1)
  in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  if not (same_bits [| e.Evaluate.phi_h; e.Evaluate.phi_l |] (Eval_ctx.phi ctx))
  then fail "phi";
  if
    not
      (same_bits
         [| reference_primary ~model ~th want |]
         [| Eval_ctx.primary ~model ~th ctx |])
  then fail "primary";
  if not (same_bits e.Evaluate.residual (Eval_ctx.to_evaluate ctx).Evaluate.residual)
  then fail "residual";
  let per_class =
    [|
      (dags_h, e.Evaluate.h_loads, e.Evaluate.phi_h_per_arc);
      (dags_l, e.Evaluate.l_loads, e.Evaluate.phi_l_per_arc);
    |]
  in
  for k = 0 to 1 do
    let dags, loads, fortz = per_class.(k) in
    if not (same_bits fortz (Eval_ctx.phi_per_arc ctx k)) then
      fail "class %d Fortz row" k;
    if not (same_bits loads (Eval_ctx.loads ctx k)) then fail "class %d loads" k;
    let off, sinks = group_core g ~matrices ctx k in
    let core_order o = List.filter (fun v -> not off.(v)) (Array.to_list o) in
    let ctx_dags = Eval_ctx.dags ctx k in
    for dst = 0 to Graph.node_count g - 1 do
      let row = Eval_ctx.contrib_view ctx ~klass:k ~dst in
      let da = dags.(dst) and dd = ctx_dags.(dst) in
      let dem = Eval_ctx.demand_view ctx ~klass:k ~dst in
      match Ref_loads.destination_demand ~dag:da matrices.(k) with
      | None ->
          if Array.length row > 0 then fail "class %d dst %d: a row without demand" k dst;
          if Array.length dem > 0 then fail "class %d dst %d: demand without any" k dst;
          if Spf.is_placeholder dd = sinks.(dst) then
            fail "class %d dst %d: placeholder iff no demand of the group" k dst
      | Some demand_to_dst ->
          if not (same_bits (Ref_loads.destination_loads g ~dag:da ~demand_to_dst) row) then
            fail "class %d dst %d contribution" k dst;
          if not (same_bits demand_to_dst dem) then fail "class %d dst %d demand" k dst;
          Array.iteri
            (fun x o ->
              if o then begin
                if dd.Spf.dist.(x) <> Dijkstra.unreachable || dd.Spf.next_arcs.(x) <> [||]
                then fail "class %d dst %d: off-core node %d is routed" k dst x
              end
              else if
                dd.Spf.dist.(x) <> da.Spf.dist.(x)
                || dd.Spf.next_arcs.(x) <> da.Spf.next_arcs.(x)
              then fail "class %d dst %d: core node %d differs" k dst x)
            off;
          if Array.to_list dd.Spf.order_desc <> core_order da.Spf.order_desc then
            fail "class %d dst %d: order" k dst
    done
  done

(* [w] with [changes] applied. *)
let apply w changes =
  let w = Array.copy w in
  List.iter (fun (a, v) -> w.(a) <- v) changes;
  w

(* The reference at the weights a probe of [klass] under [changes]
   leaves: the class's group moves, the other keeps its weights. *)
let probed_reference ctx ~matrices ~klass changes =
  let w k =
    if Eval_ctx.shares_group ctx k klass then apply (Eval_ctx.weights ctx k) changes
    else Eval_ctx.weights ctx k
  in
  reference (Eval_ctx.graph ctx) ~matrices ~wh:(w 0) ~wl:(w 1)

(* A failure of [arcs] (one link) priced on [priced] classes, against
   the reference on the graph without the link: the severed pairs, and
   when there are none, the probe as {!check_probe} holds it.  Class 0
   alone prices without low-priority demand, which may be severed.
   Returns whether the failure severed demand. *)
let check_failure ~what ~model ~matrices ~priced ctx (a, b) =
  let g = Eval_ctx.graph ctx and th = matrices.(0) in
  let arcs = if a = b then [ a ] else [ a; b ] in
  let f = Eval_ctx.fail_probe ~classes:priced ctx ~arcs in
  let reduced, mapping = Ref_failure.fail_link g ~link:(a, b) in
  let priced_matrices = Array.sub matrices 0 priced in
  let cut = Ref_failure.severed_pairs reduced ~matrices:priced_matrices in
  if cut <> Eval_ctx.probe_unreachable f then
    Alcotest.failf "%s: %d severed pairs, want %d" what
      (Eval_ctx.probe_unreachable f) cut;
  if cut = 0 then begin
    let remap k = Ref_failure.remap_weights (Eval_ctx.weights ctx k) mapping in
    let tl = if priced = 1 then Matrix.create (Graph.node_count g) else matrices.(1) in
    check_probe ~mapping ~what ~model ~th ~priced ctx f
      (reference reduced ~matrices:[| th; tl |] ~wh:(remap 0) ~wl:(remap 1))
  end;
  cut > 0

let prop_ctx_reference =
  QCheck.Test.make ~name:"ctx = from-scratch reference (probe + commit)" ~count:120
    (QCheck.make connected_graph_gen) (fun params ->
      let g, wh, rng = build_connected params in
      let n = Graph.node_count g and m = Graph.arc_count g in
      let wl = Array.init m (fun _ -> 1 + Prng.int rng 30) in
      let th = random_sparse_matrix rng ~n ~pairs:(1 + Prng.int rng 4) in
      let tl = random_sparse_matrix rng ~n ~pairs:(1 + Prng.int rng 8) in
      let matrices = [| th; tl |] and model = Objective.Load in
      let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices in
      check_reference ~what:"create" ~model ~matrices ctx;
      for step = 1 to 12 do
        let what = Printf.sprintf "step %d" step in
        let klass = Prng.int rng 2 in
        let changes = [ (Prng.int rng m, 1 + Prng.int rng 30) ] in
        let want = probed_reference ctx ~matrices ~klass changes in
        let p = Eval_ctx.probe ctx ~klass ~changes in
        check_probe ~what ~model ~th ~priced:2 ctx p want;
        if Prng.bool rng then begin
          Eval_ctx.commit ctx p;
          check_reference ~what:(what ^ " commit") ~model ~matrices ctx
        end
      done;
      (* One single-link failure probe from the final state. *)
      let pairs = Graph.undirected_link_pairs g in
      if Array.length pairs > 0 then
        ignore
          (check_failure ~what:"failure" ~model ~matrices ~priced:2 ctx pairs.(0) : bool);
      true)

(* Demand confined to one component of a disconnected graph: the
   context must price as the reference (and not raise) as long as
   every positive demand is routable; the demandless component is off
   every core. *)
let test_demand_mode_disconnected () =
  (* Two directed triangles with no arcs between them. *)
  let tri base =
    [
      mkarc base (base + 1); mkarc (base + 1) base;
      mkarc (base + 1) (base + 2); mkarc (base + 2) (base + 1);
      mkarc base (base + 2); mkarc (base + 2) base;
    ]
  in
  let g = Graph.build ~n:6 (tri 0 @ tri 3) in
  let m = Graph.arc_count g in
  let th = Matrix.create_sparse 6 and tl = Matrix.create_sparse 6 in
  Matrix.set th 0 2 10.;
  Matrix.set tl 4 3 25.;
  Matrix.set tl 1 2 5.;
  let matrices = [| th; tl |] and model = Objective.Load in
  let wh = Array.make m 1 and wl = Array.make m 2 in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices in
  check_reference ~what:"create" ~model ~matrices ctx;
  let changes = [ (0, 9) ] in
  let want = probed_reference ctx ~matrices ~klass:0 changes in
  let p = Eval_ctx.probe ctx ~klass:0 ~changes in
  check_probe ~what:"probe" ~model ~th ~priced:2 ctx p want;
  Eval_ctx.commit ctx p;
  check_reference ~what:"commit" ~model ~matrices ctx

(* ------------------------------------------------------------------ *)
(* On the demand core. *)

(* A core ring of 4–7 nodes (both directions) with chords, some one-way
   and some doubled by a parallel arc, and two to four stubs, each hung
   over a bridge on a ring node or an earlier stub's node: a tree, or a
   ring through its first node.  The low class's endpoints are two or
   more ring nodes and sometimes a stub node, so its core can take that
   stub in; the high class's are a subset of them, and a third of the
   instances route both classes on one weight vector.  Weights 1–4 make
   equal-cost ties common. *)
let core_instance seed =
  let rng = Prng.create ((seed * 37) + 11) in
  let ring = Prng.int_incl rng 4 7 in
  let arcs = ref [] and total = ref ring in
  let arc u v =
    let capacity = Prng.choose rng [| 20.; 50.; 100. |] in
    arcs := mkarc ~capacity ~delay:(Prng.choose rng [| 1.; 5.; 12. |]) u v :: !arcs
  in
  let link u v =
    arc u v;
    arc v u
  in
  for v = 0 to ring - 1 do
    link v ((v + 1) mod ring)
  done;
  for _ = 1 to Prng.int_incl rng 1 ring do
    let u = Prng.int rng ring and v = Prng.int rng ring in
    if u <> v then
      match Prng.int rng 3 with
      | 0 -> arc u v
      | 1 ->
          link u v;
          arc u v
      | _ -> link u v
  done;
  let stub_nodes = ref [] in
  for _ = 1 to Prng.int_incl rng 2 4 do
    let at = Prng.int rng !total and base = !total and size = Prng.int_incl rng 1 4 in
    total := !total + size;
    link at base;
    for i = 1 to size - 1 do
      link (base + Prng.int rng i) (base + i)
    done;
    if size >= 3 && Prng.bool rng then link (base + size - 1) base;
    stub_nodes := List.init size (fun i -> base + i) @ !stub_nodes
  done;
  let n = !total in
  let g = Graph.build ~n (List.rev !arcs) in
  let pick_ring k =
    let rec go acc =
      if List.length acc = k then acc
      else
        let v = Prng.int rng ring in
        go (if List.mem v acc then acc else v :: acc)
    in
    go []
  in
  let low =
    pick_ring (Prng.int_incl rng 2 ring)
    @
    if Prng.bool rng then [ Prng.choose rng (Array.of_list !stub_nodes) ] else []
  in
  let high = List.filter (fun _ -> Prng.int rng 3 > 0) low in
  let high = if List.length high < 2 then [ List.nth low 0; List.nth low 1 ] else high in
  (* Each endpoint sends to the next one, plus a few more pairs. *)
  let matrix ends scale =
    let m = Matrix.create_sparse n and ends = Array.of_list ends in
    let demand () = scale *. (1. +. Prng.float rng 4.) in
    Array.iteri
      (fun i s -> Matrix.set m s ends.((i + 1) mod Array.length ends) (demand ()))
      ends;
    for _ = 1 to Prng.int rng 3 do
      let s = Prng.choose rng ends and t = Prng.choose rng ends in
      if s <> t then Matrix.set m s t (demand ())
    done;
    m
  in
  let tl = matrix low 1. in
  let th = matrix high 0.5 in
  let narrow () = Array.init (Graph.arc_count g) (fun _ -> Prng.int_incl rng 1 4) in
  let wh = narrow () in
  let weights = if Prng.int rng 3 = 0 then [| wh; wh |] else [| wh; narrow () |] in
  (g, th, tl, weights, rng)

(* Nodes with class-[k] flow on an out-arc. *)
let flow_nodes ctx k =
  let g = Eval_ctx.graph ctx and loads = Eval_ctx.loads ctx k in
  Array.init (Graph.node_count g) (fun x ->
      Array.exists (fun a -> loads.(a) <> 0.) (Graph.out_arcs g x))

(* What the sequences did: commits that gave flow to a node that had
   none, and failure probes priced finite and infinite. *)
let core_stats = [| 0; 0; 0 |]

(* One random sequence of weight probes (1–2 changes on any arc, on
   the core or off it), commits and single-link failure probes (of one
   or both classes), each held to the reference at its weights. *)
let core_sequence ~model seed =
  let g, th, tl, weights, rng = core_instance seed in
  let matrices = [| th; tl |] in
  let ctx = Eval_ctx.create g ~weights ~matrices in
  let what0 = Printf.sprintf "seed %d %s" seed (Objective.model_name model) in
  check_reference ~what:what0 ~model ~matrices ctx;
  let m = Graph.arc_count g in
  for step = 1 to 20 do
    let what = Printf.sprintf "%s step %d" what0 step in
    if Prng.int rng 4 = 0 then begin
      let links = Graph.undirected_link_pairs g in
      let a, b = links.(Prng.int rng (Array.length links)) in
      let priced = Prng.int_incl rng 1 2 in
      let what = Printf.sprintf "%s link (%d, %d)" what a b in
      let i = if check_failure ~what ~model ~matrices ~priced ctx (a, b) then 2 else 1 in
      core_stats.(i) <- core_stats.(i) + 1
    end
    else begin
      let klass = Prng.int rng 2 in
      let rec changes acc k =
        if k = 0 then acc
        else
          let arc = Prng.int rng m in
          if List.mem_assoc arc acc then changes acc k
          else changes ((arc, Prng.int_incl rng 1 6) :: acc) (k - 1)
      in
      let changes = changes [] (Prng.int_incl rng 1 2) in
      let want = probed_reference ctx ~matrices ~klass changes in
      let p = Eval_ctx.probe ctx ~klass ~changes in
      check_probe ~what ~model ~th ~priced:2 ctx p want;
      if Prng.bool rng then begin
        let before = Array.init 2 (flow_nodes ctx) in
        Eval_ctx.commit ctx p;
        check_reference ~what:(what ^ " commit") ~model ~matrices ctx;
        let after = Array.init 2 (flow_nodes ctx) in
        if
          Array.exists2
            (fun b a -> Array.exists2 (fun was is -> is && not was) b a)
            before after
        then core_stats.(0) <- core_stats.(0) + 1
      end
    end
  done

let prop_demand_core =
  QCheck.Test.make ~name:"on the demand core: ctx = from-scratch reference" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.iter
        (fun model -> core_sequence ~model seed)
        [ Objective.Load; Objective.Sla Sla.default ];
      true)

let test_demand_core =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_demand_core in
  ( name,
    speed,
    fun () ->
      Array.fill core_stats 0 3 0;
      run ();
      Array.iteri
        (fun i what ->
          Alcotest.(check bool) (Printf.sprintf "%d %s" core_stats.(i) what) true
            (core_stats.(i) > 0))
        [|
          "commits that gave a node without flow some";
          "survivable failure probes";
          "severing failure probes";
        |] )

(* ------------------------------------------------------------------ *)
(* Sparse matrices: observationally identical to dense under the same
   mutation sequence. *)

let matrix_ops_gen =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* ops = int_range 0 60 in
    let* seed = int_range 0 1_000_000 in
    return (n, ops, seed))

let prop_sparse_matrix_identical =
  QCheck.Test.make ~name:"sparse matrix = dense matrix (same op sequence)"
    ~count:300 (QCheck.make matrix_ops_gen) (fun (n, ops, seed) ->
      let rng = Prng.create seed in
      let d = Matrix.create n and s = Matrix.create_sparse n in
      for _ = 1 to ops do
        let i = Prng.int rng n and j = Prng.int rng n in
        if i <> j then begin
          match Prng.int rng 3 with
          | 0 ->
              let v = Prng.float rng 50. in
              Matrix.set d i j v;
              Matrix.set s i j v
          | 1 ->
              let v = Prng.float rng 10. in
              Matrix.add d i j v;
              Matrix.add s i j v
          | _ ->
              Matrix.set d i j 0.;
              Matrix.set s i j 0.
        end
      done;
      let ok = ref (Matrix.is_sparse s && not (Matrix.is_sparse d)) in
      ok :=
        !ok
        && Matrix.pairs d = Matrix.pairs s
        && Matrix.pair_count d = Matrix.pair_count s
        && Matrix.total d = Matrix.total s
        && Matrix.equal ~eps:0. d s;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          ok := !ok && Matrix.get d i j = Matrix.get s i j
        done
      done;
      (* iter and iter_col emit the same entries in the same order. *)
      let trace m =
        let acc = ref [] in
        Matrix.iter m (fun s t v -> acc := (s, t, v) :: !acc);
        for t = 0 to n - 1 do
          Matrix.iter_col m t (fun s v -> acc := (s, t, v) :: !acc)
        done;
        List.rev !acc
      in
      ok := !ok && trace d = trace s;
      !ok)

(* ------------------------------------------------------------------ *)
(* BA sampler and the large presets. *)

let test_generate_ba_structure () =
  let rng = Prng.create 7 in
  let p =
    {
      Power_law.nodes = 400;
      m0 = 8;
      m = 3;
      capacity = 100.;
      delay_range = (1., 5.);
    }
  in
  let g = Power_law.generate_ba ~hub_capacity:1000. ~hub_degree:20 rng p in
  Alcotest.(check int) "node count" 400 (Graph.node_count g);
  Alcotest.(check bool) "strongly connected" true
    (Graph.is_strongly_connected g);
  (* Every arc has a twin (links are symmetric), and capacities follow
     the hub tier: both endpoints at degree >= hub_degree <-> 1000. *)
  let m = Graph.arc_count g in
  let deg = Array.make 400 0 in
  for a = 0 to m - 1 do
    deg.(Graph.src g a) <- deg.(Graph.src g a) + 1
  done;
  let pairs = Graph.undirected_link_pairs g in
  Alcotest.(check int) "all arcs paired" m (2 * Array.length pairs);
  let tier_ok = ref true in
  for a = 0 to m - 1 do
    let hub = deg.(Graph.src g a) >= 20 && deg.(Graph.dst g a) >= 20 in
    if Graph.capacity g a <> (if hub then 1000. else 100.) then
      tier_ok := false
  done;
  Alcotest.(check bool) "hub capacity tier" true !tier_ok;
  (* Determinism: same seed, same graph. *)
  let g' = Power_law.generate_ba ~hub_capacity:1000. ~hub_degree:20 (Prng.create 7) p in
  Alcotest.(check bool) "deterministic" true (Graph.arcs g = Graph.arcs g')

let test_large_presets () =
  Alcotest.(check int) "six presets" 6 (List.length (Large.names ()));
  List.iter
    (fun name ->
      match Large.find name with
      | None -> Alcotest.fail ("missing preset " ^ name)
      | Some p ->
          if Large.node_count p <= 2000 then begin
            let g = Large.generate (Prng.create 3) p in
            Alcotest.(check int)
              (name ^ " node count") (Large.node_count p)
              (Graph.node_count g);
            Alcotest.(check bool)
              (name ^ " strongly connected") true
              (Graph.is_strongly_connected g);
            let pops = Large.pop_nodes g p in
            Alcotest.(check int) (name ^ " pops") p.Large.pops
              (Array.length pops);
            let sorted = Array.copy pops in
            Array.sort compare sorted;
            let distinct = ref true in
            Array.iteri
              (fun i v ->
                if i > 0 && sorted.(i - 1) = v then distinct := false;
                if v < 0 || v >= Graph.node_count g then distinct := false)
              sorted;
            Alcotest.(check bool) (name ^ " pops distinct + in range") true
              !distinct
          end)
    (Large.names ())

let test_gravity_pop () =
  let g = Large.generate (Prng.create 3) (Option.get (Large.find "ts-1k")) in
  let p = Option.get (Large.find "ts-1k") in
  let pops = Large.pop_nodes g p in
  let n = Graph.node_count g in
  let tm = Gravity.generate_pop (Prng.create 5) ~n ~pops Gravity.default in
  let k = Array.length pops in
  Alcotest.(check bool) "sparse" true (Matrix.is_sparse tm);
  Alcotest.(check int) "PoP pair count" (k * (k - 1)) (Matrix.pair_count tm);
  let is_pop = Array.make n false in
  Array.iter (fun v -> is_pop.(v) <- true) pops;
  let ok = ref true in
  Matrix.iter tm (fun s t v ->
      if (not is_pop.(s)) || not is_pop.(t) || v <= 0. then ok := false);
  Alcotest.(check bool) "entries between distinct PoPs, positive" true !ok;
  Alcotest.check_raises "rejects < 2 PoPs"
    (Invalid_argument "Gravity.generate_pop: need at least 2 PoPs") (fun () ->
      ignore (Gravity.generate_pop (Prng.create 1) ~n:10 ~pops:[| 3 |] Gravity.default))

(* The 1k tier against the reference: the acceptance check of
   demand-only evaluation on a real preset, whose stub rings lie off
   the demand core. *)
let test_demand_mode_ts1k () =
  let p = Option.get (Large.find "ts-1k") in
  let root = Prng.create 11 in
  let topo_rng = Prng.split root in
  let traffic_rng = Prng.split root in
  let weight_rng = Prng.split root in
  let g = Large.generate topo_rng p in
  let n = Graph.node_count g in
  let pops = Large.pop_nodes g p in
  let tl = Gravity.generate_pop traffic_rng ~n ~pops Gravity.default in
  let th = Matrix.create_sparse n in
  Matrix.iter tl (fun s t v ->
      if Prng.float traffic_rng 1.0 < 0.10 then Matrix.set th s t (0.30 *. v));
  let wh = Weights.random weight_rng g in
  let wl = Weights.random weight_rng g in
  let matrices = [| th; tl |] and model = Objective.Load in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices in
  check_reference ~what:"create" ~model ~matrices ctx;
  let rng = Prng.create 13 in
  let m = Graph.arc_count g in
  for step = 1 to 8 do
    let klass = Prng.int rng 2 in
    let changes = [ (Prng.int rng m, 1 + Prng.int rng 30) ] in
    let want = probed_reference ctx ~matrices ~klass changes in
    let p = Eval_ctx.probe ctx ~klass ~changes in
    check_probe ~what:(Printf.sprintf "step %d" step) ~model ~th ~priced:2 ctx p want;
    Eval_ctx.commit ctx p
  done;
  check_reference ~what:"after commits" ~model ~matrices ctx

(* ------------------------------------------------------------------ *)
(* Incremental search bookkeeping vs. the references.  The scaled
   search path keeps a cached arc ranking (repaired from the arcs whose
   cost entries moved) and keys the scan memo by Zobrist hashes shifted
   from a base key.  A search-shaped walk through a scan engine —
   rank, scan one arc's candidate values against a memo, commit the
   best — must keep the ranking and the base key equal to their
   references (a full re-sort and Ref_problem's rehash) after every
   commit, and every summary the scan returns, probed or served from
   the memo, must equal a full evaluation of its setting; on both cost
   models and at every scan-jobs setting. *)

module Problem = Dtr_core.Problem
module Scan = Dtr_core.Scan
module Ranking = Dtr_core.Ranking
module Neighborhood = Dtr_core.Neighborhood
module Lexico = Dtr_cost.Lexico
module Vmemo = Dtr_util.Vmemo

let search_problem ~model =
  let g, _, rng = build_connected (9, 14, 4242) in
  let n = Graph.node_count g in
  let th = random_sparse_matrix rng ~n ~pairs:5 in
  let tl = random_sparse_matrix rng ~n ~pairs:10 in
  Problem.create ~graph:g ~th ~tl ~model

let check_incremental_walk ~model ~scan_jobs () =
  let problem = search_problem ~model in
  let m = Graph.arc_count problem.Problem.graph in
  let lex = Alcotest.testable Lexico.pp (fun a b -> a = b) in
  let rng = Prng.create 77 in
  (* [steps] commits on a context started from [sol], on an engine and
     memo of its own as a search run has; [cls_of] picks each step's
     class. *)
  let walk ~what sol ~steps ~cls_of =
    Scan.with_engine ~jobs:scan_jobs problem @@ fun scan ->
    let memo = Vmemo.create () in
    let ctx = Problem.ctx_of_solution problem sol in
    let rank_h = Ranking.create () and rank_l = Ranking.create () in
    let full_eval cls changes =
      let apply w =
        let w' = Array.copy w in
        List.iter (fun (a, v) -> w'.(a) <- v) changes;
        w'
      in
      let wh = Problem.ctx_weights ctx `H and wl = Problem.ctx_weights ctx `L in
      Problem.objective
        (if Problem.ctx_is_str ctx then Problem.eval_str problem ~w:(apply wh)
         else
           match cls with
           | `H -> Problem.eval_dtr problem ~wh:(apply wh) ~wl
           | `L -> Problem.eval_dtr problem ~wh ~wl:(apply wl))
    in
    for step = 1 to steps do
      let cls = cls_of step in
      let what = Printf.sprintf "%s step %d" what step in
      let cache, cmp =
        match cls with
        | `H -> (rank_h, Problem.ctx_arc_cmp_h problem ctx)
        | `L -> (rank_l, Problem.ctx_arc_cmp_l problem ctx)
      in
      let ranking = Ranking.arcs cache ctx ~cmp m in
      Alcotest.(check (array int))
        (what ^ ": ranking")
        (Neighborhood.rank_by_cost ~cmp m)
        ranking;
      (* One of the costliest arcs, as the searches' samplers favour. *)
      let arc = ranking.(Prng.int rng (min 4 m)) in
      let current = (Problem.ctx_weights_view ctx cls).(arc) in
      let vals =
        Array.of_list
          (List.filter
             (fun v -> v <> current)
             (List.init
                (Weights.max_weight - Weights.min_weight + 1)
                (fun i -> Weights.min_weight + i)))
      in
      let changes_of i = [ (arc, vals.(i)) ] in
      let summaries =
        Scan.evaluate scan ctx ~memo ~cls ~changes_of (Array.length vals)
      in
      Array.iteri
        (fun i (s : Scan.summary) ->
          Alcotest.check lex
            (Printf.sprintf "%s: summary %d" what i)
            (full_eval cls (changes_of i))
            s.Scan.objective)
        summaries;
      (* Commit the best candidate even when it does not improve, so
         every step moves the bookkeeping. *)
      let best = ref 0 in
      Array.iteri
        (fun i (s : Scan.summary) ->
          if Lexico.( < ) s.Scan.objective summaries.(!best).Scan.objective
          then best := i)
        summaries;
      let committed = Scan.commit scan ctx ~cls ~changes:(changes_of !best) in
      Alcotest.check lex
        (what ^ ": committed objective")
        summaries.(!best).Scan.objective
        (Problem.objective committed);
      Alcotest.(check int)
        (what ^ ": base key") (Dtr_oracle.Ref_problem.ctx_base_key ctx)
        (Problem.ctx_base_key ctx)
    done;
    (* The walk revisits settings, so the memo served some summaries. *)
    Alcotest.(check bool) (what ^ ": memo hits") true (Vmemo.hits memo > 0)
  in
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  walk ~what:"STR"
    (Problem.eval_str problem ~w:(Array.make m mid))
    ~steps:12
    ~cls_of:(fun _ -> `H);
  walk ~what:"DTR"
    (Problem.eval_dtr problem ~wh:(Weights.random rng problem.Problem.graph)
       ~wl:(Weights.random rng problem.Problem.graph))
    ~steps:16
    ~cls_of:(fun _ -> if Prng.bool rng then `H else `L)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dtr_scale"
    [
      ( "csr",
        [
          qc prop_csr_matches_reference;
        ] );
      ( "arenas",
        [
          qc prop_workspace_dijkstra_identical;
          qc prop_workspace_spf_identical;
          qc prop_for_destinations_active_subset;
          qc prop_spread_demand_fresh;
        ] );
      ( "demand-mode",
        [
          qc prop_ctx_reference;
          Alcotest.test_case "disconnected components" `Quick
            test_demand_mode_disconnected;
          test_demand_core;
          Alcotest.test_case "ts-1k preset bit-identity" `Slow
            test_demand_mode_ts1k;
        ] );
      ( "sparse-matrix",
        [
          qc prop_sparse_matrix_identical;
        ] );
      ( "large-presets",
        [
          Alcotest.test_case "BA sampler structure" `Quick
            test_generate_ba_structure;
          Alcotest.test_case "presets generate + pops" `Slow test_large_presets;
          Alcotest.test_case "PoP gravity matrix" `Quick test_gravity_pop;
        ] );
      ( "incremental-vs-reference",
        [
          Alcotest.test_case "load model, 1 scan job" `Quick
            (check_incremental_walk ~model:Objective.Load ~scan_jobs:1);
          Alcotest.test_case "load model, 4 scan jobs" `Quick
            (check_incremental_walk ~model:Objective.Load ~scan_jobs:4);
          Alcotest.test_case "SLA model, 1 scan job" `Quick
            (check_incremental_walk ~model:(Objective.Sla Sla.default)
               ~scan_jobs:1);
          Alcotest.test_case "SLA model, 4 scan jobs" `Quick
            (check_incremental_walk ~model:(Objective.Sla Sla.default)
               ~scan_jobs:4);
        ] );
    ]
