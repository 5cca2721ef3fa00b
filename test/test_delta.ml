(* Property tests for the incremental evaluation engine: Spf_delta
   against from-scratch SPF, Eval_ctx probes and commits against the
   from-scratch multi-class reference (Dtr_oracle.Ref_multi), and the
   Problem-level API (full evaluations, probes, commits) against
   Dtr_oracle.Ref_objective — on random topologies under random
   weight-change sequences, bitwise. *)

module Prng = Dtr_util.Prng
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Dijkstra = Dtr_graph.Dijkstra
module Metrics = Dtr_util.Metrics
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Highpri = Dtr_traffic.Highpri
module Weights = Dtr_routing.Weights
module Loads = Dtr_routing.Loads
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx
module Multi = Dtr_routing.Multi
module Ref_multi = Dtr_oracle.Ref_multi
module Ref_failure = Dtr_oracle.Ref_failure
module Narrow_moves = Dtr_oracle.Narrow_moves
module Failure_sweep = Dtr_routing.Failure_sweep
module Objective = Dtr_routing.Objective
module Lexico = Dtr_cost.Lexico
module Problem = Dtr_core.Problem
module Ranking = Dtr_core.Ranking
module Neighborhood = Dtr_core.Neighborhood

(* The engine is designed to be bitwise-reproducible (same summation
   order, re-folded totals), so the comparison tolerance is zero. *)
let eps = 0.

(* ------------------------------------------------------------------ *)
(* Random fixtures *)

(* Strongly connected random topology: Waxman and power-law families
   alternate with the degree-balanced random generator (all three emit
   symmetric arcs, so connected implies strongly connected). *)
let random_graph seed =
  let rec go attempt =
    let rng = Prng.create (seed + (1000 * attempt)) in
    let g =
      match (seed + attempt) mod 3 with
      | 0 ->
          Dtr_topology.Waxman.generate rng
            { Dtr_topology.Waxman.default with nodes = 14 }
      | 1 ->
          Dtr_topology.Power_law.generate rng
            { Dtr_topology.Power_law.default with nodes = 14; m0 = 4; m = 2 }
      | _ ->
          Dtr_topology.Random_topo.generate rng
            { Dtr_topology.Random_topo.default with nodes = 14; links = 28 }
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

let random_change rng w =
  let arc = Prng.int rng (Array.length w) in
  let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
  while !v = w.(arc) do
    v := Prng.int_incl rng Weights.min_weight Weights.max_weight
  done;
  (arc, !v)

(* ------------------------------------------------------------------ *)
(* Structural dag comparison *)

let check_dag_equal ~what expected actual =
  Alcotest.(check int) (what ^ ": dst") expected.Spf.dst actual.Spf.dst;
  Alcotest.(check (array int)) (what ^ ": dist") expected.Spf.dist actual.Spf.dist;
  Alcotest.(check (array int))
    (what ^ ": order") expected.Spf.order_desc actual.Spf.order_desc;
  Array.iteri
    (fun v exp ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s: next_arcs(%d)" what v)
        exp actual.Spf.next_arcs.(v))
    expected.Spf.next_arcs

(* ------------------------------------------------------------------ *)
(* Spf_delta vs from-scratch SPF *)

let dag_equal a b =
  a.Spf.dst = b.Spf.dst && a.Spf.dist = b.Spf.dist
  && a.Spf.order_desc = b.Spf.order_desc
  && a.Spf.next_arcs = b.Spf.next_arcs

(* Apply the batch [edits] (arc, new weight; distinct arcs) to [w] in
   place, push it through [Spf_delta.update] from [prev] and check the
   result: every active dag equals the from-scratch one, its distances
   equal Bellman-Ford's (which shares no kernel with either), the dirty
   list is ascending and names exactly the destinations whose dag
   differs from [prev], and every other dag is [prev]'s, shared. *)
let check_batch ?active ~what g w prev edits =
  let changes =
    List.map (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v }) edits
  in
  List.iter (fun (arc, v) -> w.(arc) <- v) edits;
  let next, dirty = Spf_delta.update ?active g ~weights:w ~prev ~changes in
  let scratch =
    match active with
    | None -> Spf.all_destinations g ~weights:w
    | Some a -> Spf.for_destinations g ~weights:w ~active:a
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if not (ascending dirty) then Alcotest.failf "%s: dirty list not ascending" what;
  Array.iteri
    (fun t expected ->
      let what = Printf.sprintf "%s dst %d" what t in
      let is_active = match active with None -> true | Some a -> a.(t) in
      if is_active then begin
        check_dag_equal ~what expected next.(t);
        Alcotest.(check (array int))
          (what ^ ": bellman-ford")
          (Dtr_oracle.Ref_dijkstra.bellman_ford_to g ~weights:w ~dst:t)
          next.(t).Spf.dist
      end;
      let differs = is_active && not (dag_equal prev.(t) expected) in
      if List.mem t dirty <> differs then
        Alcotest.failf "%s: dirty=%b but dag differs=%b" what (List.mem t dirty)
          differs;
      if (not differs) && next.(t) != prev.(t) then
        Alcotest.failf "%s: clean dag not shared" what)
    scratch;
  next

(* [k] distinct random arcs with random new weights in the OSPF range:
   raises and drops mix freely. *)
let random_batch rng w k =
  let rec go acc =
    if List.length acc = k then acc
    else begin
      let arc, v = random_change rng w in
      if List.mem_assoc arc acc then go acc else go ((arc, v) :: acc)
    end
  in
  go []

let spf_delta_matches_scratch seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 7 + 1) in
  let w = Weights.random rng g in
  let dags = ref (Spf.all_destinations g ~weights:w) in
  for step = 1 to 8 do
    dags :=
      check_batch ~what:(Printf.sprintf "seed %d step %d" seed step) g w !dags
        [ random_change rng w ]
  done;
  true

let test_spf_delta_property () =
  QCheck.Test.make ~name:"Spf_delta.update = from-scratch SPF" ~count:15
    QCheck.(int_range 0 10_000)
    spf_delta_matches_scratch

(* Two simultaneous changes (the FindH/FindL two-arc move). *)
let spf_delta_two_changes seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 11 + 3) in
  let w = Weights.random rng g in
  let dags = Spf.all_destinations g ~weights:w in
  let a1, v1 = random_change rng w in
  let a2 = ref (fst (random_change rng w)) in
  while !a2 = a1 do
    a2 := fst (random_change rng w)
  done;
  let a2 = !a2 in
  let v2 =
    let v = ref (Prng.int_incl rng Weights.min_weight Weights.max_weight) in
    while !v = w.(a2) do
      v := Prng.int_incl rng Weights.min_weight Weights.max_weight
    done;
    !v
  in
  ignore
    (check_batch ~what:(Printf.sprintf "2ch seed %d" seed) g w dags
       [ (a1, v1); (a2, v2) ]);
  true

let test_spf_delta_two_changes () =
  QCheck.Test.make ~name:"Spf_delta.update handles two-arc moves" ~count:15
    QCheck.(int_range 0 10_000)
    spf_delta_two_changes

(* ------------------------------------------------------------------ *)
(* Bounded repair under change batches *)

let prop_repair_batches =
  QCheck.Test.make ~name:"repair = scratch on 1-3 change batches" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 17) + 5) in
      let w = Weights.random rng g in
      let dags = ref (Spf.all_destinations g ~weights:w) in
      for step = 1 to 12 do
        let edits = random_batch rng w (1 + Prng.int rng 3) in
        dags :=
          check_batch ~what:(Printf.sprintf "seed %d step %d" seed step) g w
            !dags edits
      done;
      true)

(* Raise every tight out-arc of one node at once (each alone would
   leave the others tight), optionally with a drop into that node in
   the same batch while its label rises. *)
let prop_repair_tight_out_arcs =
  QCheck.Test.make ~name:"repair: all tight out-arcs raised, drop into riser"
    ~count:25
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, with_drop) ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 19) + 3) in
      let w = Weights.random rng g in
      let dags = Spf.all_destinations g ~weights:w in
      let n = Graph.node_count g in
      let t = Prng.int rng n in
      (* The node with the most tight out-arcs towards [t]. *)
      let x = ref (-1) in
      for v = 0 to n - 1 do
        let k = Array.length dags.(t).Spf.next_arcs.(v) in
        if k > 0 && (!x < 0 || k > Array.length dags.(t).Spf.next_arcs.(!x)) then
          x := v
      done;
      let x = !x in
      let raises =
        Array.to_list
          (Array.map (fun a -> (a, w.(a) + 1 + Prng.int rng 5)) dags.(t).Spf.next_arcs.(x))
      in
      let drop =
        if not with_drop then []
        else
          List.filter_map
            (fun a ->
              if w.(a) > 1 && not (List.mem_assoc a raises) then
                Some (a, 1 + Prng.int rng (w.(a) - 1))
              else None)
            (Array.to_list (Graph.in_arcs g x))
          |> function
          | [] -> []
          | d :: _ -> [ d ]
      in
      ignore
        (check_batch ~what:(Printf.sprintf "seed %d dst %d node %d" seed t x) g w dags
           (raises @ drop));
      true)

(* Single-link failures (both arcs suppressed) and their restoration,
   on random graphs and on a dumbbell, where every link is a bridge
   whose failure strands nodes. *)
let test_repair_link_failures () =
  let graphs =
    [ ("dumbbell", Dtr_topology.Classic.dumbbell 3); ("ring", Dtr_topology.Classic.ring 7) ]
    @ List.map (fun seed -> (Printf.sprintf "random %d" seed, random_graph seed)) [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, g) ->
      let rng = Prng.create 41 in
      let w = Weights.random rng g in
      let base = Spf.all_destinations g ~weights:w in
      Array.iter
        (fun (a, b) ->
          let arcs = if a = b then [ a ] else [ a; b ] in
          let what = Printf.sprintf "%s link %d/%d" name a b in
          let saved = List.map (fun x -> (x, w.(x))) arcs in
          let failed =
            check_batch ~what:(what ^ " fail") g w base
              (List.map (fun x -> (x, Dijkstra.suppressed)) arcs)
          in
          let restored =
            check_batch ~what:(what ^ " restore") g w failed saved
          in
          Array.iteri
            (fun t dag ->
              if not (dag_equal dag base.(t)) then
                Alcotest.failf "%s: restore does not round-trip at %d" what t)
            restored)
        (Graph.undirected_link_pairs g))
    graphs;
  (* The dumbbell's bottleneck really strands nodes. *)
  let g = Dtr_topology.Classic.dumbbell 3 in
  let w = Array.make (Graph.arc_count g) 1 in
  let hub = Option.get (Graph.find_arc g ~src:3 ~dst:4) in
  let back = Option.get (Graph.find_arc g ~src:4 ~dst:3) in
  let failed =
    check_batch ~what:"bottleneck" g w
      (Spf.all_destinations g ~weights:w)
      [ (hub, Dijkstra.suppressed); (back, Dijkstra.suppressed) ]
  in
  Alcotest.(check bool) "left leaf cut off from right hub" true
    (failed.(4).Spf.dist.(0) = Dijkstra.unreachable)

let prop_repair_active =
  QCheck.Test.make ~name:"repair: ?active subsets" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 23) + 9) in
      let w = Weights.random rng g in
      let active = Array.init (Graph.node_count g) (fun _ -> Prng.int rng 2 = 0) in
      let dags = ref (Spf.for_destinations g ~weights:w ~active) in
      for step = 1 to 8 do
        let edits = random_batch rng w (1 + Prng.int rng 3) in
        dags :=
          check_batch ~active ~what:(Printf.sprintf "seed %d step %d" seed step) g w
            !dags edits
      done;
      true)

(* A graph of a few hundred nodes: longer paths and wider repairs than
   the 14-node fixtures. *)
let test_repair_large_graph () =
  let rng = Prng.create 2024 in
  let g =
    Dtr_topology.Random_topo.generate rng
      { Dtr_topology.Random_topo.default with nodes = 220; links = 480 }
  in
  Alcotest.(check bool) "connected" true (Graph.is_strongly_connected g);
  let w = Weights.random rng g in
  let dags = ref (Spf.all_destinations g ~weights:w) in
  for step = 1 to 6 do
    let edits = random_batch rng w (1 + Prng.int rng 3) in
    dags := check_batch ~what:(Printf.sprintf "220 nodes step %d" step) g w !dags edits
  done;
  let a, b = (Graph.undirected_link_pairs g).(7) in
  ignore
    (check_batch ~what:"220 nodes failure" g w !dags
       [ (a, Dijkstra.suppressed); (b, Dijkstra.suppressed) ])

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

(* Work counters: every dirty destination is counted once, as moving
   labels or next-hop sets only, and repairs settle labels. *)
let test_repair_counters () =
  with_metrics @@ fun () ->
  let g = random_graph 5 in
  let rng = Prng.create 77 in
  let w = Weights.random rng g in
  let dags = ref (Spf.all_destinations g ~weights:w) in
  let dirty_total = ref 0 and runs0 = counter "dtr_spf_runs_total" in
  for _ = 1 to 20 do
    let changes =
      List.map
        (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v })
        (random_batch rng w 2)
    in
    List.iter (fun c -> w.(c.Spf_delta.arc) <- c.Spf_delta.after) changes;
    let next, dirty = Spf_delta.update g ~weights:w ~prev:!dags ~changes in
    dirty_total := !dirty_total + List.length dirty;
    dags := next
  done;
  Alcotest.(check int) "updates" 20 (counter "dtr_spf_delta_updates_total");
  Alcotest.(check int) "labels moved + next hops only = dirty" !dirty_total
    (counter "dtr_spf_delta_rebuilds_total" + counter "dtr_spf_delta_patches_total");
  Alcotest.(check bool) "repairs settle labels" true
    (counter "dtr_spf_delta_settled_total" > 0);
  Alcotest.(check int) "no full SPF runs" runs0 (counter "dtr_spf_runs_total")

(* Unchanged next-hop sets are shared: at every node whose repaired set
   equals the previous dag's, the repaired dag holds the previous array
   itself, from the pure update and from the scratch one alike.  Each
   batch is priced against the same [prev] a few times (as a scan
   does), then applied. *)
let prop_unchanged_sets_shared =
  QCheck.Test.make ~name:"repair shares every unchanged next-hop set" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 29) + 11) in
      let w = Weights.random rng g in
      let n = Graph.node_count g in
      let s = Spf_delta.scratch () in
      let prev = ref (Spf.all_destinations g ~weights:w) in
      let shared = ref 0 in
      let check what prev dags =
        for t = 0 to n - 1 do
          for x = 0 to n - 1 do
            let was = prev.(t).Spf.next_arcs.(x) and now = dags.(t).Spf.next_arcs.(x) in
            if now = was then begin
              if now != was then
                Alcotest.failf "%s: dst %d node %d: equal set not shared" what t x;
              if dags.(t) != prev.(t) && Array.length was > 0 then incr shared
            end
          done
        done
      in
      for step = 1 to 8 do
        let batch = ref [] in
        for probe = 1 to 3 do
          let edits = random_batch rng w (1 + Prng.int rng 3) in
          let weights = Array.copy w in
          List.iter (fun (arc, v) -> weights.(arc) <- v) edits;
          let changes =
            List.map
              (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v })
              edits
          in
          let what = Printf.sprintf "seed %d step %d probe %d" seed step probe in
          let dags, _ = Spf_delta.update g ~weights ~prev:!prev ~changes in
          check (what ^ " pure") !prev dags;
          Spf_delta.update_scratch s g ~weights ~prev:!prev ~changes;
          check (what ^ " scratch") !prev (Spf_delta.scratch_dags s);
          batch := edits
        done;
        List.iter (fun (arc, v) -> w.(arc) <- v) !batch;
        prev := Spf.all_destinations g ~weights:w
      done;
      !shared > 0)

(* A dag array from [Spf_delta.scratch_copy] is the caller's: the
   scratch's next updates, against the same [prev] and then against the
   copy itself as the new [prev] (as after a commit), leave it
   structurally as it was, and every next-hop set it shared with [prev]
   stays shared.  Eval_ctx.commit installs such copies and relies on
   both. *)
let prop_scratch_copy_owned =
  QCheck.Test.make ~name:"scratch_copy survives the scratch's next updates" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 37) + 3) in
      let w = Weights.random rng g in
      let n = Graph.node_count g in
      let s = Spf_delta.scratch () in
      let prev = ref (Spf.all_destinations g ~weights:w) in
      let update () =
        let edits = random_batch rng w (1 + Prng.int rng 3) in
        let weights = Array.copy w in
        List.iter (fun (arc, v) -> weights.(arc) <- v) edits;
        Spf_delta.update_scratch s g ~weights ~prev:!prev
          ~changes:
            (List.map (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v }) edits);
        edits
      in
      let repaired = ref 0 and shared = ref 0 in
      for step = 1 to 6 do
        let edits = update () in
        let copy = Spf_delta.scratch_copy s and was = !prev in
        let snapshot =
          Array.map
            (fun d ->
              {
                d with
                Spf.dist = Array.copy d.Spf.dist;
                next_arcs = Array.map Array.copy d.Spf.next_arcs;
                order_desc = Array.copy d.Spf.order_desc;
              })
            copy
        in
        let sets = ref [] in
        for t = 0 to n - 1 do
          check_dag_equal ~what:(Printf.sprintf "seed %d step %d dst %d" seed step t)
            (Spf_delta.scratch_dags s).(t) copy.(t);
          if copy.(t) != was.(t) then incr repaired;
          for x = 0 to n - 1 do
            if copy.(t).Spf.next_arcs.(x) == was.(t).Spf.next_arcs.(x) then
              sets := (t, x) :: !sets
          done
        done;
        shared := !shared + List.length !sets;
        let still what =
          for t = 0 to n - 1 do
            check_dag_equal
              ~what:(Printf.sprintf "seed %d step %d %s dst %d" seed step what t)
              snapshot.(t) copy.(t)
          done;
          List.iter
            (fun (t, x) ->
              if copy.(t).Spf.next_arcs.(x) != was.(t).Spf.next_arcs.(x) then
                Alcotest.failf "seed %d step %d %s: dst %d node %d: set no longer shared"
                  seed step what t x)
            !sets
        in
        for _ = 1 to 3 do
          ignore (update () : (int * int) list)
        done;
        still "after updates against the same prev";
        List.iter (fun (arc, v) -> w.(arc) <- v) edits;
        prev := copy;
        for _ = 1 to 3 do
          ignore (update () : (int * int) list)
        done;
        still "after updates against the copy"
      done;
      !repaired > 0 && !shared > 0)

(* A label too large to pack beside a node id in the repair's heap is
   refused midway through a repair, and the scratch stays usable: its
   slots were last filled against the same dags, so a slot that kept
   trusting its undo log would carry the refused repair's labels. *)
let test_repair_label_range () =
  let arc src dst = { Graph.src; dst; capacity = 10.; delay = 1. } in
  let g = Graph.build ~n:3 [ arc 0 1; arc 1 2 ] in
  let prev = Spf.all_destinations g ~weights:[| 1; 1 |] in
  let s = Spf_delta.scratch () in
  let raise_to v =
    Spf_delta.update_scratch s g ~weights:[| v; 1 |] ~prev
      ~changes:[ { Spf_delta.arc = 0; before = 1; after = v } ]
  in
  raise_to 5;
  let huge = 1 lsl 60 in
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Spf_delta.update: distance label out of range") (fun () ->
      raise_to huge);
  raise_to 3;
  Array.iteri
    (fun t dag ->
      check_dag_equal ~what:(Printf.sprintf "after refusal, dst %d" t) dag
        (Spf_delta.scratch_dags s).(t))
    (Spf.all_destinations g ~weights:[| 3; 1 |])

(* ------------------------------------------------------------------ *)
(* The same-flow rule: a repaired destination that
   [Spf_delta.scratch_same_flows_at] reports keeps every flow toward
   it, so its re-projection can be skipped. *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* Weights from 1-3, so equal-cost ties are common, and raise/drop
   batches of one to three arcs within the same range.  Demands span
   sixteen orders of magnitude, so a re-associated flow sum shows.
   Every flagged destination is checked in every case; that the rule
   is neither vacuous nor total is checked once over all cases, since
   one small graph may flag none of its dirty destinations. *)
let same_flow_flagged = ref 0 and same_flow_dirty = ref 0

let prop_same_flows =
  QCheck.Test.make ~name:"same-flow destinations keep their loads bitwise" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let rng = Prng.create ((seed * 31) + 7) in
      let n = Graph.node_count g and m = Graph.arc_count g in
      let narrow () = 1 + Prng.int rng 3 in
      let w = Array.init m (fun _ -> narrow ()) in
      let s = Spf_delta.scratch () in
      let prev = ref (Spf.all_destinations g ~weights:w) in
      let flagged = same_flow_flagged and dirty = same_flow_dirty in
      for step = 1 to 10 do
        let batch = ref [] in
        for probe = 1 to 3 do
          let edits = ref [] in
          while List.length !edits < 1 + Prng.int rng 3 do
            let arc = Prng.int rng m and v = narrow () in
            if v <> w.(arc) && not (List.mem_assoc arc !edits) then
              edits := (arc, v) :: !edits
          done;
          let weights = Array.copy w in
          List.iter (fun (arc, v) -> weights.(arc) <- v) !edits;
          let changes =
            List.map
              (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v })
              !edits
          in
          Spf_delta.update_scratch s g ~weights ~prev:!prev ~changes;
          let dags = Spf_delta.scratch_dags s in
          for i = 0 to Spf_delta.scratch_dirty s - 1 do
            incr dirty;
            let t = Spf_delta.scratch_dirty_at s i in
            if Spf_delta.scratch_same_flows_at s i then begin
              incr flagged;
              let demand_to_dst =
                Array.init n (fun v ->
                    if v = t then 0.
                    else Prng.float rng 1. *. (10. ** float_of_int (Prng.int rng 17)))
              in
              let before = Loads.destination_loads g ~dag:!prev.(t) ~demand_to_dst in
              let after = Loads.destination_loads g ~dag:dags.(t) ~demand_to_dst in
              if not (same_bits before after) then
                Alcotest.failf "seed %d step %d probe %d: dst %d reported same-flow" seed
                  step probe t
            end
          done;
          batch := !edits
        done;
        List.iter (fun (arc, v) -> w.(arc) <- v) !batch;
        prev := Spf.all_destinations g ~weights:w
      done;
      true)

let test_same_flows =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_same_flows in
  ( name,
    speed,
    fun () ->
      same_flow_flagged := 0;
      same_flow_dirty := 0;
      run ();
      if not (!same_flow_flagged > 0 && !same_flow_flagged < !same_flow_dirty) then
        Alcotest.failf "the rule flagged %d of %d dirty destinations over all cases"
          !same_flow_flagged !same_flow_dirty )

(* No next-hop set changes, yet the flow sum at h re-associates: u
   (raised behind h, its only arc) moves ahead of p among h's upstream
   neighbours.  With demands 1, 1e16 and 1 at h, p and u the old order
   adds (1 + 1e16) + 1 = 1e16 on h->t, the new one (1 + 1) + 1e16. *)
let test_same_flows_counterexample () =
  let t = 0 and h = 1 and u = 2 and p = 3 in
  let arc src dst = { Graph.src; dst; capacity = 10.; delay = 1. } in
  let g = Graph.build ~n:4 [ arc h t; arc u h; arc p h ] in
  let w = [| 1; 1; 2 |] in
  let prev = Spf.all_destinations g ~weights:w in
  let weights = [| 1; 3; 2 |] in
  let s = Spf_delta.scratch () in
  Spf_delta.update_scratch s g ~weights ~prev
    ~changes:[ { Spf_delta.arc = 1; before = 1; after = 3 } ];
  let dags = Spf_delta.scratch_dags s in
  Array.iteri
    (fun x set ->
      if set != dags.(t).Spf.next_arcs.(x) then
        Alcotest.failf "next-hop set of node %d changed" x)
    prev.(t).Spf.next_arcs;
  let at = ref (-1) in
  for i = 0 to Spf_delta.scratch_dirty s - 1 do
    if Spf_delta.scratch_dirty_at s i = t then at := i
  done;
  Alcotest.(check bool) "t is dirty" true (!at >= 0);
  Alcotest.(check bool) "t not reported same-flow" false
    (Spf_delta.scratch_same_flows_at s !at);
  let demand_to_dst = [| 0.; 1.; 1.; 1e16 |] in
  let load dag = (Loads.destination_loads g ~dag ~demand_to_dst).(0) in
  Alcotest.(check (float 0.)) "old h->t" 1e16 (load prev.(t));
  Alcotest.(check (float 0.)) "new h->t" 1.0000000000000002e16 (load dags.(t))

(* ------------------------------------------------------------------ *)
(* Repairs on a demand core: a repair on the subgraph of a demand
   core (Graph.off_core), numbered densely (Graph.induced), runs the
   kernel under the changes between core nodes, in core ids.  At every
   core node of a core destination it is the full graph's repair. *)

(* A graph from directed arcs [(u, v, w)], and its weight vector. *)
let weighted n arcs =
  let arc (u, v, _) = { Graph.src = u; dst = v; capacity = 10.; delay = 1. } in
  (Graph.build ~n (List.map arc arcs), Array.of_list (List.map (fun (_, _, w) -> w) arcs))

let arc_id g u v = Option.get (Graph.find_arc g ~src:u ~dst:v)

let endpoints_of n nodes = Array.init n (fun v -> List.mem v nodes)

let core_order off order = List.filter (fun v -> not off.(v)) (Array.to_list order)

(* The core of [g] without the [off] nodes: its graph and the maps
   from its node and arc ids to [g]'s and back. *)
type core = { h : Graph.t; nodes : int array; arcs : int array; node_at : int array; arc_at : int array }

let core_of g ~off =
  let h, nodes, arcs = Graph.induced g ~keep:(Array.map not off) in
  let inverse size map =
    let at = Array.make size (-1) in
    Array.iteri (fun i x -> at.(x) <- i) map;
    at
  in
  { h; nodes; arcs; node_at = inverse (Graph.node_count g) nodes;
    arc_at = inverse (Graph.arc_count g) arcs }

(* A dag of [g] at the core's nodes, in core ids: exact there, as a
   shortest path between core nodes stays on the core. *)
let dag_on_core c (d : Spf.dag) =
  {
    Spf.dst = c.node_at.(d.Spf.dst);
    dist = Array.map (fun v -> d.Spf.dist.(v)) c.nodes;
    next_arcs = Array.map (fun v -> Array.map (Array.get c.arc_at) d.Spf.next_arcs.(v)) c.nodes;
    order_desc =
      Array.of_list
        (List.filter_map
           (fun v -> if c.node_at.(v) >= 0 then Some c.node_at.(v) else None)
           (Array.to_list d.Spf.order_desc));
  }

(* The changes of [edits] on [w], and those of them between core
   nodes, in core ids: the list a repair on the core's graph takes. *)
let split_changes g ~off w edits =
  let c = core_of g ~off in
  let changes =
    List.map (fun (arc, v) -> { Spf_delta.arc; before = w.(arc); after = v }) edits
  in
  let on_core (ch : Spf_delta.change) =
    let j = c.arc_at.(ch.arc) in
    if j < 0 then None else Some { ch with arc = j }
  in
  (changes, List.filter_map on_core changes)

(* Repair [prev] (dags of [g]) on the core's graph into [s], under the
   weights [edits] give [w] and the edits between core nodes, all in
   core ids; returns the core. *)
let repair_on_core s g ~off w prev edits =
  let c = core_of g ~off in
  let weights = Array.copy w in
  List.iter (fun (arc, v) -> weights.(arc) <- v) edits;
  let _, kept = split_changes g ~off w edits in
  Spf_delta.update_scratch s c.h ~weights:(Array.map (Array.get weights) c.arcs)
    ~prev:(Array.map (fun v -> dag_on_core c prev.(v)) c.nodes)
    ~changes:kept;
  c

(* Price [edits] on [w] (left as it is) from [prev] with the scratch
   update on the core's graph and the pure one on the full graph, and
   check the core repair's dags: its dirty list is the full repair's
   core destinations that a core change touches; at every core
   destination, every core node's label and next-hop set are the full
   repair's, the core nodes keep the full repair's order among
   themselves, and the order is sorted by the core repair's labels.
   Returns whether the full repair moved an off-core node toward a
   core destination: one the core repair never holds. *)
let check_masked ?(s = Spf_delta.scratch ()) ~what g ~off w prev edits =
  let weights = Array.copy w in
  List.iter (fun (arc, v) -> weights.(arc) <- v) edits;
  let changes, kept = split_changes g ~off w edits in
  let c = repair_on_core s g ~off w prev edits in
  let full, dirty = Spf_delta.update g ~weights ~prev ~changes in
  let masked = Spf_delta.scratch_dags s in
  Alcotest.(check (list int)) (what ^ ": dirty list")
    (List.filter
       (fun t ->
         (not off.(t))
         && List.exists (Spf_delta.touches c.h (dag_on_core c prev.(t))) kept)
       dirty)
    (List.init (Spf_delta.scratch_dirty s) (fun i ->
         c.nodes.(Spf_delta.scratch_dirty_at s i)));
  let skipped = ref false in
  Array.iteri
    (fun i (d : Spf.dag) ->
      let t = c.nodes.(i) in
      let was = prev.(t) and want = full.(t) in
      let what = Printf.sprintf "%s dst %d" what t in
      Array.iteri
        (fun x flagged ->
          if flagged then begin
            if
              want.Spf.dist.(x) <> was.Spf.dist.(x)
              || want.Spf.next_arcs.(x) <> was.Spf.next_arcs.(x)
            then skipped := true
          end
          else begin
            let cx = c.node_at.(x) in
            if d.Spf.dist.(cx) <> want.Spf.dist.(x) then
              Alcotest.failf "%s: node %d label %d, unmasked %d" what x d.Spf.dist.(cx)
                want.Spf.dist.(x);
            if Array.map (Array.get c.arcs) d.Spf.next_arcs.(cx) <> want.Spf.next_arcs.(x)
            then
              Alcotest.failf "%s: node %d next hops differ from the unmasked ones" what x
          end)
        off;
      if
        Array.to_list (Array.map (Array.get c.nodes) d.Spf.order_desc)
        <> core_order off want.Spf.order_desc
      then Alcotest.failf "%s: core nodes out of the unmasked order" what;
      let o = d.Spf.order_desc and l = d.Spf.dist in
      for i = 1 to Array.length o - 1 do
        let a = o.(i - 1) and b = o.(i) in
        if not (l.(a) > l.(b) || (l.(a) = l.(b) && a < b)) then
          Alcotest.failf "%s: order not sorted by the masked labels" what
      done)
    masked;
  !skipped

(* Stubs hung on a graph of [n] nodes: one to three rings or paths of
   fresh nodes, each on a node already placed (a core node or an
   earlier stub's), directly or over a bridge.  Returns the node count
   and the stubs' links, each to be built as two opposite arcs. *)
let stub_links rng n =
  let total = ref n and links = ref [] in
  let fresh () =
    incr total;
    !total - 1
  in
  for _ = 1 to Prng.int_incl rng 1 3 do
    let at = Prng.int rng !total in
    let first = fresh () in
    links := (at, first) :: !links;
    let last = ref first in
    for _ = 2 to Prng.int_incl rng 1 3 do
      let v = fresh () in
      links := (!last, v) :: !links;
      last := v
    done;
    match Prng.int rng 3 with
    | 0 when !last <> first -> links := (!last, at) :: !links (* a ring through [at] *)
    | 1 when !last <> first -> links := (!last, first) :: !links (* a ring over a bridge *)
    | _ -> ()
  done;
  (!total, List.rev !links)

(* Random rings with chords, stubs hung on them, weights 1–3 and two to
   four endpoints on the ring; batches of one to three raises, drops,
   failures and restores, each priced on the core's graph against the
   same [prev] and sometimes applied.  Counts the core repairs whose
   full counterpart moved an off-core node. *)
let masked_skips = ref 0

let prop_masked_repairs =
  QCheck.Test.make ~name:"masked repair = unmasked repair on the demand core" ~count:300
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create ((seed * 13) + 5) in
      let n = Prng.int_incl rng 4 7 in
      let total, stubs = stub_links rng n in
      let ring = List.init n (fun v -> (v, (v + 1) mod n)) in
      let chords =
        List.filter_map
          (fun _ ->
            let u = Prng.int rng n and v = Prng.int rng n in
            if u = v then None else Some (u, v))
          (List.init (Prng.int_incl rng 0 n) Fun.id)
      in
      let both = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) stubs in
      let weight () = Prng.int_incl rng 1 3 in
      let g, w =
        weighted total (List.map (fun (u, v) -> (u, v, weight ())) (ring @ chords @ both))
      in
      let m = Graph.arc_count g in
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Prng.int rng n in
          if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
      in
      let off =
        Graph.off_core g ~endpoints:(endpoints_of total (pick [] (Prng.int_incl rng 2 4)))
      in
      let s = Spf_delta.scratch () in
      let prev = ref (Spf.all_destinations g ~weights:w) in
      for step = 1 to 10 do
        let rec batch acc k =
          if k = 0 then acc
          else
            let arc = Prng.int rng m in
            let v =
              if w.(arc) = Dijkstra.suppressed || Prng.int rng 6 > 0 then weight ()
              else Dijkstra.suppressed
            in
            if v = w.(arc) || List.mem_assoc arc acc then batch acc k
            else batch ((arc, v) :: acc) (k - 1)
        in
        let edits = batch [] (Prng.int_incl rng 1 3) in
        let what = Printf.sprintf "seed %d step %d" seed step in
        if check_masked ~s ~what g ~off w !prev edits then incr masked_skips;
        if Prng.bool rng then begin
          List.iter (fun (arc, v) -> w.(arc) <- v) edits;
          prev := Spf.all_destinations g ~weights:w
        end
      done;
      true)

let test_masked_repairs =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_masked_repairs in
  ( name,
    speed,
    fun () ->
      masked_skips := 0;
      run ();
      if !masked_skips = 0 then
        Alcotest.fail "no full repair moved an off-core node" )

(* A core ring 0-1-2-3 and a stub ring 4-5-6 hung on 0 over the bridge
   0-4; the endpoints 1, 2 and 3 leave 0 in the core and 4, 5, 6 off
   it.  Toward 2: d(1) = d(3) = 1, d(0) = 2 over 1 (over 3 it is 11),
   d(4) = 4, d(5) = 5 and d(6) = 6.  The core's nodes and arcs come
   first, so their ids are the same in the core's numbering. *)
let stub_ring () =
  let g, w =
    weighted 7
      [
        (0, 1, 1); (1, 0, 1); (1, 2, 1); (2, 1, 1); (2, 3, 1); (3, 2, 1);
        (3, 0, 10); (0, 3, 10); (0, 4, 2); (4, 0, 2); (4, 5, 1); (5, 4, 1);
        (5, 6, 1); (6, 5, 1); (6, 4, 2); (4, 6, 1);
      ]
  in
  let off = Graph.off_core g ~endpoints:(endpoints_of 7 [ 1; 2; 3 ]) in
  Alcotest.(check (array bool)) "off-core nodes"
    [| false; false; false; false; true; true; true |] off;
  (g, w, off, Spf.all_destinations g ~weights:w)

(* The stub is not on the core's graph: each batch makes the full
   repair move the stub (0's label rises toward 2, falls toward 3; arcs
   inside the stub rise and fall; the uplink 4 -> 0 falls; the bridge
   fails), and the repair on the core's graph, which takes none of the
   stub's changes, still matches it at every core node. *)
let test_masked_stub_untouched () =
  let g, w, off, prev = stub_ring () in
  let a = arc_id g in
  List.iter
    (fun (what, edits) ->
      Alcotest.(check bool) (what ^ ": the core repair skipped a stub node") true
        (check_masked ~what g ~off w prev edits))
    [
      ("0's label rises", [ (a 0 1, 3) ]);
      ("0's label falls", [ (a 0 3, 1) ]);
      ("stub arcs move", [ (a 5 4, 3); (a 6 4, 3); (a 4 0, 3) ]);
      ("a stub arc falls", [ (a 6 4, 1) ]);
      ("the uplink falls", [ (a 4 0, 1) ]);
      ("the bridge fails", [ (a 0 4, Dijkstra.suppressed); (a 4 0, Dijkstra.suppressed) ]);
    ]

(* Never seed a core node from an off-core label.  Raising 0 -> 1 to 20
   lifts 0's label toward 2 from 2 to 11, but the stub still holds
   d(4) = 4, so 0 -> 4 would seed 0 at 2 + 4 = 6; dropping 0 -> 4 to 1
   in the same batch would seed it at 1 + 4 = 5. *)
let test_masked_no_stub_seed () =
  let g, w, off, prev = stub_ring () in
  let a = arc_id g in
  List.iter
    (fun (what, edits) ->
      ignore (check_masked ~what g ~off w prev edits : bool);
      let s = Spf_delta.scratch () in
      ignore (repair_on_core s g ~off w prev edits : core);
      Alcotest.(check int) (what ^ ": d(0) toward 2") 11
        (Spf_delta.scratch_dags s).(2).Spf.dist.(0))
    [
      ("out-neighbour", [ (a 0 1, 20) ]);
      ("dropped arc", [ (a 0 1, 20); (a 0 4, 1) ]);
    ]

(* A stale off-core label never joins a next-hop set.  Raising 0 -> 1
   to 5 lifts 0's label toward 2 by 4 = w(0, 4) + w(4, 0), to 6; the
   stub's stale d(4) = 4 makes 0 -> 4 look tight (2 + 4 = 6), though
   every path over it comes back through 0. *)
let test_masked_stale_head () =
  let g, w, off, prev = stub_ring () in
  let a = arc_id g in
  ignore (check_masked ~what:"0's label rises by the stub's round trip" g ~off w prev
            [ (a 0 1, 5) ] : bool);
  let s = Spf_delta.scratch () in
  ignore (repair_on_core s g ~off w prev [ (a 0 1, 5) ] : core);
  let d = (Spf_delta.scratch_dags s).(2) in
  Alcotest.(check int) "d(0)" 6 d.Spf.dist.(0);
  Alcotest.(check (array int)) "0's next hops" [| a 0 1 |] d.Spf.next_arcs.(0)

(* A scratch follows the graph it is handed: one scratch that repairs
   on the core's graph, then the full graph, then the core's graph again
   repairs as fresh scratches do.  Raising 0 -> 1 to 3 lifts 0's label
   toward 2 from 2 to 4, which moves the stub on the full graph only. *)
let test_masked_scratch_follows_mask () =
  let g, w, off, prev = stub_ring () in
  let c = core_of g ~off in
  let a = arc_id g in
  let weights = Array.copy w in
  weights.(a 0 1) <- 3;
  let changes = [ { Spf_delta.arc = a 0 1; before = 1; after = 3 } ] in
  let on_core =
    ( c.h,
      Array.map (Array.get weights) c.arcs,
      Array.map (fun v -> dag_on_core c prev.(v)) c.nodes,
      [ { Spf_delta.arc = c.arc_at.(a 0 1); before = 1; after = 3 } ] )
  in
  let shared = Spf_delta.scratch () in
  List.iter
    (fun (what, (graph, weights, prev, changes)) ->
      let fresh = Spf_delta.scratch () in
      Spf_delta.update_scratch fresh graph ~weights ~prev ~changes;
      Spf_delta.update_scratch shared graph ~weights ~prev ~changes;
      Array.iteri
        (fun t d ->
          check_dag_equal ~what:(Printf.sprintf "%s, dst %d" what t) d
            (Spf_delta.scratch_dags shared).(t))
        (Spf_delta.scratch_dags fresh))
    [
      ("the core's graph", on_core);
      ("the full graph", (g, weights, prev, changes));
      ("the core's graph again", on_core);
    ]

(* The same-flow rule ignores off-core tails.  Toward 0, over h = 1,
   where the endpoint 2 reaches 1 by its only arc and the stub node 3,
   hung on 1, carries no flow, each batch moves 2 past 3 among 1's
   upstream neighbours while the repair on the core's graph replaces
   no next-hop set, so the full graph's rule cannot vouch for the flows
   and the core graph's keeps them:
   - dropping 2 -> 1 from 3 to 1 moves d(2) from 4 to 2, past d(3) = 3
     (3 is an upstream tail of 1);
   - dropping 1 -> 0 from 2 to 1 moves d(2) from 4 to 3, and raising
     3 -> 1 from 2 to 3 keeps 3 -> 1 tight at d(3) = 4 (3 is the tail
     of a changed arc). *)
let test_masked_same_flow () =
  List.iter
    (fun (what, w_10, w_21, batch) ->
      let g, w =
        weighted 4 [ (1, 0, w_10); (0, 1, 1); (2, 1, w_21); (1, 2, 5); (3, 1, 2); (1, 3, 1) ]
      in
      let off = Graph.off_core g ~endpoints:(endpoints_of 4 [ 0; 2 ]) in
      Alcotest.(check (array bool)) (what ^ ": off-core nodes")
        [| false; false; false; true |] off;
      let prev = Spf.all_destinations g ~weights:w in
      let edits = List.map (fun (u, v, x) -> (arc_id g u v, x)) batch in
      ignore (check_masked ~what g ~off w prev edits : bool);
      let weights = Array.copy w in
      List.iter (fun (arc, x) -> weights.(arc) <- x) edits;
      let toward_0 ~core =
        let s = Spf_delta.scratch () in
        if core then ignore (repair_on_core s g ~off w prev edits : core)
        else
          Spf_delta.update_scratch s g ~weights ~prev
            ~changes:(fst (split_changes g ~off w edits));
        let at = ref (-1) in
        for i = 0 to Spf_delta.scratch_dirty s - 1 do
          if Spf_delta.scratch_dirty_at s i = 0 then at := i
        done;
        Alcotest.(check bool) (what ^ ": 0 is dirty") true (!at >= 0);
        (Spf_delta.scratch_same_flows_at s !at, (Spf_delta.scratch_dags s).(0))
      in
      Alcotest.(check bool) (what ^ ": unmasked, not vouched for") false
        (fst (toward_0 ~core:false));
      let same, dag = toward_0 ~core:true in
      Alcotest.(check bool) (what ^ ": masked, same flows") true same;
      (* Nodes 0, 1 and 2 keep their ids on the core's graph. *)
      let c = core_of g ~off in
      let demand_to_dst = [| 0.; 0.; 1. |] in
      Alcotest.(check bool) (what ^ ": loads toward 0 bitwise kept") true
        (same_bits
           (Loads.destination_loads c.h ~dag:(dag_on_core c prev.(0)) ~demand_to_dst)
           (Loads.destination_loads c.h ~dag ~demand_to_dst)))
    [
      ("an upstream tail", 1, 3, [ (2, 1, 1) ]);
      ("a changed arc's tail", 2, 2, [ (1, 0, 1); (3, 1, 3) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Loads helper *)

let test_destination_loads_sum () =
  let g = random_graph 42 in
  let rng = Prng.create 5 in
  let th, _ = random_matrices rng g in
  let w = Weights.random rng g in
  let dags = Spf.all_destinations g ~weights:w in
  let full = Dtr_oracle.Ref_loads.of_matrix g ~dags th in
  let n = Graph.node_count g in
  let m = Graph.arc_count g in
  let sum = Array.make m 0. in
  for t = 0 to n - 1 do
    match Loads.destination_demand ~dag:dags.(t) th with
    | None -> ()
    | Some demand ->
        let c = Loads.destination_loads g ~dag:dags.(t) ~demand_to_dst:demand in
        for a = 0 to m - 1 do
          sum.(a) <- sum.(a) +. c.(a)
        done
  done;
  Alcotest.(check bool) "per-destination subtotals recombine exactly" true
    (full = sum)

(* ------------------------------------------------------------------ *)
(* Eval_ctx vs the from-scratch multi-class reference *)

let check_arr ~what a b =
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.(i)) > eps then
        Alcotest.failf "%s: index %d: %.17g vs %.17g" what i x b.(i))
    a

let eval_ctx_matches_scratch seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 13 + 7) in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g in
  let wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  for _step = 1 to 6 do
    let klass = Prng.int rng 2 in
    let w = Eval_ctx.weights ctx klass in
    let arc, v = random_change rng w in
    let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
    (* From-scratch evaluation of the candidate. *)
    let cand_w = Array.copy w in
    cand_w.(arc) <- v;
    let weights' =
      if klass = 0 then [| cand_w; Eval_ctx.weights ctx 1 |]
      else [| Eval_ctx.weights ctx 0; cand_w |]
    in
    let scratch = Ref_multi.evaluate g ~weights:weights' ~matrices:[| th; tl |] in
    check_arr ~what:"probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
    (* Dropped probe: the context must still match its own base state. *)
    let base =
      Ref_multi.evaluate g
        ~weights:[| Eval_ctx.weights ctx 0; Eval_ctx.weights ctx 1 |]
        ~matrices:[| th; tl |]
    in
    check_arr ~what:"phi after a dropped probe" (Eval_ctx.phi ctx) base.Multi.phi;
    (* Commit path: re-probe (dropping loses nothing) and install. *)
    let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
    Eval_ctx.commit ctx pr;
    let ev = Eval_ctx.to_evaluate ctx in
    check_arr ~what:"committed h_loads" ev.Evaluate.h_loads scratch.Multi.loads.(0);
    check_arr ~what:"committed l_loads" ev.Evaluate.l_loads scratch.Multi.loads.(1);
    check_arr ~what:"committed residual" ev.Evaluate.residual
      scratch.Multi.capacity_seen.(1);
    check_arr ~what:"committed phi_h_per_arc" ev.Evaluate.phi_h_per_arc
      scratch.Multi.phi_per_arc.(0);
    check_arr ~what:"committed phi_l_per_arc" ev.Evaluate.phi_l_per_arc
      scratch.Multi.phi_per_arc.(1);
    if Float.abs (ev.Evaluate.phi_h -. scratch.Multi.phi.(0)) > eps then
      Alcotest.fail "phi_h drifted";
    if Float.abs (ev.Evaluate.phi_l -. scratch.Multi.phi.(1)) > eps then
      Alcotest.fail "phi_l drifted"
  done;
  true

let test_eval_ctx_property () =
  QCheck.Test.make ~name:"Eval_ctx probe/commit/abort = from-scratch" ~count:12
    QCheck.(int_range 0 10_000)
    eval_ctx_matches_scratch

(* Shared-vector (STR) context: one change moves every class. *)
let eval_ctx_shared_matches seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 17 + 5) in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  Alcotest.(check bool) "classes alias" true (Eval_ctx.shares_group ctx 0 1);
  let arc, v = random_change rng w in
  let pr = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  let cand = Array.copy w in
  cand.(arc) <- v;
  let scratch =
    Ref_multi.evaluate g ~weights:[| cand; cand |] ~matrices:[| th; tl |]
  in
  check_arr ~what:"shared probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
  Eval_ctx.commit ctx pr;
  check_arr ~what:"shared committed phi" (Eval_ctx.phi ctx) scratch.Multi.phi;
  check_arr ~what:"shared l weights"
    (Array.map float_of_int (Eval_ctx.weights ctx 1))
    (Array.map float_of_int cand);
  true

let test_eval_ctx_shared () =
  QCheck.Test.make ~name:"Eval_ctx shared-vector probes move all classes"
    ~count:10
    QCheck.(int_range 0 10_000)
    eval_ctx_shared_matches

(* Three classes exercise the full residual cascade. *)
let eval_ctx_three_classes seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 19 + 11) in
  let n = Graph.node_count g in
  let matrices =
    Array.init 3 (fun _ -> Gravity.generate rng ~n Gravity.default)
  in
  let weights = Array.init 3 (fun _ -> Weights.random rng g) in
  let ctx = Eval_ctx.create g ~weights ~matrices in
  let klass = Prng.int rng 3 in
  let w = Eval_ctx.weights ctx klass in
  let arc, v = random_change rng w in
  let pr = Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ] in
  let weights' = Array.init 3 (Eval_ctx.weights ctx) in
  weights'.(klass).(arc) <- v;
  let scratch = Ref_multi.evaluate g ~weights:weights' ~matrices in
  check_arr ~what:"3-class probe phi" (Eval_ctx.probe_phi pr) scratch.Multi.phi;
  Eval_ctx.commit ctx pr;
  let multi = Eval_ctx.to_multi ctx in
  for k = 0 to 2 do
    check_arr
      ~what:(Printf.sprintf "3-class loads %d" k)
      multi.Multi.loads.(k) scratch.Multi.loads.(k);
    check_arr
      ~what:(Printf.sprintf "3-class capacity %d" k)
      multi.Multi.capacity_seen.(k)
      scratch.Multi.capacity_seen.(k)
  done;
  true

let test_eval_ctx_three_classes () =
  QCheck.Test.make ~name:"Eval_ctx 3-class residual cascade" ~count:10
    QCheck.(int_range 0 10_000)
    eval_ctx_three_classes

(* ------------------------------------------------------------------ *)
(* Problem-level API vs a from-scratch reference

   Problem evaluates everything on Eval_ctx, so the reference is
   Dtr_oracle.Ref_objective.evaluate: from-scratch SPF sweeps and load
   projection, and the SLA costing on top — none of the context's
   delta screening, re-projection or row patching. *)

let check_lex ~what a b =
  if Lexico.compare a b <> 0 then
    Alcotest.failf "%s: ⟨%.17g, %.17g⟩ vs ⟨%.17g, %.17g⟩" what
      a.Lexico.primary a.Lexico.secondary b.Lexico.primary b.Lexico.secondary

let reference problem ~wh ~wl =
  (Dtr_oracle.Ref_objective.evaluate problem.Problem.model
     problem.Problem.graph ~wh ~wl ~th:problem.Problem.th
     ~tl:problem.Problem.tl)
    .Objective.objective

(* One to three changes on distinct arcs, each to a value the arc does
   not hold. *)
let random_changes rng w =
  let rec go acc k =
    if k = 0 then acc
    else
      let arc, v = random_change rng w in
      if List.mem_assoc arc acc then go acc k else go ((arc, v) :: acc) (k - 1)
  in
  go [] (Prng.int_incl rng 1 3)

let apply w changes =
  let w' = Array.copy w in
  List.iter (fun (a, v) -> w'.(a) <- v) changes;
  w'

(* A commit leaves the context's bookkeeping readable incrementally:
   the memo base key equals the reference rehash, and the cached
   rankings (one cache per comparator) equal full sorts. *)
let check_commit_bookkeeping ~what problem (rank_h, rank_l) ctx =
  Alcotest.(check int)
    (what ^ ": base key") (Dtr_oracle.Ref_problem.ctx_base_key ctx)
    (Problem.ctx_base_key ctx);
  let m = Graph.arc_count problem.Problem.graph in
  List.iter
    (fun (order, cache, cmp_of) ->
      let cmp = cmp_of problem ctx in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: %s ranking" what order)
        (Neighborhood.rank_by_cost ~cmp m)
        (Ranking.arcs cache ctx ~cmp m))
    [
      ("H", rank_h, Problem.ctx_arc_cmp_h); ("L", rank_l, Problem.ctx_arc_cmp_l);
    ]

(* [n] commits of random changes that no ranking cache reads; returns
   the last committed solution. *)
let unread_commits problem ctx rng n =
  let sol = ref (Problem.ctx_solution problem ctx) in
  for _ = 1 to n do
    let cls = if Prng.bool rng then `H else `L in
    let changes = random_changes rng (Problem.ctx_weights_view ctx cls) in
    sol :=
      Problem.commit_delta problem ctx
        (Problem.eval_delta problem ctx ~cls ~changes)
  done;
  !sol

let problem_delta_matches seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 23 + 9) in
  let th, tl = random_matrices rng g in
  (* One pair of ranking caches for every context below, so a context
     switch exercises the caches' identity fallback. *)
  let ranks = (Ranking.create (), Ranking.create ()) in
  List.iter
    (fun model ->
      let problem = Problem.create ~graph:g ~th ~tl ~model in
      (* STR context: every change moves both classes. *)
      let w0 = Weights.random rng g in
      let sol = ref (Problem.eval_str problem ~w:w0) in
      check_lex ~what:"eval_str" (Problem.objective !sol)
        (reference problem ~wh:w0 ~wl:w0);
      let ctx = Problem.ctx_of_solution problem !sol in
      ignore (Problem.ctx_base_key ctx);
      for _ = 1 to 3 do
        let changes = random_changes rng !sol.Problem.wh in
        let w' = apply !sol.Problem.wh changes in
        let expected = reference problem ~wh:w' ~wl:w' in
        let d = Problem.eval_delta problem ctx ~cls:`H ~changes in
        check_lex ~what:"STR probe objective" (Problem.delta_objective d)
          expected;
        (* Reject path: a dropped probe leaves the context evaluating
           the base exactly. *)
        let again = Problem.eval_delta problem ctx ~cls:`H ~changes in
        check_lex ~what:"STR probe after a dropped one" (Problem.delta_objective again)
          expected;
        let committed = Problem.commit_delta problem ctx again in
        check_lex ~what:"STR committed objective" (Problem.objective committed)
          expected;
        Alcotest.(check bool) "committed solution is STR" true
          (Problem.is_str committed);
        check_commit_bookkeeping ~what:"STR commit" problem ranks ctx;
        sol := committed
      done;
      (* DTR context: a run of interleaved H and L commits. *)
      let wh0 = Weights.random rng g and wl0 = Weights.random rng g in
      let sol = ref (Problem.eval_dtr problem ~wh:wh0 ~wl:wl0) in
      check_lex ~what:"eval_dtr" (Problem.objective !sol)
        (reference problem ~wh:wh0 ~wl:wl0);
      let ctx = Problem.ctx_of_solution problem !sol in
      ignore (Problem.ctx_base_key ctx);
      (* The caches last read the STR context.  Their rows differ from
         this context's, so only their identity check keeps them from
         repairing the STR ranking. *)
      sol := unread_commits problem ctx rng 3;
      for _ = 1 to 6 do
        let cls = if Prng.bool rng then `H else `L in
        let wh = !sol.Problem.wh and wl = !sol.Problem.wl in
        let changes =
          random_changes rng (match cls with `H -> wh | `L -> wl)
        in
        let expected =
          match cls with
          | `H -> reference problem ~wh:(apply wh changes) ~wl
          | `L -> reference problem ~wh ~wl:(apply wl changes)
        in
        let d = Problem.eval_delta problem ctx ~cls ~changes in
        check_lex ~what:"DTR probe objective" (Problem.delta_objective d)
          expected;
        let committed = Problem.commit_delta problem ctx d in
        check_lex ~what:"DTR committed objective" (Problem.objective committed)
          expected;
        check_commit_bookkeeping ~what:"DTR commit" problem ranks ctx;
        sol := committed
      done;
      (* Caches that lag many commits repair from the arcs whose cost
         entries moved over all of them, however many. *)
      ignore (unread_commits problem ctx rng 33);
      check_commit_bookkeeping ~what:"DTR after 33 unread commits" problem
        ranks ctx;
      ignore (unread_commits problem ctx rng 101);
      check_commit_bookkeeping ~what:"DTR after 101 unread commits" problem
        ranks ctx)
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ];
  true

let test_problem_delta () =
  QCheck.Test.make ~name:"Problem.eval_delta = eval_str/eval_dtr (both models)"
    ~count:8
    QCheck.(int_range 0 10_000)
    problem_delta_matches

(* What Ranking's repair relies on: after a commit, two arcs whose Φ_H
   and Φ_L entries are both bitwise unchanged compare alike under the
   comparators derived before and after it. *)
let cmp_stable_on_unchanged_arcs seed =
  let g = random_graph seed in
  let rng = Prng.create (seed * 29 + 5) in
  let th, tl = random_matrices rng g in
  let m = Graph.arc_count g in
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  List.iter
    (fun model ->
      let problem = Problem.create ~graph:g ~th ~tl ~model in
      let contexts =
        [
          ("STR", snd (Problem.eval_str_ctx problem ~w:(Weights.random rng g)));
          ( "DTR",
            snd
              (Problem.eval_dtr_ctx problem ~wh:(Weights.random rng g)
                 ~wl:(Weights.random rng g)) );
        ]
      in
      List.iter
        (fun (what, ctx) ->
          for _ = 1 to 4 do
            let before = Problem.ctx_cost_rows ctx in
            let cmps = [ Problem.ctx_arc_cmp_h; Problem.ctx_arc_cmp_l ] in
            let old_cmps = List.map (fun f -> f problem ctx) cmps in
            let cls = if Prng.bool rng then `H else `L in
            let changes =
              random_changes rng (Problem.ctx_weights_view ctx cls)
            in
            ignore
              (Problem.commit_delta problem ctx
                 (Problem.eval_delta problem ctx ~cls ~changes));
            let h0, l0 = before and h1, l1 = Problem.ctx_cost_rows ctx in
            let unchanged =
              List.filter
                (fun a -> same h0.(a) h1.(a) && same l0.(a) l1.(a))
                (List.init m Fun.id)
            in
            List.iter2
              (fun old_cmp f ->
                let new_cmp = f problem ctx in
                List.iter
                  (fun a ->
                    List.iter
                      (fun b ->
                        if old_cmp a b <> new_cmp a b then
                          Alcotest.failf "%s: arcs %d, %d reorder" what a b)
                      unchanged)
                  unchanged)
              old_cmps cmps
          done)
        contexts)
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ];
  true

let test_cmp_stable_on_unchanged_arcs () =
  QCheck.Test.make ~name:"arc order kept where cost rows are unchanged"
    ~count:8
    QCheck.(int_range 0 10_000)
    cmp_stable_on_unchanged_arcs

let test_problem_counters () =
  with_metrics @@ fun () ->
  let g = random_graph 7 in
  let rng = Prng.create 31 in
  let th, tl = random_matrices rng g in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let w = Weights.random rng g in
  let sol = Problem.eval_str problem ~w in
  let ctx = Problem.ctx_of_solution problem sol in
  let arc, v = random_change rng sol.Problem.wh in
  let d = Problem.eval_delta problem ctx ~cls:`H ~changes:[ (arc, v) ] in
  ignore (Problem.commit_delta problem ctx d);
  (* Re-deriving an already-counted candidate, as Scan.commit does,
     counts nothing. *)
  let arc, v = random_change rng (Problem.ctx_weights_view ctx `H) in
  ignore (Problem.eval_delta ~count:false problem ctx ~cls:`H ~changes:[ (arc, v) ]);
  Alcotest.(check int) "full evaluations" 1 (counter "dtr_eval_full_total");
  Alcotest.(check int) "delta evaluations" 1 (counter "dtr_eval_delta_total")

let test_eval_ctx_stale_probe () =
  let g = random_graph 3 in
  let rng = Prng.create 23 in
  let th, tl = random_matrices rng g in
  let w = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
  let arc, v = random_change rng w in
  let stale =
    Invalid_argument "Eval_ctx.commit: stale probe (not this context's latest)"
  in
  (* Only the latest probe is committable, and only until it is. *)
  let p1 = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  let p2 = Eval_ctx.probe ctx ~klass:0 ~changes:[ (arc, v) ] in
  Alcotest.check_raises "earlier probe rejected" stale (fun () -> Eval_ctx.commit ctx p1);
  Eval_ctx.commit ctx p2;
  Alcotest.check_raises "committed probe rejected" stale (fun () ->
      Eval_ctx.commit ctx p2);
  let w' = apply w [ (arc, v) ] in
  check_arr ~what:"state after the refusals" (Eval_ctx.phi ctx)
    (Eval_ctx.phi (Eval_ctx.create g ~weights:[| w'; w' |] ~matrices:[| th; tl |]))

(* A change list naming an arc twice is refused before anything is
   computed — whether it repeats a value, gives two, or starts with a
   no-op entry: no probe is counted, and a failure view taken before
   is still current. *)
let test_probe_arc_listed_twice () =
  with_metrics @@ fun () ->
  let g = random_graph 7 in
  let rng = Prng.create 31 in
  let th, tl = random_matrices rng g in
  let wh = Weights.random rng g and wl = Weights.random rng g in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let a = 0 in
  let v1, v2 =
    match List.filter (( <> ) wh.(a)) [ 7; 8; 9 ] with
    | v1 :: v2 :: _ -> (v1, v2)
    | _ -> assert false
  in
  let f = Eval_ctx.fail_probe ctx ~arcs:[ 1 ] in
  List.iter
    (fun (what, changes) ->
      Alcotest.check_raises what (Invalid_argument "Eval_ctx.probe: arc listed twice")
        (fun () -> ignore (Eval_ctx.probe ctx ~klass:0 ~changes)))
    [
      ("same value twice", [ (a, v1); (a, v1) ]);
      ("two values", [ (a, v1); (a, v2) ]);
      ("no-op entry first", [ (a, wh.(a)); (a, v1) ]);
    ];
  Alcotest.(check int) "no probe counted" 0 (counter "dtr_eval_probes_total");
  ignore (Eval_ctx.probe_dags ctx f 0);
  let p = Eval_ctx.probe ctx ~klass:0 ~changes:[ (a, v1) ] in
  let fresh =
    Eval_ctx.create g ~weights:[| apply wh [ (a, v1) ]; wl |] ~matrices:[| th; tl |]
  in
  check_arr ~what:"probe after refusals" (Eval_ctx.probe_phi p) (Eval_ctx.phi fresh)

(* ------------------------------------------------------------------ *)
(* The engine vs an oracle that shares none of its kernels

   Dtr_oracle.Naive_ecmp computes its own Floyd–Warshall distances and
   splits each OD pair's demand evenly at every hop over every tight
   out-arc, with no Dijkstra, SPF DAG, Loads or Delay code.  Small
   strongly connected multigraphs: a ring plus random chords, some
   doubled into parallel arcs; weights from a narrow range (so
   equal-cost ties are common) plus the maximum 30; low capacities, so
   high-priority load often saturates an arc; whole demand rows
   left empty.  Link failures are priced on the reduced graph that
   Ref_failure.fail_link builds (graph building only), and severed
   pairs counted by the oracle's own reachability. *)

module Naive = Dtr_oracle.Naive_ecmp

let naive_instance seed =
  let rng = Prng.create seed in
  let n = Prng.int_incl rng 3 6 in
  let arc u v =
    {
      Graph.src = u;
      dst = v;
      capacity = Prng.choose rng [| 1.; 2.; 5.; 10. |];
      delay = Prng.choose rng [| 1.; 5.; 12. |];
    }
  in
  let ring = List.init n (fun v -> arc v ((v + 1) mod n)) in
  let chords =
    List.concat
      (List.init (Prng.int_incl rng 1 (2 * n)) (fun _ ->
           let u = Prng.int rng n and v = Prng.int rng n in
           if u = v then []
           else if Prng.int rng 3 = 0 then [ arc u v; arc u v ]
           else [ arc u v ]))
  in
  let g = Graph.build ~n (ring @ chords) in
  let weight () = Prng.choose rng [| 1; 1; 2; 2; 3; 30 |] in
  let m = Graph.arc_count g in
  let wh = Array.init m (fun _ -> weight ()) in
  let wl = Array.init m (fun _ -> weight ()) in
  let demand () =
    let tm = Matrix.create n in
    for s = 0 to n - 1 do
      if Prng.int rng 4 > 0 then
        for t = 0 to n - 1 do
          if s <> t && Prng.bool rng then Matrix.set tm s t (Prng.float rng 3.)
        done
    done;
    tm
  in
  let th = demand () in
  let tl = demand () in
  (g, wh, wl, th, tl, rng)

let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let check_close ~what name got want =
  if not (close got want) then
    Alcotest.failf "%s: %s engine %.17g vs naive %.17g" what name got want

let check_naive ~what ~model ~phi_h ~phi_l ~primary (want : Naive.costs) =
  check_close ~what "phi_h" phi_h want.Naive.phi_h;
  check_close ~what "phi_l" phi_l want.Naive.phi_l;
  match model with
  | Objective.Load -> ()
  | Objective.Sla _ -> check_close ~what "lambda" primary want.Naive.lambda

(* Severed positive-demand (class, src, dst) pairs of [matrices], by
   the naive Floyd–Warshall reachability. *)
let naive_severed g ~weights matrices =
  let d = Naive.distances g ~weights and n = Graph.node_count g in
  let count = ref 0 in
  Array.iter
    (fun tm ->
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if s <> t && Matrix.get tm s t > 0. && d.(s).(t) = Naive.none then incr count
        done
      done)
    matrices;
  !count

(* Every single-link failure of the context's setting [(wh, wl)],
   priced by Problem.failure_outcomes, against the naive oracle on the
   reduced graph with the weights remapped: the severed-pair count,
   and for a survivable failure the primary (Φ_H or Λ) and Φ_L.
   Returns the oracle's (primary, Φ_L) per link, [None] where the
   failure severs demand. *)
let naive_failures ~what ~severed ~finite problem ctx ~wh ~wl =
  let { Problem.graph = g; th; tl; model; _ } = problem in
  let sla = match model with Objective.Sla p -> Some p | _ -> None in
  let outcomes = Problem.failure_outcomes problem ctx in
  Array.mapi
    (fun i link ->
      let what = Printf.sprintf "%s link %d" what i in
      let reduced, mapping = Ref_failure.fail_link g ~link in
      let wh = Ref_failure.remap_weights wh mapping in
      let wl = Ref_failure.remap_weights wl mapping in
      let o = outcomes.(i) in
      let cut = naive_severed reduced ~weights:wh [| th; tl |] in
      if cut <> o.Failure_sweep.unreachable_pairs then
        Alcotest.failf "%s: severed pairs engine %d vs naive %d" what
          o.Failure_sweep.unreachable_pairs cut;
      if cut > 0 then begin
        incr severed;
        None
      end
      else begin
        incr finite;
        let want = Naive.evaluate ?sla reduced ~wh ~wl ~th ~tl in
        let cost = o.Failure_sweep.cost in
        let primary, want_primary =
          match model with
          | Objective.Load -> ("phi_h", want.Naive.phi_h)
          | Objective.Sla _ -> ("lambda", want.Naive.lambda)
        in
        check_close ~what primary cost.Lexico.primary want_primary;
        check_close ~what "phi_l" cost.Lexico.secondary want.Naive.phi_l;
        Some (want_primary, want.Naive.phi_l)
      end)
    (Graph.undirected_link_pairs g)

(* The robust objective of Sqalli et al.'s single-link setting from the
   oracle's numbers alone: the normal (primary, Φ_L) plus [alpha] times
   the mean of the [top_k] worst finite failures in lexicographic
   order.  The oracle's primaries match the engine's only to the
   tolerance, and failures an ulp apart are common at the k-th place:
   exact order picks another failure than the engine at seeds 373 and
   984, where the oracle orders two primaries the other way, and
   ordering near-ties by Φ_L does at seed 139, where the engine's
   differ by an ulp.  So the failures tied with the k-th within the
   tolerance may fill the places left in any way.  Returns J's primary
   and the secondaries those choices give: one when the k-th place is
   not tied. *)
let naive_robust_j ~alpha ~top_k (normal_p, normal_s) failures =
  let finite = List.filter_map Fun.id (Array.to_list failures) in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) finite in
  let k = min top_k (List.length sorted) in
  if k = 0 then (normal_p, [ normal_s ])
  else begin
    let kth = fst (List.nth sorted (k - 1)) in
    let sure = List.filter (fun (p, _) -> p > kth && not (close p kth)) sorted in
    let tied = List.filter (fun (p, _) -> close p kth) sorted in
    (* The sums of the secondaries of every [r] of [ties]. *)
    let rec choose r ties =
      match ties with
      | _ when r = 0 -> [ 0. ]
      | [] -> []
      | (_, s) :: rest -> List.map (( +. ) s) (choose (r - 1) rest) @ choose r rest
    in
    let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. sure in
    let mean_p =
      List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < k) (List.map fst sorted))
      /. float_of_int k
    in
    ( normal_p +. (alpha *. mean_p),
      List.map
        (fun t -> normal_s +. (alpha *. ((sum +. t) /. float_of_int k)))
        (choose (k - List.length sure) tied) )
  end

(* Checks the engine's J against the oracle's; returns whether the
   oracle's secondary was unique (up to the tolerance). *)
let check_robust ~what (want_p, want_s) (rp : Problem.robust_price) =
  let j = rp.Problem.rp_objective in
  check_close ~what "J primary" j.Lexico.primary want_p;
  if not (List.exists (close j.Lexico.secondary) want_s) then
    Alcotest.failf "%s: J secondary engine %.17g vs naive %s" what j.Lexico.secondary
      (String.concat " or " (List.map (Printf.sprintf "%.17g") want_s));
  List.for_all (close (List.hd want_s)) want_s

(* Problem.robust_price of the context's committed state against the
   oracle's J, at top_k 1 and 2: priced in full; as a run's first
   price (Problem.robust_start: primary-first on the reachability cut
   set), bitwise the full price; and with [prior] (a price of the state
   before the last commit), so primary-first on a fresh class-0 pass
   when that commit moved W_H and on the prior's pass when it did not.
   Returns the full prices. *)
let naive_robust ~what ~reused ~strict problem ctx ~prior ~normal failures =
  let alpha = 0.5 in
  let engine_normal = Problem.objective (Problem.ctx_solution problem ctx) in
  List.map
    (fun top_k ->
      let what = Printf.sprintf "%s top_k=%d" what top_k in
      let want = naive_robust_j ~alpha ~top_k normal failures in
      let price ?prior () =
        Problem.robust_price ?prior problem ctx ~alpha ~top_k ~normal:engine_normal
      in
      let full = price () in
      if check_robust ~what:(what ^ " full") want full then incr strict;
      Alcotest.(check int) (what ^ ": infinite")
        (Array.fold_left (fun n o -> if o = None then n + 1 else n) 0 failures)
        full.Problem.rp_infinite;
      let start =
        Problem.robust_start problem ctx ~alpha ~top_k ~normal:engine_normal
      in
      ignore (check_robust ~what:(what ^ " start") want start : bool);
      let j = full.Problem.rp_objective and j' = start.Problem.rp_objective in
      if
        Lexico.compare j j' <> 0
        || full.Problem.rp_cut <> start.Problem.rp_cut
      then Alcotest.failf "%s: the start's price is not the full price" what;
      let rp, reuses =
        with_metrics (fun () ->
            let rp = price ~prior:(List.nth prior (top_k - 1)) () in
            (rp, counter "dtr_failure_reused_total"))
      in
      ignore (check_robust ~what:(what ^ " primary-first") want rp : bool);
      if reuses > 0 then incr reused;
      full)
    [ 1; 2 ]

(* One instance, both cost models: the full evaluation, one random
   probe against it, and, once the probe is committed, every
   single-link failure and the robust J; then an L-only commit, whose
   robust price reuses the class-0 pass of the state before it. *)
let naive_matches ~severed ~finite ~reused ~strict seed (g, wh, wl, th, tl, rng) =
  List.iter
    (fun model ->
      let sla = match model with Objective.Sla p -> Some p | _ -> None in
      let what =
        Printf.sprintf "seed %d, %s" seed (Objective.model_name model)
      in
      let normal (c : Naive.costs) =
        match model with
        | Objective.Load -> (c.Naive.phi_h, c.Naive.phi_l)
        | Objective.Sla _ -> (c.Naive.lambda, c.Naive.phi_l)
      in
      let problem = Problem.create ~graph:g ~th ~tl ~model in
      let sol, ctx = Problem.eval_dtr_ctx problem ~wh ~wl in
      let e = sol.Problem.result.Objective.eval in
      check_naive ~what:(what ^ " eval_dtr") ~model ~phi_h:e.Evaluate.phi_h
        ~phi_l:e.Evaluate.phi_l
        ~primary:(Problem.objective sol).Lexico.primary
        (Naive.evaluate ?sla g ~wh ~wl ~th ~tl);
      let before =
        List.map
          (fun top_k ->
            Problem.robust_price problem ctx ~alpha:0.5 ~top_k
              ~normal:(Problem.objective sol))
          [ 1; 2 ]
      in
      let cls = if Prng.bool rng then `H else `L in
      let w = match cls with `H -> wh | `L -> wl in
      let arc, v = random_change rng w in
      let d = Problem.eval_delta problem ctx ~cls ~changes:[ (arc, v) ] in
      let wh', wl' =
        match cls with
        | `H -> (apply wh [ (arc, v) ], wl)
        | `L -> (wh, apply wl [ (arc, v) ])
      in
      let want = Naive.evaluate ?sla g ~wh:wh' ~wl:wl' ~th ~tl in
      check_naive ~what:(what ^ " eval_delta") ~model
        ~phi_h:(Problem.delta_phi_h d) ~phi_l:(Problem.delta_phi_l d)
        ~primary:(Problem.delta_objective d).Lexico.primary want;
      ignore (Problem.commit_delta problem ctx d);
      let failures = naive_failures ~what ~severed ~finite problem ctx ~wh:wh' ~wl:wl' in
      let after =
        naive_robust ~what ~reused ~strict problem ctx ~prior:before ~normal:(normal want)
          failures
      in
      (* Its own stream, so the draws of the other model stay as they were. *)
      let arc, v = random_change (Prng.create seed) wl' in
      let wl'' = apply wl' [ (arc, v) ] in
      let d = Problem.eval_delta problem ctx ~cls:`L ~changes:[ (arc, v) ] in
      ignore (Problem.commit_delta problem ctx d);
      let what = what ^ ", second commit (L)" in
      let failures =
        naive_failures ~what ~severed:(ref 0) ~finite:(ref 0) problem ctx ~wh:wh'
          ~wl:wl''
      in
      let reused_before = !reused in
      ignore
        (naive_robust ~what ~reused ~strict problem ctx ~prior:after
           ~normal:(normal (Naive.evaluate ?sla g ~wh:wh' ~wl:wl'' ~th ~tl))
           failures
          : Problem.robust_price list);
      Alcotest.(check int) (what ^ ": both prices reuse the pass") 2
        (!reused - reused_before))
    [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ]

let test_naive_oracle () =
  (* 1,000 fixed seeds; the counts keep the generator honest about what
     it covers. *)
  let saturated = ref 0 and parallel = ref 0 in
  let severed = ref 0 and finite = ref 0 in
  let reused = ref 0 and strict = ref 0 in
  for seed = 1 to 1000 do
    let ((g, wh, _, th, _, _) as instance) = naive_instance seed in
    naive_matches ~severed ~finite ~reused ~strict seed instance;
    let h = Naive.loads g ~weights:wh th in
    let arcs = Array.to_list (Graph.arcs g) in
    let over i (a : Graph.arc) = h.(i) > a.capacity in
    if List.exists Fun.id (List.mapi over arcs) then incr saturated;
    let ends = List.map (fun (a : Graph.arc) -> (a.src, a.dst)) arcs in
    if List.compare_lengths (List.sort_uniq compare ends) ends < 0 then
      incr parallel
  done;
  Alcotest.(check bool)
    (Printf.sprintf "saturated arcs in %d of 1000 instances" !saturated)
    true (!saturated >= 300);
  Alcotest.(check bool)
    (Printf.sprintf "parallel arcs in %d of 1000 instances" !parallel)
    true (!parallel >= 300);
  Alcotest.(check bool)
    (Printf.sprintf "%d severing link failures" !severed)
    true (!severed >= 2500);
  Alcotest.(check bool)
    (Printf.sprintf "%d survivable link failures" !finite)
    true (!finite >= 5000);
  (* Two robust prices per instance and model follow the first commit:
     on a fresh class-0 pass after an H move, on the earlier state's
     pass after an L move.  The second commit's two always reuse. *)
  let after_first = !reused - 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "%d primary-first prices on a fresh pass" (4000 - after_first))
    true (4000 - after_first >= 1500);
  Alcotest.(check bool)
    (Printf.sprintf "%d primary-first prices on the earlier pass" after_first)
    true (after_first >= 1500);
  (* Of the 8,000 robust J the oracle prices, most have one admissible
     secondary; the rest tie at the k-th place. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of 8000 robust J without a tie at the k-th place" !strict)
    true (!strict >= 5000)

(* ------------------------------------------------------------------ *)
(* A sequence oracle: random interleavings of weight probes, commits,
   failure probes (class 0 and full), clones and syncs, every outcome
   priced by Naive_ecmp.  High-priority demand is sparse (one to three
   pairs) and weights stay within 1–3, so the flow screen defers many
   repairs and equal-cost ties are common.  Half the instances hang
   demand-free stubs on the ring ([stub_links]), whose nodes lie off
   every group's demand core, so their probes repair masked. *)

let sequence_instance seed =
  let rng = Prng.create (seed + 7919) in
  let ring_size = Prng.int_incl rng 4 8 in
  let n, stubs = if Prng.bool rng then stub_links rng ring_size else (ring_size, []) in
  let arc u v =
    {
      Graph.src = u;
      dst = v;
      capacity = Prng.choose rng [| 2.; 5.; 10. |];
      delay = Prng.choose rng [| 1.; 5.; 12. |];
    }
  in
  let ring = List.init ring_size (fun v -> arc v ((v + 1) mod ring_size)) in
  let chords =
    List.concat
      (List.init (Prng.int_incl rng ring_size (3 * ring_size)) (fun _ ->
           let u = Prng.int rng ring_size and v = Prng.int rng ring_size in
           if u = v then []
           else if Prng.int rng 4 = 0 then [ arc u v; arc v u ]
           else [ arc u v ]))
  in
  let stubs = List.concat_map (fun (u, v) -> [ arc u v; arc v u ]) stubs in
  let g = Graph.build ~n (ring @ chords @ stubs) in
  let th = Matrix.create n and tl = Matrix.create n in
  for _ = 1 to Prng.int_incl rng 1 3 do
    let s = Prng.int rng ring_size in
    Matrix.set th s
      ((s + 1 + Prng.int rng (ring_size - 1)) mod ring_size)
      (0.5 +. Prng.float rng 2.)
  done;
  for s = 0 to ring_size - 1 do
    for t = 0 to ring_size - 1 do
      if s <> t && Prng.int rng 3 > 0 then Matrix.set tl s t (Prng.float rng 3.)
    done
  done;
  let wh = Narrow_moves.weights rng g in
  (g, wh, Narrow_moves.weights rng g, th, tl, rng)

(* One context of a sequence, with the weights the oracle prices it at
   and the destinations its commits deferred, each with the nodes that
   carried none of the probed group's flow toward it. *)
type seq_ctx = {
  ec : Eval_ctx.t;
  mutable wh : int array;
  mutable wl : int array;
  mutable watch : (int * int array * int list) list;  (* dst, classes, zero-flow nodes *)
}

(* Whether node [z] sends flow of one of [classes] toward [dst] in the
   committed rows. *)
let sends ec g classes dst z =
  let out =
    List.filter (fun a -> Graph.src g a = z) (List.init (Graph.arc_count g) Fun.id)
  in
  Array.exists
    (fun k ->
      let row = Eval_ctx.contrib_view ec ~klass:k ~dst in
      Array.length row > 0 && List.exists (fun a -> row.(a) <> 0.) out)
    classes

(* The sequence oracle's counts: deferred destinations seen at commits,
   zero-flow nodes of such a destination that a later commit made carry
   flow, class-0 probes that kept the context's Λ, failure probes
   priced, and instances with off-core nodes. *)
type seq_stats = {
  mutable deferred : int;
  mutable woke : int;
  mutable kept : int;
  mutable failures : int;
  mutable masked : int;
}

(* [Naive.tight] read off [u]'s out-arcs alone (it scans every arc):
   the arcs out of [u] tight toward [t] under the Floyd–Warshall
   distances [d], ascending. *)
let naive_next g ~weights d u t =
  List.filter
    (fun a ->
      let v = Graph.dst g a in
      d.(v).(t) <> Naive.none && weights.(a) + d.(v).(t) = d.(u).(t))
    (Array.to_list (Graph.out_arcs g u))

(* Whether [dag] gives [u] Naive_ecmp's label and next-hop set. *)
let exact_at g ~weights d (dag : Spf.dag) u =
  let t = dag.Spf.dst in
  dag.Spf.dist.(u) = d.(u).(t)
  && Array.to_list dag.Spf.next_arcs.(u) = naive_next g ~weights d u t

(* The nodes that carry flow of [tms] toward [t]: those a tight path
   from a positive-demand source reaches. *)
let naive_flow_nodes g ~weights d tms t =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter (fun a -> go (Graph.dst g a)) (naive_next g ~weights d u t)
    end
  in
  List.iter
    (fun tm ->
      for s = 0 to n - 1 do
        if s <> t && Matrix.get tm s t > 0. then go s
      done)
    tms;
  seen

(* The destinations a group of [tms] sinks demand at: the only ones its
   context holds a real dag for. *)
let sinks_of g tms =
  let sinks = Array.make (Graph.node_count g) false in
  List.iter (fun tm -> Matrix.iter tm (fun _ t _ -> sinks.(t) <- true)) tms;
  sinks

(* Check a group's probe dags against Naive_ecmp under the probed
   weights, at the destinations it sinks demand at ([sinks]): exact at
   every node that carries the group's flow, a repaired dag exact at
   every core node, and every node off the group's core ([off])
   unreachable. *)
let check_probe_dags ~what g ~weights ~off ~sinks ~tms ~committed dags =
  let d = Naive.distances g ~weights in
  Array.iteri
    (fun t (dag : Spf.dag) ->
      if sinks.(t) then begin
        let repaired = dag != committed.(t) in
        Array.iteri
          (fun x carries ->
            if off.(x) then begin
              if dag.Spf.dist.(x) <> Dijkstra.unreachable then
                Alcotest.failf "%s: dst %d: off-core node %d is routed" what t x
            end
            else if not (exact_at g ~weights d dag x) then
              if carries then Alcotest.failf "%s: dst %d: flow node %d inexact" what t x
              else if repaired then
                Alcotest.failf "%s: dst %d: repaired core node %d inexact" what t x)
          (naive_flow_nodes g ~weights d tms t)
      end)
    dags

(* A group's committed dags: at each destination it sinks demand at,
   exact at every core node and unreachable off the core; a placeholder
   at every other destination. *)
let check_committed_dags ~what g ~weights ~off ~sinks dags =
  let d = Naive.distances g ~weights in
  Array.iteri
    (fun t (dag : Spf.dag) ->
      if not sinks.(t) then begin
        if not (Spf.is_placeholder dag) then
          Alcotest.failf "%s: committed dst %d is no placeholder" what t
      end
      else
        Array.iteri
          (fun x o ->
            if
              if o then dag.Spf.dist.(x) <> Dijkstra.unreachable
              else not (exact_at g ~weights d dag x)
            then Alcotest.failf "%s: committed dst %d inexact at node %d" what t x)
          off)
    dags

let sequence_matches ~str ~model stats seed =
  let g, wh, wl, th, tl, rng = sequence_instance seed in
  let sla = match model with Objective.Sla p -> Some p | _ -> None in
  let what0 =
    Printf.sprintf "seed %d %s %s" seed (if str then "str" else "dtr")
      (Objective.model_name model)
  in
  let wl = if str then wh else wl in
  let ec = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let main = { ec; wh; wl; watch = [] } in
  (* Each group's demand matrices and off-core nodes. *)
  let group_tms klass = if str then [ th; tl ] else if klass = 0 then [ th ] else [ tl ] in
  let off_of klass =
    let n = Graph.node_count g in
    let endpoints = Array.make n false in
    List.iter
      (fun tm ->
        Matrix.iter tm (fun s t _ ->
            endpoints.(s) <- true;
            endpoints.(t) <- true))
      (group_tms klass);
    Graph.off_core g ~endpoints
  in
  let off = [| off_of 0; off_of 1 |] in
  let sinks = [| sinks_of g (group_tms 0); sinks_of g (group_tms 1) |] in
  if Array.exists (Array.exists Fun.id) off then stats.masked <- stats.masked + 1;
  let problem = Problem.create ~graph:g ~th ~tl ~model in
  let _, pctx =
    if str then Problem.eval_str_ctx problem ~w:wh else Problem.eval_dtr_ctx problem ~wh ~wl
  in
  let pool = ref [ main ] in
  let primary (c : Naive.costs) =
    match model with Objective.Load -> c.Naive.phi_h | Objective.Sla _ -> c.Naive.lambda
  in
  let context_lambda c =
    match sla with
    | None -> (Eval_ctx.phi c.ec).(0)
    | Some params ->
        (Evaluate.evaluate_sla params (Eval_ctx.to_evaluate c.ec) ~th).Evaluate.lambda
  in
  for step = 1 to 24 do
    let c = List.nth !pool (Prng.int rng (List.length !pool)) in
    let what = Printf.sprintf "%s step %d" what0 step in
    match Prng.int rng 8 with
    | 0 | 1 | 2 | 3 ->
        let klass = if str then 0 else Prng.int rng 2 in
        let _, changes = Narrow_moves.changes rng (if klass = 0 then c.wh else c.wl) in
        let wh' = if klass = 0 then apply c.wh changes else c.wh in
        let wl' = if str then wh' else if klass = 1 then apply c.wl changes else c.wl in
        let want = Naive.evaluate ?sla g ~wh:wh' ~wl:wl' ~th ~tl in
        let p = Eval_ctx.probe c.ec ~klass ~changes in
        let weights = if klass = 0 then wh' else wl' in
        check_probe_dags ~what:(what ^ " probe dags") g ~weights ~off:off.(klass)
          ~sinks:sinks.(klass) ~tms:(group_tms klass)
          ~committed:(Eval_ctx.dags c.ec klass)
          (Eval_ctx.probe_dags c.ec p klass);
        let phi = Eval_ctx.probe_phi p in
        check_close ~what "probe phi_h" phi.(0) want.Naive.phi_h;
        check_close ~what "probe phi_l" phi.(1) want.Naive.phi_l;
        check_close ~what "probe primary" (Eval_ctx.probe_primary ~model ~th c.ec p)
          (primary want);
        if (klass = 0 || str) && Eval_ctx.probe_keeps_flows c.ec p 0 then begin
          stats.kept <- stats.kept + 1;
          check_close ~what "kept primary" (context_lambda c) (primary want)
        end;
        let commit = Prng.bool rng in
        (* [main]'s probes and commits are mirrored on a Problem context,
           whose SLA primary may keep the context's Λ. *)
        if c == main then begin
          let cls = if klass = 0 then `H else `L in
          let d = Problem.eval_delta problem pctx ~cls ~changes in
          check_close ~what "Problem primary" (Problem.delta_objective d).Lexico.primary
            (primary want);
          check_close ~what "Problem phi_l" (Problem.delta_phi_l d) want.Naive.phi_l;
          if commit then begin
            let sol = Problem.commit_delta problem pctx d in
            check_close ~what "Problem committed primary"
              (Problem.objective sol).Lexico.primary (primary want)
          end
        end;
        if commit then begin
          let classes =
            Array.of_list
              (List.filter (fun k -> Eval_ctx.shares_group c.ec k klass) [ 0; 1 ])
          in
          let view = Array.copy (Eval_ctx.probe_dags c.ec p klass) in
          let prev = Eval_ctx.dags c.ec klass in
          Eval_ctx.commit c.ec p;
          c.wh <- wh';
          c.wl <- wl';
          let after = Eval_ctx.dags c.ec klass in
          check_committed_dags ~what g ~weights ~off:off.(klass) ~sinks:sinks.(klass)
            after;
          let committed = Eval_ctx.phi c.ec in
          check_close ~what "committed phi_h" committed.(0) want.Naive.phi_h;
          check_close ~what "committed phi_l" committed.(1) want.Naive.phi_l;
          check_close ~what "committed primary" (context_lambda c) (primary want);
          (* A watched zero-flow node that now carries flow. *)
          c.watch <-
            List.filter
              (fun (dst, classes, nodes) ->
                if List.exists (sends c.ec g classes dst) nodes then begin
                  stats.woke <- stats.woke + 1;
                  false
                end
                else true)
              c.watch;
          Array.iteri
            (fun dst (d : Spf.dag) ->
              if d == prev.(dst) && after.(dst) != prev.(dst) then begin
                stats.deferred <- stats.deferred + 1;
                let idle =
                  List.filter
                    (fun z -> z <> dst && not (sends c.ec g classes dst z))
                    (List.init (Graph.node_count g) Fun.id)
                in
                c.watch <- (dst, classes, idle) :: c.watch
              end)
            view
        end
    | 4 | 5 ->
        let links = Graph.undirected_link_pairs g in
        let a, b = links.(Prng.int rng (Array.length links)) in
        let priced = Prng.int_incl rng 1 2 in
        let what = Printf.sprintf "%s link (%d, %d), %d classes" what a b priced in
        let arcs = if a = b then [ a ] else [ a; b ] in
        let f = Eval_ctx.fail_probe ~classes:priced c.ec ~arcs in
        let reduced, mapping = Ref_failure.fail_link g ~link:(a, b) in
        let wh = Ref_failure.remap_weights c.wh mapping in
        let wl = Ref_failure.remap_weights c.wl mapping in
        let cut =
          naive_severed reduced ~weights:wh (if priced = 1 then [| th |] else [| th; tl |])
        in
        Alcotest.(check int) (what ^ ": severed pairs") cut (Eval_ctx.probe_unreachable f);
        if cut = 0 then begin
          stats.failures <- stats.failures + 1;
          (* Class 0 alone prices without low-priority demand, which may
             be severed. *)
          let tl = if priced = 1 then Matrix.create (Graph.node_count g) else tl in
          let want = Naive.evaluate ?sla reduced ~wh ~wl ~th ~tl in
          let phi = Eval_ctx.probe_phi f in
          check_close ~what "failure phi_h" phi.(0) want.Naive.phi_h;
          check_close ~what "failure primary" (Eval_ctx.probe_primary ~model ~th c.ec f)
            (primary want);
          if priced = 2 then check_close ~what "failure phi_l" phi.(1) want.Naive.phi_l
        end
    | 6 ->
        if List.length !pool < 4 then
          pool :=
            !pool
            @ [ { ec = Eval_ctx.clone c.ec; wh = c.wh; wl = c.wl; watch = [] } ]
    | _ ->
        if c != main then begin
          Eval_ctx.sync ~src:main.ec ~dst:c.ec;
          c.wh <- main.wh;
          c.wl <- main.wl;
          c.watch <- []
        end
  done

let test_sequence_oracle () =
  let stats =
    { deferred = 0; woke = 0; kept = 0; failures = 0; masked = 0 }
  in
  for seed = 1 to 500 do
    List.iter
      (fun str ->
        List.iter
          (fun model -> sequence_matches ~str ~model stats seed)
          [ Objective.Load; Objective.Sla Dtr_cost.Sla.default ])
      [ false; true ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d deferred destinations committed" stats.deferred)
    true (stats.deferred > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d zero-flow nodes of deferred destinations later carry flow"
       stats.woke)
    true (stats.woke > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d class-0 probes kept the context's Λ" stats.kept)
    true (stats.kept > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d survivable failure probes" stats.failures)
    true (stats.failures > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d instances with off-core nodes" stats.masked)
    true (stats.masked > 0)

(* Two-stage diamond, unit demand 0 -> 5 over three equal-cost paths:
   0-1-3-5, 0-1-4-5 and 0-2-5.  OSPF splits per hop, so the first hop
   to 2 carries 1/2; an even split per path would give it 1/3. *)
let test_naive_diamond () =
  let arc u v = { Graph.src = u; dst = v; capacity = 10.; delay = 1. } in
  let g =
    Graph.build ~n:6
      [ arc 0 1; arc 0 2; arc 1 3; arc 1 4; arc 3 5; arc 4 5; arc 2 5 ]
  in
  let w = [| 1; 1; 1; 1; 1; 1; 2 |] in
  let tm = Matrix.create 6 in
  Matrix.set tm 0 5 1.;
  let naive = Naive.loads g ~weights:w tm in
  let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| tm; tm |] in
  let engine = Eval_ctx.loads ctx 0 in
  List.iter
    (fun (name, loads) ->
      Alcotest.(check (float 0.)) (name ^ ": 0->2 gets 1/2") 0.5 loads.(1);
      Alcotest.(check (float 0.)) (name ^ ": 0->1 gets 1/2") 0.5 loads.(0);
      Alcotest.(check (float 0.)) (name ^ ": 1->3 gets 1/4") 0.25 loads.(2))
    [ ("naive", naive); ("engine", engine) ]

let () =
  Alcotest.run "delta"
    [
      ( "spf_delta",
        [
          QCheck_alcotest.to_alcotest (test_spf_delta_property ());
          QCheck_alcotest.to_alcotest (test_spf_delta_two_changes ());
          QCheck_alcotest.to_alcotest prop_repair_batches;
          QCheck_alcotest.to_alcotest prop_repair_tight_out_arcs;
          Alcotest.test_case "repair: link failures and restores" `Quick
            test_repair_link_failures;
          QCheck_alcotest.to_alcotest prop_repair_active;
          Alcotest.test_case "repair: 220-node graph" `Quick test_repair_large_graph;
          Alcotest.test_case "repair work counters" `Quick test_repair_counters;
          QCheck_alcotest.to_alcotest prop_unchanged_sets_shared;
          QCheck_alcotest.to_alcotest prop_scratch_copy_owned;
          test_same_flows;
          Alcotest.test_case "same-flow rule: re-associated sum not reported" `Quick
            test_same_flows_counterexample;
          Alcotest.test_case "repair refuses a label too large to pack" `Quick
            test_repair_label_range;
        ] );
      ( "spf_mask",
        [
          test_masked_repairs;
          Alcotest.test_case "off-core nodes are never marked, seeded, settled or re-set"
            `Quick test_masked_stub_untouched;
          Alcotest.test_case "no core node is seeded from an off-core label" `Quick
            test_masked_no_stub_seed;
          Alcotest.test_case "a stale off-core head never joins a next-hop set" `Quick
            test_masked_stale_head;
          Alcotest.test_case "the same-flow rule ignores off-core tails" `Quick
            test_masked_same_flow;
          Alcotest.test_case "a scratch follows a new mask" `Quick
            test_masked_scratch_follows_mask;
        ] );
      ( "loads",
        [
          Alcotest.test_case "destination subtotals recombine" `Quick
            test_destination_loads_sum;
        ] );
      ( "eval_ctx",
        [
          QCheck_alcotest.to_alcotest (test_eval_ctx_property ());
          QCheck_alcotest.to_alcotest (test_eval_ctx_shared ());
          QCheck_alcotest.to_alcotest (test_eval_ctx_three_classes ());
          Alcotest.test_case "stale probe rejected" `Quick
            test_eval_ctx_stale_probe;
          Alcotest.test_case "probe refuses an arc listed twice" `Quick
            test_probe_arc_listed_twice;
        ] );
      ( "problem",
        [
          QCheck_alcotest.to_alcotest (test_problem_delta ());
          Alcotest.test_case "full/delta counters" `Quick test_problem_counters;
          QCheck_alcotest.to_alcotest (test_cmp_stable_on_unchanged_arcs ());
        ] );
      ( "oracle",
        [
          Alcotest.test_case "engine = naive ECMP on 1,000 multigraphs" `Quick
            test_naive_oracle;
          Alcotest.test_case "per-hop split on a two-stage diamond" `Quick
            test_naive_diamond;
          Alcotest.test_case "engine = naive ECMP over probe/commit/failure sequences"
            `Quick test_sequence_oracle;
        ] );
    ]
