(* Tests for Dtr_netsim: the link queue, the discrete-event simulator
   (including validation against M/M/1 non-preemptive priority
   theory), and agreement with the flow-level ECMP model. *)

module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Packet = Dtr_netsim.Packet
module Link_queue = Dtr_netsim.Link_queue
module Sim = Dtr_netsim.Sim
module Classic = Dtr_topology.Classic
module Weights = Dtr_routing.Weights

let checkf eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Packet *)

let mk_packet ?(klass = Packet.High) ?(size = 8000.) id =
  Packet.create ~id ~klass ~src:0 ~dst:1 ~size_bits:size ~created:0.

let test_packet_create () =
  let p = mk_packet 7 in
  Alcotest.(check int) "id" 7 p.Packet.id;
  Alcotest.(check int) "hops start at 0" 0 p.Packet.hops

let test_packet_rejects () =
  Alcotest.check_raises "zero size"
    (Invalid_argument "Packet.create: non-positive size") (fun () ->
      ignore
        (Packet.create ~id:0 ~klass:Packet.High ~src:0 ~dst:1 ~size_bits:0.
           ~created:0.));
  Alcotest.check_raises "self destination"
    (Invalid_argument "Packet.create: src = dst") (fun () ->
      ignore
        (Packet.create ~id:0 ~klass:Packet.High ~src:1 ~dst:1 ~size_bits:1.
           ~created:0.))

let test_klass_name () =
  Alcotest.(check string) "high" "high" (Packet.klass_name Packet.High);
  Alcotest.(check string) "low" "low" (Packet.klass_name Packet.Low)

(* ------------------------------------------------------------------ *)
(* Link_queue *)

let test_link_queue_priority_order () =
  let q = Link_queue.create ~capacity_mbps:10. () in
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 1));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.High 2));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 3));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.High 4));
  let next () =
    match Link_queue.take_next q with
    | Some p -> p.Packet.id
    | None -> -1
  in
  Alcotest.(check int) "high first" 2 (next ());
  Alcotest.(check int) "high again" 4 (next ());
  Alcotest.(check int) "then low fifo" 1 (next ());
  Alcotest.(check int) "then low" 3 (next ());
  Alcotest.(check int) "empty" (-1) (next ())

let test_link_queue_service_time () =
  let q = Link_queue.create ~capacity_mbps:10. () in
  (* 10 Mbps = 10,000 bits/ms; an 8,000-bit packet takes 0.8 ms. *)
  checkf 1e-9 "service time" 0.8 (Link_queue.service_time q (mk_packet 1))

let test_link_queue_lengths () =
  let q = Link_queue.create ~capacity_mbps:1. () in
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.High 1));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 2));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 3));
  Alcotest.(check int) "high len" 1 (Link_queue.queue_length q Packet.High);
  Alcotest.(check int) "low len" 2 (Link_queue.queue_length q Packet.Low);
  Alcotest.(check int) "total" 3 (Link_queue.total_queued q)

let test_link_queue_counters () =
  let q = Link_queue.create ~capacity_mbps:1. () in
  Link_queue.note_transmitted q Packet.High;
  Link_queue.note_transmitted q Packet.High;
  Link_queue.note_transmitted q Packet.Low;
  Alcotest.(check int) "high tx" 2 (Link_queue.transmitted q Packet.High);
  Alcotest.(check int) "low tx" 1 (Link_queue.transmitted q Packet.Low);
  Link_queue.add_busy_time q 1.5;
  Link_queue.add_busy_time q 0.5;
  checkf 1e-9 "busy time" 2. (Link_queue.busy_time q)

let test_link_queue_rejects () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Link_queue.create: non-positive capacity") (fun () ->
      ignore (Link_queue.create ~capacity_mbps:0. ()))

let test_link_queue_fifo_order () =
  let q = Link_queue.create ~discipline:Link_queue.Fifo ~capacity_mbps:10. () in
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 1));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.High 2));
  ignore (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 3));
  let next () =
    match Link_queue.take_next q with Some p -> p.Packet.id | None -> -1
  in
  (* Arrival order, regardless of class. *)
  Alcotest.(check int) "fifo 1" 1 (next ());
  Alcotest.(check int) "fifo 2" 2 (next ());
  Alcotest.(check int) "fifo 3" 3 (next ())

let test_link_queue_buffer_drops () =
  let q = Link_queue.create ~buffer_packets:2 ~capacity_mbps:1. () in
  Alcotest.(check bool) "first accepted" true
    (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 1) = Link_queue.Accepted);
  Alcotest.(check bool) "second accepted" true
    (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 2) = Link_queue.Accepted);
  Alcotest.(check bool) "third dropped" true
    (Link_queue.enqueue q (mk_packet ~klass:Packet.Low 3) = Link_queue.Dropped);
  (* Per-class bound: the high queue still has room. *)
  Alcotest.(check bool) "high accepted" true
    (Link_queue.enqueue q (mk_packet ~klass:Packet.High 4) = Link_queue.Accepted);
  Alcotest.(check int) "one low drop" 1 (Link_queue.dropped q Packet.Low);
  Alcotest.(check int) "no high drops" 0 (Link_queue.dropped q Packet.High)

let test_link_queue_rejects_bad_buffer () =
  Alcotest.check_raises "buffer"
    (Invalid_argument "Link_queue.create: non-positive buffer") (fun () ->
      ignore (Link_queue.create ~buffer_packets:0 ~capacity_mbps:1. ()))

let test_link_queue_discipline_accessor () =
  let p = Link_queue.create ~capacity_mbps:1. () in
  Alcotest.(check bool) "default priority" true
    (Link_queue.discipline p = Link_queue.Priority);
  let f = Link_queue.create ~discipline:Link_queue.Fifo ~capacity_mbps:1. () in
  Alcotest.(check bool) "fifo" true (Link_queue.discipline f = Link_queue.Fifo)

(* ------------------------------------------------------------------ *)
(* Sim: basic machinery *)

let two_node ?(capacity = 1.0) ?(delay = 0.5) () =
  Graph.build ~n:2 (Graph.add_symmetric ~capacity ~delay 0 1 [])

let simple_matrices demand_h demand_l =
  let th = Matrix.create 2 and tl = Matrix.create 2 in
  if demand_h > 0. then Matrix.set th 0 1 demand_h;
  if demand_l > 0. then Matrix.set tl 0 1 demand_l;
  (th, tl)

let test_sim_rejects_bad_config () =
  let g = two_node () in
  let th, tl = simple_matrices 0.1 0.1 in
  let w = Weights.uniform g 1 in
  Alcotest.check_raises "duration"
    (Invalid_argument "Sim.run: non-positive duration") (fun () ->
      ignore
        (Sim.run g ~wh:w ~wl:w ~th ~tl
           { Sim.default_config with Sim.duration = 0. }));
  Alcotest.check_raises "warmup"
    (Invalid_argument "Sim.run: warmup must lie in [0, duration)") (fun () ->
      ignore
        (Sim.run g ~wh:w ~wl:w ~th ~tl
           { Sim.default_config with Sim.duration = 10.; warmup = 10. }))

let test_sim_deterministic () =
  let g = two_node () in
  let th, tl = simple_matrices 0.2 0.2 in
  let w = Weights.uniform g 1 in
  let cfg = { Sim.default_config with Sim.duration = 500.; warmup = 50. } in
  let a = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  let b = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  Alcotest.(check int) "same deliveries" a.Sim.high.Sim.delivered
    b.Sim.high.Sim.delivered;
  checkf 1e-12 "same mean delay" a.Sim.high.Sim.mean_delay
    b.Sim.high.Sim.mean_delay

let test_sim_delivers_both_classes () =
  let g = two_node () in
  let th, tl = simple_matrices 0.2 0.3 in
  let w = Weights.uniform g 1 in
  let cfg = { Sim.default_config with Sim.duration = 2000.; warmup = 100. } in
  (* 0.2 Mbps of 8000-bit packets = 0.025 pkts/ms: expect ~45 measured
     deliveries over the 1900 ms measurement window. *)
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  Alcotest.(check bool) "high delivered" true (r.Sim.high.Sim.delivered > 20);
  Alcotest.(check bool) "low delivered" true (r.Sim.low.Sim.delivered > 30);
  Alcotest.(check bool) "injected >= delivered" true
    (r.Sim.high.Sim.injected >= r.Sim.high.Sim.delivered)

let test_sim_single_hop_count () =
  let g = two_node () in
  let th, tl = simple_matrices 0.2 0.2 in
  let w = Weights.uniform g 1 in
  let cfg = { Sim.default_config with Sim.duration = 1000.; warmup = 100. } in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  checkf 1e-9 "one hop" 1. r.Sim.high.Sim.mean_hops

let test_sim_pair_delay_accessor () =
  let g = two_node () in
  let th, tl = simple_matrices 0.2 0.2 in
  let w = Weights.uniform g 1 in
  let cfg = { Sim.default_config with Sim.duration = 1000.; warmup = 100. } in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  (match Sim.pair_mean_delay r ~src:0 ~dst:1 ~klass:Packet.High with
  | Some d -> Alcotest.(check bool) "positive delay" true (d > 0.)
  | None -> Alcotest.fail "expected delay sample");
  Alcotest.(check bool) "absent pair" true
    (Sim.pair_mean_delay r ~src:1 ~dst:0 ~klass:Packet.High = None)

let test_sim_delay_at_least_propagation () =
  let g = two_node ~delay:3. () in
  let th, tl = simple_matrices 0.1 0.1 in
  let w = Weights.uniform g 1 in
  let cfg = { Sim.default_config with Sim.duration = 1000.; warmup = 100. } in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  Alcotest.(check bool) "delay > propagation" true
    (r.Sim.high.Sim.mean_delay > 3.)

let test_sim_finite_buffers_drop () =
  (* Offered load 2x capacity: with a tiny buffer, low-priority packets
     must drop and the measured delay stays bounded by the buffer. *)
  let g = two_node ~capacity:1.0 ~delay:0.1 () in
  let th, tl = simple_matrices 0.5 1.5 in
  let w = Weights.uniform g 1 in
  let cfg =
    {
      Sim.duration = 20_000.;
      warmup = 1_000.;
      mean_packet_bits = 1000.;
      seed = 13;
      discipline = Link_queue.Priority;
      buffer_packets = Some 10;
    }
  in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  Alcotest.(check bool) "low drops" true (r.Sim.low.Sim.dropped > 100);
  Alcotest.(check bool) "high mostly spared" true
    (r.Sim.high.Sim.dropped < r.Sim.low.Sim.dropped / 10);
  (* Max sojourn bounded: the queue ahead holds at most buffer+1
     packets; generous cap to avoid flakiness with exponential sizes. *)
  Alcotest.(check bool) "low delay bounded by buffer" true
    (r.Sim.low.Sim.max_delay < 150.)

(* ------------------------------------------------------------------ *)
(* Sim: M/M/1 non-preemptive priority validation.

   Capacity 1 Mbps = 1000 bits/ms, mean packet 1000 bits -> mu = 1/ms.
   lambda_H = 0.3, lambda_L = 0.4 => rho_H = 0.3, rho = 0.7.
   Mean residual R = rho / mu = 0.7.
   W_H = R / (1 - rho_H) = 1.0;  W_L = R / ((1 - rho_H)(1 - rho)) = 10/3.
   Sojourn = W + 1/mu + propagation(0.5). *)

let mm1_result =
  lazy
    (let g = two_node ~capacity:1.0 ~delay:0.5 () in
     let th, tl = simple_matrices 0.3 0.4 in
     let w = Weights.uniform g 1 in
     let cfg =
       {
         Sim.duration = 200_000.;
         warmup = 5_000.;
         mean_packet_bits = 1000.;
         seed = 11;
         discipline = Dtr_netsim.Link_queue.Priority;
         buffer_packets = None;
       }
     in
     Sim.run g ~wh:w ~wl:w ~th ~tl cfg)

let test_mm1_high_priority_delay () =
  let r = Lazy.force mm1_result in
  checkf 0.15 "W_H + service + prop" 2.5 r.Sim.high.Sim.mean_delay

let test_mm1_low_priority_delay () =
  let r = Lazy.force mm1_result in
  checkf 0.35 "W_L + service + prop" (10. /. 3. +. 1.5)
    r.Sim.low.Sim.mean_delay

let test_mm1_utilization () =
  let r = Lazy.force mm1_result in
  checkf 0.02 "rho" 0.7 r.Sim.link_utilization.(0)

let test_mm1_priority_gap () =
  (* The low-priority class must wait strictly longer. *)
  let r = Lazy.force mm1_result in
  Alcotest.(check bool) "low waits more" true
    (r.Sim.low.Sim.mean_delay > r.Sim.high.Sim.mean_delay +. 1.)

let test_fifo_no_differentiation () =
  (* Under a shared FIFO both classes see the plain M/M/1 delay:
     W = rho / (mu (1 - rho)) = 0.7 / 0.3 = 2.333; + service + prop. *)
  let g = two_node ~capacity:1.0 ~delay:0.5 () in
  let th, tl = simple_matrices 0.3 0.4 in
  let w = Weights.uniform g 1 in
  let cfg =
    {
      Sim.duration = 100_000.;
      warmup = 5_000.;
      mean_packet_bits = 1000.;
      seed = 12;
      discipline = Link_queue.Fifo;
      buffer_packets = None;
    }
  in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  checkf 0.3 "high sees shared queue" (2.333 +. 1.5) r.Sim.high.Sim.mean_delay;
  checkf 0.3 "low sees shared queue" (2.333 +. 1.5) r.Sim.low.Sim.mean_delay;
  Alcotest.(check bool) "classes within noise of each other" true
    (Float.abs (r.Sim.high.Sim.mean_delay -. r.Sim.low.Sim.mean_delay) < 0.4)

(* ------------------------------------------------------------------ *)
(* Sim vs flow-level model: mean arc loads under ECMP. *)

let test_sim_matches_flow_level_utilization () =
  let g = Classic.ring ~capacity:5.0 ~delay:0.3 6 in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 3 0.6;
  Matrix.set tl 1 4 0.8;
  Matrix.set tl 5 2 0.5;
  let w = Weights.uniform g 1 in
  let eval = Dtr_oracle.Ref_evaluate.evaluate g ~wh:w ~wl:w ~th ~tl in
  let predicted = Dtr_routing.Evaluate.utilization eval in
  let cfg =
    { Sim.default_config with Sim.duration = 60_000.; warmup = 2_000.; mean_packet_bits = 1000.; seed = 3 }
  in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "arc %d within 0.02 of prediction" i)
        true
        (Float.abs (p -. r.Sim.link_utilization.(i)) < 0.02))
    predicted

let test_sim_ecmp_splits_evenly () =
  (* Triangle with equal weights: 0 -> 2 has a direct path (cost 1).
     Raise the direct arc weight to 2 so both the direct and the
     two-hop route tie, then check the split. *)
  let g = Classic.triangle ~capacity:5.0 ~delay:0.1 () in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 2 1.0;
  let w = Weights.uniform g 1 in
  (match Graph.find_arc g ~src:0 ~dst:2 with
  | Some id -> w.(id) <- 2
  | None -> Alcotest.fail "missing arc");
  let cfg =
    { Sim.default_config with Sim.duration = 30_000.; warmup = 1_000.; mean_packet_bits = 1000.; seed = 5 }
  in
  let r = Sim.run g ~wh:w ~wl:w ~th ~tl cfg in
  let util src dst =
    match Graph.find_arc g ~src ~dst with
    | Some id -> r.Sim.link_utilization.(id)
    | None -> 0.
  in
  (* Half the demand direct (0.5/5 = 0.1), half via node 1. *)
  checkf 0.02 "direct carries half" 0.1 (util 0 2);
  checkf 0.02 "first hop of detour" 0.1 (util 0 1);
  checkf 0.02 "second hop of detour" 0.1 (util 1 2)

let () =
  Alcotest.run "dtr_netsim"
    [
      ( "packet",
        [
          Alcotest.test_case "create" `Quick test_packet_create;
          Alcotest.test_case "rejects bad input" `Quick test_packet_rejects;
          Alcotest.test_case "class names" `Quick test_klass_name;
        ] );
      ( "link-queue",
        [
          Alcotest.test_case "priority order" `Quick
            test_link_queue_priority_order;
          Alcotest.test_case "service time" `Quick test_link_queue_service_time;
          Alcotest.test_case "queue lengths" `Quick test_link_queue_lengths;
          Alcotest.test_case "counters" `Quick test_link_queue_counters;
          Alcotest.test_case "rejects bad capacity" `Quick
            test_link_queue_rejects;
          Alcotest.test_case "fifo order" `Quick test_link_queue_fifo_order;
          Alcotest.test_case "discipline accessor" `Quick
            test_link_queue_discipline_accessor;
          Alcotest.test_case "buffer drops" `Quick test_link_queue_buffer_drops;
          Alcotest.test_case "rejects bad buffer" `Quick
            test_link_queue_rejects_bad_buffer;
        ] );
      ( "sim",
        [
          Alcotest.test_case "rejects bad config" `Quick test_sim_rejects_bad_config;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "delivers both classes" `Quick
            test_sim_delivers_both_classes;
          Alcotest.test_case "single hop count" `Quick test_sim_single_hop_count;
          Alcotest.test_case "pair delay accessor" `Quick
            test_sim_pair_delay_accessor;
          Alcotest.test_case "delay at least propagation" `Quick
            test_sim_delay_at_least_propagation;
          Alcotest.test_case "finite buffers drop" `Slow
            test_sim_finite_buffers_drop;
        ] );
      ( "mm1-validation",
        [
          Alcotest.test_case "high-priority delay" `Slow
            test_mm1_high_priority_delay;
          Alcotest.test_case "low-priority delay" `Slow
            test_mm1_low_priority_delay;
          Alcotest.test_case "utilization" `Slow test_mm1_utilization;
          Alcotest.test_case "priority gap" `Slow test_mm1_priority_gap;
          Alcotest.test_case "FIFO removes differentiation" `Slow
            test_fifo_no_differentiation;
        ] );
      ( "flow-level-agreement",
        [
          Alcotest.test_case "utilization matches model" `Slow
            test_sim_matches_flow_level_utilization;
          Alcotest.test_case "ECMP splits evenly" `Slow
            test_sim_ecmp_splits_evenly;
        ] );
    ]
