(* Replay: time the benchmark's own calls into public layer functions,
   on a workload's final incumbent, under a seeded stream of
   single-weight changes (half uniform arcs, half drawn from the cost
   ranking with the search's heavy-tailed rank distribution).

   Each function is called until [target] samples are taken — enough
   for ten to lie beyond p99 — or its share of the time budget is used
   up, whichever comes first; the sample count is reported next to the
   mean, p50 and p99, with the minor-heap words allocated per call.
   The replay checks itself: every [Eval_ctx.probe] agrees bitwise
   with [Problem.eval_delta] on the same change, and neither context's
   objective moves. *)

module Problem = Dtr_core.Problem
module Scan = Dtr_core.Scan
module Ranking = Dtr_core.Ranking
module Search_config = Dtr_core.Search_config
module Eval_ctx = Dtr_routing.Eval_ctx
module Failure_sweep = Dtr_routing.Failure_sweep
module Weights = Dtr_routing.Weights
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist

let target = 1000

let min_calls = 3

type timing = {
  name : string;  (** e.g. ["eval_ctx.probe_us"] *)
  unit_ : string;
  samples : float array;  (** seconds *)
  words_per_call : float;
}

let scale = function "us" -> 1e6 | "ms" -> 1e3 | _ -> 1.

let timing_metrics t =
  let k = scale t.unit_ in
  let v p = k *. Out.percentile t.samples p in
  [
    Out.count (t.name ^ ".count") (Array.length t.samples);
    Out.metric (t.name ^ ".mean") t.unit_ (k *. Out.mean t.samples);
    Out.metric (t.name ^ ".p50") t.unit_ (v 50.);
    Out.metric (t.name ^ ".p99") t.unit_ (v 99.);
    Out.metric (t.name ^ ".minor_words") "words" t.words_per_call;
  ]

let mean_s t = Out.mean t.samples

(* Call [step i] for i = 0, 1, ... until [target] samples or [budget]
   seconds; [step] does its own untimed preparation and passes the
   call to time to [timed]. *)
let sample ~name ~unit_ ~budget step =
  let samples = ref [] and words = ref 0. and n = ref 0 in
  let timed f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    words := !words +. (Gc.minor_words () -. w0);
    samples := dt :: !samples;
    incr n;
    r
  in
  let t0 = Unix.gettimeofday () in
  while
    !n < min_calls
    || (!n < target && Unix.gettimeofday () -. t0 < budget)
  do
    step timed !n
  done;
  {
    name;
    unit_;
    samples = Array.of_list (List.rev !samples);
    words_per_call = !words /. float_of_int !n;
  }

type change = { cls : Problem.cls; arc : int; value : int }

(* Seeded change stream for one class: even entries pick a uniform
   arc, odd entries a heavy-tailed rank of the cost ranking; the new
   value is uniform over the 29 values the arc does not hold. *)
let stream rng problem ctx ~cls n =
  let m = Graph.arc_count problem.Problem.graph in
  let cmp =
    match cls with
    | `H -> Problem.ctx_arc_cmp_h problem ctx
    | `L -> Problem.ctx_arc_cmp_l problem ctx
  in
  let ranked = Array.copy (Ranking.arcs (Ranking.create ()) ctx ~cmp m) in
  let ht = Dist.heavy_tail ~tau:1.5 ~n:m in
  let w = Problem.ctx_weights_view ctx cls in
  Array.init n (fun i ->
      let arc =
        if i land 1 = 0 then Prng.int rng m
        else ranked.(Dist.heavy_tail_sample ht rng - 1)
      in
      let v = Weights.min_weight + Prng.int rng (Weights.max_weight - 1) in
      let value = if v >= w.(arc) then v + 1 else v in
      { cls; arc; value })

let class_index = function `H -> 0 | `L -> 1

type result = {
  timings : timing list;
  checks : (string * bool) list;
}

let run (w : Workload.t) (inst : Workload.instance) (best : Problem.solution)
    ~seed ~budget =
  let problem = inst.Workload.problem in
  let g = problem.Problem.graph in
  let m = Graph.arc_count g in
  let cfg = w.Workload.cfg in
  let rng = Prng.create seed in
  let weights = [| best.Problem.wh; best.Problem.wl |] in
  let matrices = [| problem.Problem.th; problem.Problem.tl |] in
  let dest_mode = problem.Problem.dest_mode in
  (* Demand-only contexts route each weight group to the destinations
     its own classes sink demand at. *)
  let active =
    match dest_mode with
    | Eval_ctx.All -> [| None; None |]
    | Eval_ctx.Demand ->
        let sinks ms =
          let a = Array.make (Graph.node_count g) false in
          List.iter (fun mx -> Matrix.iter mx (fun _ d _ -> a.(d) <- true)) ms;
          Some a
        in
        Array.map (fun mx -> sinks [ mx ]) matrices
  in
  let dests =
    Array.map
      (function
        | None -> Array.init (Graph.node_count g) Fun.id
        | Some a ->
            Array.of_list
              (List.filter (fun d -> a.(d)) (List.init (Array.length a) Fun.id)))
      active
  in
  let ctx = Problem.ctx_of_solution problem best in
  let ec = Eval_ctx.create ~dest_mode g ~weights ~matrices in
  let stream_h = stream rng problem ctx ~cls:`H target in
  let stream_l = stream rng problem ctx ~cls:`L target in
  (* The mixed stream alternates classes pairwise, so both sampling
     modes reach both classes. *)
  let mixed =
    Array.init target (fun i ->
        if (i / 2) land 1 = 0 then stream_h.(i) else stream_l.(i))
  in
  let at s i = s.(i mod Array.length s) in
  let phi0 = Eval_ctx.phi ec in
  let obj0 = Problem.objective (Problem.ctx_solution problem ctx) in
  (* Functions run cheapest first; each may use an even share of the
     budget still left, so time a fast function does not need passes
     to the slower ones after it. *)
  let deadline = Unix.gettimeofday () +. budget in
  let remaining = ref 12 in
  let share () =
    let s = (deadline -. Unix.gettimeofday ()) /. float_of_int !remaining in
    decr remaining;
    Float.max 0. s
  in
  let ws = Dijkstra.workspace () in
  let scratch = Array.map Array.copy weights in
  (* Run [f] with the change applied to its class's scratch vector. *)
  let with_change c f =
    let k = class_index c.cls in
    let v = scratch.(k) in
    let before = v.(c.arc) in
    v.(c.arc) <- c.value;
    Fun.protect ~finally:(fun () -> v.(c.arc) <- before) (fun () -> f k v before)
  in
  let t name unit_ step = sample ~name ~unit_ ~budget:(share ()) step in
  let dijkstra =
    t "dijkstra.distances_to_us" "us" (fun timed i ->
        with_change (at mixed i) (fun k v _ ->
            let dst = dests.(k).(i mod Array.length dests.(k)) in
            ignore
              (timed (fun () ->
                   Dijkstra.distances_to_unchecked ~ws g ~weights:v ~dst))))
  in
  (* Warm ranking repair one commit later, on a clone so [ctx] stays
     put: commit a change, time the repair, commit the change back. *)
  let ranking =
    let rctx = Problem.clone_ctx problem ctx in
    let cache = Ranking.create () in
    let arcs () =
      ignore (Ranking.arcs cache rctx ~cmp:(Problem.ctx_arc_cmp_h problem rctx) m)
    in
    let commit cls changes =
      let d = Problem.eval_delta ~count:false problem rctx ~cls ~changes in
      ignore (Problem.commit_delta problem rctx d)
    in
    arcs ();
    t "ranking.arcs_us" "us" (fun timed i ->
        let c = at mixed i in
        let cur = (Problem.ctx_weights_view rctx c.cls).(c.arc) in
        commit c.cls [ (c.arc, c.value) ];
        timed arcs;
        commit c.cls [ (c.arc, cur) ];
        arcs ())
  in
  let links = Graph.undirected_link_pairs g in
  let fail_probe =
    let order = Array.init (Array.length links) Fun.id in
    Prng.shuffle rng order;
    t "eval_ctx.fail_probe_us" "us" (fun timed i ->
        let a, b = links.(order.(i mod Array.length order)) in
        let arcs = if a = b then [ a ] else [ a; b ] in
        ignore (timed (fun () -> Eval_ctx.fail_probe ec ~arcs)))
  in
  let spf_delta =
    t "spf_delta.update_us" "us" (fun timed i ->
        let c = at mixed i in
        with_change c (fun k v before ->
            let prev = Eval_ctx.dags ec k in
            let changes = [ { Spf_delta.arc = c.arc; before; after = c.value } ] in
            ignore
              (timed (fun () ->
                   Spf_delta.update ~ws ?active:active.(k) g ~weights:v ~prev
                     ~changes))))
  in
  let probes_agree = ref true in
  let probe =
    t "eval_ctx.probe_us" "us" (fun timed i ->
        let c = at mixed i in
        let changes = [ (c.arc, c.value) ] in
        let p =
          timed (fun () -> Eval_ctx.probe ec ~klass:(class_index c.cls) ~changes)
        in
        let d = Problem.eval_delta ~count:false problem ctx ~cls:c.cls ~changes in
        let phi = Eval_ctx.probe_phi p in
        if
          not
            (Check.same_float phi.(0) (Problem.delta_phi_h d)
            && Check.same_float phi.(1) (Problem.delta_phi_l d))
        then probes_agree := false;
        Eval_ctx.abort ec p;
        Problem.abort_delta ctx d)
  in
  let eval_delta name cls s =
    t name "us" (fun timed i ->
        let c = at s i in
        let d =
          timed (fun () ->
              Problem.eval_delta ~count:false problem ctx ~cls
                ~changes:[ (c.arc, c.value) ])
        in
        Problem.abort_delta ctx d)
  in
  let delta_h = eval_delta "problem.eval_delta_h_us" `H stream_h in
  let delta_l = eval_delta "problem.eval_delta_l_us" `L stream_l in
  let all_destinations =
    t "spf.all_destinations_ms" "ms" (fun timed i ->
        with_change (at mixed i) (fun k v _ ->
            ignore
              (timed (fun () ->
                   match active.(k) with
                   | None -> Spf.all_destinations ~ws g ~weights:v
                   | Some active -> Spf.for_destinations ~ws g ~weights:v ~active))))
  in
  let create =
    t "eval_ctx.create_ms" "ms" (fun timed _ ->
        ignore (timed (fun () -> Eval_ctx.create ~dest_mode g ~weights ~matrices)))
  in
  (* The full from-scratch evaluation a search pays: SPF sweeps, loads,
     Φ, and under SLA the delay/Λ costing ([Objective.of_eval]). *)
  let evaluate =
    t "objective.evaluate_ms" "ms" (fun timed i ->
        with_change (at mixed i) (fun _ _ _ ->
            ignore
              (timed (fun () ->
                   Problem.eval_dtr problem ~wh:scratch.(0) ~wl:scratch.(1)))))
  in
  (* One value scan: the 29 values an arc does not hold. *)
  let scan =
    Scan.with_engine ~jobs:cfg.Search_config.scan_jobs problem @@ fun engine ->
    t "scan.evaluate_ms" "ms" (fun timed i ->
        let c = at mixed i in
        let cur = (Problem.ctx_weights_view ctx c.cls).(c.arc) in
        let values =
          Array.of_list
            (List.filter (( <> ) cur) (List.init Weights.max_weight (fun v -> v + 1)))
        in
        ignore
          (timed (fun () ->
               Scan.evaluate engine ctx ~cls:c.cls
                 ~changes_of:(fun j -> [ (c.arc, values.(j)) ])
                 (Array.length values))))
  in
  (* A sweep is one failure probe per link; it is skipped (zero calls)
     when that estimate exceeds the time left, as on the 1k-node
     networks whose searches never sweep. *)
  let sweep =
    let budget = share () in
    if float_of_int (Array.length links) *. mean_s fail_probe > budget then
      { name = "failure_sweep.sweep_ms"; unit_ = "ms"; samples = [||]; words_per_call = 0. }
    else
      sample ~name:"failure_sweep.sweep_ms" ~unit_:"ms" ~budget (fun timed _ ->
          ignore
            (timed (fun () ->
                 Failure_sweep.sweep ~model:problem.Problem.model
                   ~th:problem.Problem.th ec)))
  in
  let timings =
    [
      dijkstra; all_destinations; spf_delta; create; probe; evaluate; delta_h;
      delta_l; scan; ranking; sweep; fail_probe;
    ]
  in
  let phi1 = Eval_ctx.phi ec in
  let obj1 = Problem.objective (Problem.ctx_solution problem ctx) in
  let phi_kept =
    Array.length phi0 = Array.length phi1
    && Array.for_all2 Check.same_float phi0 phi1
    && Check.same_objective obj0 obj1
  in
  {
    timings;
    checks =
      [ ("replay_probes_match_eval_delta", !probes_agree);
        ("replay_leaves_context_unchanged", phi_kept) ];
  }

let find r name = List.find (fun t -> t.name = name) r.timings
