(* Tests for the metrics subsystem: histogram bucket boundaries,
   disabled-registry no-ops, the determinism contract on counters
   (deterministic snapshots byte-identical across jobs and scan-jobs,
   on both cost models, with every search report's evaluation count
   equal to the evaluation metrics), run manifests, timestamp-free
   trace sinks, the allocation cost of disabled tracing and metrics,
   and a golden-output check of the inspect report tables. *)

module Json = Dtr_util.Json
module Metrics = Dtr_util.Metrics
module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Matrix = Dtr_traffic.Matrix
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Report = Dtr_routing.Report
module Search_config = Dtr_core.Search_config
module Problem = Dtr_core.Problem
module Str_search = Dtr_core.Str_search
module Dtr_search = Dtr_core.Dtr_search
module Anneal_search = Dtr_core.Anneal_search
module Multistart = Dtr_core.Multistart
module Manifest = Dtr_core.Manifest
module Trace = Dtr_core.Trace
module Scenario = Dtr_experiments.Scenario
module Classic = Dtr_topology.Classic
module Graph = Dtr_graph.Graph

(* Every test that records leaves the registry off and zeroed so test
   order never matters. *)
let with_metrics f =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let tiny_config =
  {
    Search_config.quick with
    Search_config.n_iters = 15;
    k_iters = 20;
    diversify_after = 8;
  }

let ring_problem ?(model = Objective.Load) ?(scan_jobs = 1) () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 3 0.3;
  Matrix.set th 1 4 0.2;
  Matrix.set tl 0 3 0.4;
  Matrix.set tl 2 5 0.5;
  Matrix.set tl 4 1 0.3;
  ( Problem.create ~graph:g ~th ~tl ~model,
    { tiny_config with Search_config.scan_jobs } )

(* ------------------------------------------------------------------ *)
(* Histogram buckets *)

let test_bucket_boundaries () =
  Alcotest.(check int) "zero has its own bucket" 0 (Metrics.bucket_of 0.);
  Alcotest.(check int) "nan rejected" (-1) (Metrics.bucket_of Float.nan);
  Alcotest.(check int) "negative rejected" (-1) (Metrics.bucket_of (-1.));
  Alcotest.(check int)
    "negative zero is zero" 0
    (Metrics.bucket_of (-0.));
  let s1 = Metrics.bucket_of 1.0 in
  Alcotest.(check (float 0.)) "1.0 bucket upper" 2.0 (Metrics.bucket_upper s1);
  Alcotest.(check int) "1.5 shares 1.0's bucket" s1 (Metrics.bucket_of 1.5);
  Alcotest.(check int)
    "2.0 starts the next bucket" (s1 + 1)
    (Metrics.bucket_of 2.0);
  Alcotest.(check int)
    "0.5 is one bucket below" (s1 - 1)
    (Metrics.bucket_of 0.5);
  (* The smallest subnormal clamps into the lowest nonzero bucket... *)
  Alcotest.(check int)
    "subnormal clamps low" 1
    (Metrics.bucket_of (Float.ldexp 1. (-1074)));
  (* ...and max_float / infinity into the highest. *)
  let top = Metrics.bucket_of Float.max_float in
  Alcotest.(check int) "infinity lands with max_float" top
    (Metrics.bucket_of Float.infinity);
  Alcotest.(check bool) "max_float above 2.0" true (top > Metrics.bucket_of 2.0)

let test_histogram_observe () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~help:"test histogram" "dtr_test_hist" in
  List.iter (Metrics.observe h) [ 0.; 1.0; 1.5; Float.nan; -3.; Float.max_float ];
  let counts, rejected = Metrics.histogram_counts h in
  Alcotest.(check int) "nan and negative rejected" 2 rejected;
  Alcotest.(check int) "zero bucket" 1 counts.(0);
  Alcotest.(check int) "1.0 and 1.5 together" 2 counts.(Metrics.bucket_of 1.0);
  Alcotest.(check int)
    "max_float bucket" 1
    counts.(Metrics.bucket_of Float.max_float);
  Alcotest.(check int)
    "total observations" 4
    (Array.fold_left ( + ) 0 counts)

(* ------------------------------------------------------------------ *)
(* Disabled registry *)

let test_disabled_noop () =
  Metrics.set_enabled false;
  let c = Metrics.counter ~help:"test counter" "dtr_test_noop_counter" in
  let h = Metrics.histogram ~help:"test histogram" "dtr_test_noop_hist" in
  Metrics.add c 5;
  Metrics.incr_counter c;
  Metrics.observe h 1.0;
  Metrics.observe h Float.nan;
  Metrics.record "test/path" 1.0;
  let inside = Metrics.span "test" (fun () -> 41 + 1) in
  Alcotest.(check int) "span passes the result through" 42 inside;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  let counts, rejected = Metrics.histogram_counts h in
  Alcotest.(check int) "histogram untouched" 0 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "rejections untouched" 0 rejected;
  (* A disabled site is one atomic load: it allocates nothing. *)
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Metrics.add c i;
    Metrics.incr_counter c;
    Metrics.observe h 1.0
  done;
  Alcotest.(check (float 0.))
    "disabled sites allocate nothing" 0.
    (Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Determinism: byte-identical snapshots across scan-jobs and jobs *)

let counter name = Metrics.counter_value (Metrics.counter ~help:"" name)

(* A search report counts its run's own evaluations; Problem counts
   every evaluation where it happens.  The two sides are independent,
   and must agree. *)
let check_report_evaluations ~what evaluations =
  Alcotest.(check int)
    (what ^ ": report evaluations = full + delta metrics")
    (counter "dtr_eval_full_total" + counter "dtr_eval_delta_total")
    evaluations

let light_schedule =
  {
    Anneal_search.t0_ratio = 0.05;
    cooling = 0.8;
    moves_per_temp = 5;
    t_min_ratio = 0.01;
  }

let searches =
  [ ("str", `Str); ("dtr", `Dtr); ("robust dtr", `Robust_dtr); ("anneal", `Anneal) ]

let search_snapshot (name, search) ~model ~scan_jobs =
  with_metrics @@ fun () ->
  let problem, cfg = ring_problem ~model ~scan_jobs () in
  let rng = Prng.create 5 in
  let evaluations =
    match search with
    | `Str -> (Str_search.run rng cfg problem).Str_search.evaluations
    | `Dtr -> (Dtr_search.run rng cfg problem).Dtr_search.evaluations
    | `Robust_dtr ->
        let robust = Some { Search_config.alpha = 1.; top_k = 1 } in
        (Dtr_search.run rng { cfg with Search_config.robust } problem)
          .Dtr_search.evaluations
    | `Anneal ->
        (Anneal_search.run ~schedule:light_schedule rng cfg problem)
          .Anneal_search.evaluations
  in
  check_report_evaluations
    ~what:(Printf.sprintf "%s, scan-jobs %d" name scan_jobs)
    evaluations;
  Metrics.deterministic_snapshot ()

let check_scan_jobs_invariance model =
  List.iter
    (fun search ->
      Alcotest.(check string)
        (fst search ^ ": scan-jobs 1 = 4")
        (search_snapshot search ~model ~scan_jobs:1)
        (search_snapshot search ~model ~scan_jobs:4))
    searches

let test_scan_jobs_invariance_load () = check_scan_jobs_invariance Objective.Load

let test_scan_jobs_invariance_sla () =
  check_scan_jobs_invariance (Objective.Sla Dtr_cost.Sla.default)

let multistart_snapshot ~jobs =
  with_metrics @@ fun () ->
  let problem, cfg = ring_problem () in
  let r =
    Pool.with_pool ~jobs @@ fun pool ->
    Multistart.run ~pool ~restarts:3 ~algo:Multistart.Dtr (Prng.create 7) cfg
      problem
  in
  check_report_evaluations
    ~what:(Printf.sprintf "multistart, jobs %d" jobs)
    r.Multistart.evaluations;
  Metrics.deterministic_snapshot ()

let test_jobs_invariance () =
  Alcotest.(check string)
    "multistart: jobs 1 = 3" (multistart_snapshot ~jobs:1)
    (multistart_snapshot ~jobs:3)

let test_snapshot_is_prefix () =
  with_metrics @@ fun () ->
  let problem, cfg = ring_problem () in
  ignore (Str_search.run (Prng.create 5) cfg problem);
  let full = Metrics.to_prometheus () in
  let snap = Metrics.deterministic_snapshot () in
  Alcotest.(check bool)
    "snapshot is a prefix of the full exposition" true
    (String.length snap < String.length full
    && String.sub full 0 (String.length snap) = snap);
  Alcotest.(check bool)
    "snapshot stops before the marker" false
    (let re = Metrics.nondet_marker in
     let rec contains i =
       i + String.length re <= String.length snap
       && (String.sub snap i (String.length re) = re || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Manifest *)

let test_topology_digest () =
  let arcs =
    Graph.add_symmetric ~capacity:10. ~delay:1. 0 1
      (Graph.add_symmetric ~capacity:20. ~delay:2. 1 2 [])
  in
  let g = Graph.build ~n:3 arcs in
  let g' = Graph.build ~n:3 arcs in
  Alcotest.(check string)
    "equal graphs digest equal" (Manifest.topology_digest g)
    (Manifest.topology_digest g');
  let bumped =
    Graph.build ~n:3
      (Graph.add_symmetric ~capacity:10. ~delay:1. 0 1
         (Graph.add_symmetric ~capacity:20.5 ~delay:2. 1 2 []))
  in
  Alcotest.(check bool)
    "capacity change changes the digest" false
    (Manifest.topology_digest g = Manifest.topology_digest bumped);
  Alcotest.(check int)
    "digest is 16 hex chars" 16
    (String.length (Manifest.topology_digest g))

let test_manifest_json () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let json =
    Manifest.to_json ~seed:3 ~jobs:2 ~model:"load" ~topology:"ring"
      ~config:Search_config.quick ~graph:g ()
  in
  let has needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("manifest contains " ^ needle) true (has needle))
    [
      "\"tool\":\"dtr\"";
      "\"seed\":3";
      "\"jobs\":2";
      "\"topology\":\"ring\"";
      "\"topology_digest\":";
      "\"n_iters\":250";
      "\"scan_probability\":";
      "\"ocaml\":";
    ];
  Alcotest.(check bool)
    "manifest is deterministic" true
    (String.equal json
       (Manifest.to_json ~seed:3 ~jobs:2 ~model:"load" ~topology:"ring"
          ~config:Search_config.quick ~graph:g ()))

(* A revision string with non-ASCII and control bytes must still give a
   manifest that parses, with the revision intact. *)
let test_manifest_escapes_git_rev () =
  let rev = "caf\xc3\xa9\x01" in
  let saved = Option.value (Sys.getenv_opt "DTR_GIT_REV") ~default:"" in
  Unix.putenv "DTR_GIT_REV" rev;
  let json =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "DTR_GIT_REV" saved)
      (fun () -> Manifest.to_json ~seed:3 ~config:Search_config.quick ())
  in
  match Json.parse json with
  | Error e -> Alcotest.fail ("manifest json invalid: " ^ e)
  | Ok doc ->
      Alcotest.(check (option string))
        "git_rev round-trips" (Some rev)
        (Option.bind (Json.member "git_rev" doc) Json.to_string)

(* ------------------------------------------------------------------ *)
(* Timestamp-free trace sinks *)

let test_trace_no_timestamps () =
  let ring = Trace.ring ~timestamps:false () in
  let problem, cfg = ring_problem () in
  ignore (Str_search.run ~trace:ring (Prng.create 5) cfg problem);
  let evs = Trace.events ring in
  Alcotest.(check bool) "events were recorded" true (List.length evs > 0);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check (float 0.)) "t_us zeroed" 0. e.Trace.time_us)
    evs;
  (* The default sink still stamps. *)
  let stamped = Trace.ring () in
  ignore (Str_search.run ~trace:stamped (Prng.create 5) cfg problem);
  Alcotest.(check bool)
    "stamped sink has nonzero timestamps" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.time_us > 0.)
       (Trace.events stamped))

(* ------------------------------------------------------------------ *)
(* Disabled instrumentation: allocation checks *)

(* A 40-iteration STR run on a 20-node random network.  Its minor-heap
   allocation is a deterministic function of the run, so comparing
   word counts is exact where a timing comparison is noisy. *)
let alloc_problem =
  lazy
    (let root = Prng.create 1 in
     let topo_rng = Prng.split root in
     let traffic_rng = Prng.split root in
     let g =
       Dtr_topology.Random_topo.generate topo_rng
         { Dtr_topology.Random_topo.default with nodes = 20; links = 60 }
     in
     let n = Graph.node_count g in
     let tl = Dtr_traffic.Gravity.generate traffic_rng ~n Dtr_traffic.Gravity.default in
     let pairs = Dtr_traffic.Highpri.random_pairs traffic_rng ~n ~density:0.10 in
     let th =
       Dtr_traffic.Highpri.volumes traffic_rng ~low:tl ~fraction:0.30 ~pairs
     in
     Problem.create ~graph:g ~th ~tl ~model:Objective.Load)

let str_minor_words ?trace cfg =
  let problem = Lazy.force alloc_problem in
  let w0 = Gc.minor_words () in
  ignore (Str_search.run ~iters:40 ?trace (Prng.create 1) cfg problem);
  Gc.minor_words () -. w0

let test_disabled_trace_allocates_less () =
  let cfg = { Search_config.quick with Search_config.trace_probes = false } in
  ignore (str_minor_words cfg);
  let disabled = str_minor_words ~trace:Trace.disabled cfg in
  let ring = str_minor_words ~trace:(Trace.ring ()) cfg in
  Alcotest.(check bool)
    (Printf.sprintf "disabled (%.0f words) < ring (%.0f words)" disabled ring)
    true (disabled < ring)

let test_disabled_metrics_allocates_no_more () =
  let cfg = Search_config.quick in
  ignore (str_minor_words cfg);
  let disabled = str_minor_words cfg in
  let enabled = with_metrics (fun () -> str_minor_words cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "off (%.0f words) <= on (%.0f words)" disabled enabled)
    true (disabled <= enabled)

(* ------------------------------------------------------------------ *)
(* Inspect report tables: golden output on Abilene *)

let test_inspect_golden_abilene () =
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Abilene;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed = 1;
      }
  in
  let inst = Scenario.scale_to_utilization inst ~target:0.6 in
  let g = inst.Scenario.graph in
  let wh = Weights.uniform g 15 and wl = Weights.uniform g 14 in
  (* The tables as dtr inspect builds them: from the one evaluation
     context it also sweeps and attributes on. *)
  let ctx =
    Dtr_routing.Eval_ctx.create g ~weights:[| wh; wl |]
      ~matrices:[| inst.Scenario.th; inst.Scenario.tl |]
  in
  let r =
    Objective.of_eval (Objective.Sla Dtr_cost.Sla.default)
      (Dtr_routing.Eval_ctx.to_evaluate ctx) ~sla:(fun params ->
        Dtr_routing.Eval_ctx.sla params ~th:inst.Scenario.th ctx)
  in
  let e = Objective.eval r in
  let buf = Buffer.create 1024 in
  let add t =
    Buffer.add_string buf (Dtr_util.Table.to_string t);
    Buffer.add_char buf '\n'
  in
  add (Report.summary_table ?sla:r.Objective.sla e);
  add (Report.utilization_percentiles_table e);
  add (Report.top_phi_table ~top:3 e);
  (match r.Objective.sla with
  | Some sla ->
      add
        (Report.per_pair_delay_table ~top:3
           ~node_name:Dtr_topology.Abilene.city_name sla Dtr_cost.Sla.default)
  | None -> Alcotest.fail "sla model produced no sla view");
  let golden =
    let ic = open_in "inspect_abilene.golden" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "inspect tables match golden" golden
    (Buffer.contents buf)

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe and count" `Quick test_histogram_observe;
        ] );
      ( "registry",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "snapshot is marker-bounded prefix" `Quick
            test_snapshot_is_prefix;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters scan-jobs invariant (load)" `Slow
            test_scan_jobs_invariance_load;
          Alcotest.test_case "counters scan-jobs invariant (sla)" `Slow
            test_scan_jobs_invariance_sla;
          Alcotest.test_case "counters jobs invariant (multistart)" `Slow
            test_jobs_invariance;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "topology digest" `Quick test_topology_digest;
          Alcotest.test_case "manifest json" `Quick test_manifest_json;
          Alcotest.test_case "manifest escapes git_rev" `Quick
            test_manifest_escapes_git_rev;
        ] );
      ( "trace",
        [
          Alcotest.test_case "timestamp-free sink" `Quick
            test_trace_no_timestamps;
        ] );
      ( "disabled-cost",
        [
          Alcotest.test_case "disabled trace allocates less than a ring"
            `Quick test_disabled_trace_allocates_less;
          Alcotest.test_case "metrics off allocates no more than on" `Quick
            test_disabled_metrics_allocates_no_more;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "golden output on abilene" `Quick
            test_inspect_golden_abilene;
        ] );
    ]
