(* Tests for the observability layer: the JSON reader, trace JSONL
   round-trips and probe decimation, flow attribution (the bitwise
   reconciliation contract), the weight-diff churn engine (self-diff
   emptiness, golden output on Abilene, batched MT-OSPF deployment),
   and aggregated run reports. *)

module Json = Dtr_util.Json
module Metrics = Dtr_util.Metrics
module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Matrix = Dtr_traffic.Matrix
module Classic = Dtr_topology.Classic
module Weights = Dtr_routing.Weights
module Eval_ctx = Dtr_routing.Eval_ctx
module Attribution = Dtr_routing.Attribution
module Diff = Dtr_routing.Diff
module Objective = Dtr_routing.Objective
module Network = Dtr_mtospf.Network
module Search_config = Dtr_core.Search_config
module Problem = Dtr_core.Problem
module Dtr_search = Dtr_core.Dtr_search
module Multistart = Dtr_core.Multistart
module Trace = Dtr_core.Trace
module Report_gen = Dtr_core.Report_gen
module Scenario = Dtr_experiments.Scenario

let bits = Int64.bits_of_float

let check_bitwise msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%h vs %h)" msg a b)
    true
    (Int64.equal (bits a) (bits b))

(* The six-node ring problem shared by the search tests: two classes,
   a handful of demands, weights that split flow over both ring
   directions. *)
let ring_instance () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let th = Matrix.create 6 and tl = Matrix.create 6 in
  Matrix.set th 0 3 0.3;
  Matrix.set th 1 4 0.2;
  Matrix.set tl 0 3 0.4;
  Matrix.set tl 2 5 0.5;
  Matrix.set tl 4 1 0.3;
  (g, th, tl)

let tiny_config =
  {
    Search_config.quick with
    Search_config.n_iters = 12;
    k_iters = 15;
    diversify_after = 6;
  }

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_scalars () =
  let ok s = Result.get_ok (Json.parse s) in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (ok " true " = Json.Bool true);
  Alcotest.(check bool) "false" true (ok "false" = Json.Bool false);
  Alcotest.(check (option (float 0.)))
    "number" (Some 2.5)
    (Json.to_float (ok "2.5"));
  Alcotest.(check (option int)) "negative int" (Some (-42))
    (Json.to_int (ok "-42"));
  Alcotest.(check (option int)) "non-integer is not an int" None
    (Json.to_int (ok "2.5"));
  Alcotest.(check (option int)) "2^62 is out of range" None
    (Json.to_int (ok "4.611686018427388e18"));
  Alcotest.(check (option int)) "1e300 is out of range" None
    (Json.to_int (ok "1e300"));
  Alcotest.(check (option int)) "-2^62 is min_int" (Some min_int)
    (Json.to_int (ok "-4.611686018427388e18"));
  Alcotest.(check (option string))
    "string escapes" (Some "a\"b\\c\n\t/")
    (Json.to_string (ok {|"a\"b\\c\n\t\/"|}));
  Alcotest.(check (option string))
    "u-escape" (Some "\xc3\xa9")
    (Json.to_string (ok "\"\\u00e9\""));
  Alcotest.(check (option string))
    "surrogate pair" (Some "\xf0\x9f\x98\x80")
    (Json.to_string (ok "\"\\ud83d\\ude00\""))

let test_json_structures () =
  match Json.parse {|{"a": [1, 2.5, "x"], "b": {"c": null}, "a": 9}|} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      (match Json.member "a" doc with
      | Some (Json.Arr [ one; _; x ]) ->
          Alcotest.(check (option int)) "first element" (Some 1)
            (Json.to_int one);
          Alcotest.(check (option string))
            "third element" (Some "x") (Json.to_string x)
      | _ -> Alcotest.fail "member a is a 3-array; first match wins");
      (match Json.member "b" doc with
      | Some b ->
          Alcotest.(check bool)
            "nested null" true
            (Json.member "c" b = Some Json.Null)
      | None -> Alcotest.fail "member b present");
      Alcotest.(check bool) "absent member" true (Json.member "z" doc = None)

let test_json_errors () =
  let fails s =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" s)
      true
      (Result.is_error (Json.parse s))
  in
  List.iter fails
    [ ""; "{"; "[1,]"; "nul"; "{\"a\":}"; "1 2"; "\"unterminated"; "{'a':1}" ]

let test_json_float_round_trip () =
  List.iter
    (fun x ->
      let s = Printf.sprintf "%.17g" x in
      match Json.parse s with
      | Ok j -> (
          match Json.to_float j with
          | Some y -> check_bitwise (s ^ " round-trips") x y
          | None -> Alcotest.fail (s ^ " parsed as a non-number"))
      | Error e -> Alcotest.fail e)
    [ 0.1; 1. /. 3.; Float.pi; 1e-300; 6.02e23; -0.3333333333333333 ]

(* ------------------------------------------------------------------ *)
(* Trace: JSONL round-trip and probe decimation *)

let traced_events () =
  let ring = Trace.ring ~timestamps:true () in
  let g, th, tl = ring_instance () in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  ignore (Dtr_search.run ~trace:ring (Prng.create 11) tiny_config problem);
  Trace.events ring

let test_trace_json_round_trip () =
  let evs = traced_events () in
  Alcotest.(check bool) "events recorded" true (List.length evs > 0);
  List.iter
    (fun (e : Trace.event) ->
      match Trace.of_json (Trace.to_json e) with
      | Error msg -> Alcotest.fail msg
      | Ok e' ->
          (* Floats are emitted with %.17g, so the decoded event is
             structurally identical — polymorphic equality covers every
             field, bit-exact float arrays included. *)
          Alcotest.(check bool)
            (Printf.sprintf "event %d survives the round-trip" e.Trace.seq)
            true (e = e'))
    evs

(* One well-formed trace line, and the same line with the first
   occurrence of [needle] replaced. *)
let probe_line =
  Trace.to_json
    {
      Trace.seq = 0;
      restart = -1;
      kind = Trace.Probe;
      iteration = 0;
      detail = 0;
      accepted = false;
      before = [||];
      after = [||];
      best = [||];
      evaluations = 0;
      full_evals = 0;
      delta_evals = 0;
      memo_hits = 0;
      memo_misses = 0;
      value = 0.;
      time_us = 0.;
    }

let corrupt ~needle ~by line =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "%S not in %S" needle line
    else if String.sub line i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line 0 i ^ by ^ String.sub line (i + n) (String.length line - i - n)

let test_trace_of_json_rejects () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" line)
        true
        (Result.is_error (Trace.of_json line)))
    [
      "";
      "[1]";
      {|{"seq":0}|};
      (* missing the other fields *)
      corrupt ~needle:"\"probe\"" ~by:"\"probed\"" probe_line;
    ]

(* Documents the repo's own JSON writers emit — a trace (one event per
   line), a metrics snapshot and a manifest — damaged by corpus
   mutations (Dtr_oracle.Mutate): the parsers answer Ok or Error and
   never raise. *)
let json_corpus =
  lazy
    (let g, _, _ = ring_instance () in
     [|
       String.concat "\n" (List.map Trace.to_json (traced_events ()));
       probe_line;
       Metrics.to_json ();
       Dtr_core.Manifest.to_json ~seed:3 ~model:"load" ~topology:"ring"
         ~config:tiny_config ~graph:g ();
     |])

let prop_json_mutations =
  QCheck.Test.make ~name:"parsers never raise on mutated writer output"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let doc =
        Dtr_oracle.Mutate.mutate rng (Prng.choose rng (Lazy.force json_corpus))
      in
      let total f = match f () with Ok _ | Error _ -> true in
      total (fun () -> Json.parse doc)
      && List.for_all
           (fun line -> total (fun () -> Trace.of_json line))
           (doc :: String.split_on_char '\n' doc))

let emit_kind t kind =
  Trace.emit t ~kind ~iteration:0 ()

let test_trace_sample_decimates () =
  let inner = Trace.ring ~timestamps:false () in
  let t = Trace.sample 3 inner in
  for _ = 1 to 10 do
    emit_kind t Trace.Probe
  done;
  emit_kind t Trace.Diversify;
  emit_kind t Trace.Phase_done;
  let evs = Trace.events inner in
  let count k =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.kind = k) evs)
  in
  (* Probes 1, 4, 7, 10 of the 10 offered survive 1-in-3 decimation. *)
  Alcotest.(check int) "probes kept" 4 (count Trace.Probe);
  Alcotest.(check int) "non-probes all pass" 1 (count Trace.Diversify);
  Alcotest.(check int) "phase boundaries all pass" 1 (count Trace.Phase_done);
  (* seq is assigned by the inner sink: consecutive despite the drops. *)
  List.iteri
    (fun i (e : Trace.event) ->
      Alcotest.(check int) "consecutive seq" i e.Trace.seq)
    evs;
  Alcotest.(check int) "length counts kept events" 6 (Trace.length t)

let test_trace_sample_identity () =
  let inner = Trace.ring () in
  Alcotest.(check bool)
    "sample 1 is the sink itself" true
    (Trace.sample 1 inner == inner);
  Alcotest.(check bool)
    "sampling the disabled sink stays disabled" true
    (Trace.sample 5 Trace.disabled == Trace.disabled);
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Trace.sample: period must be positive") (fun () ->
      ignore (Trace.sample 0 inner))

(* ------------------------------------------------------------------ *)
(* Attribution: the bitwise reconciliation contract *)

let ring_ctx ?dest_mode ~wh ~wl () =
  let g, th, tl = ring_instance () in
  (g, Eval_ctx.create ?dest_mode g ~weights:[| wh; wl |] ~matrices:[| th; tl |])

(* Σ over reported rows must reconcile with the committed link load:
   destination rows bitwise (same summation order as the context),
   pair rows within floating-point tolerance (ECMP shares re-associate
   the even splits differently). *)
let check_attribution_reconciles g ctx =
  for k = 0 to Eval_ctx.class_count ctx - 1 do
    let loads = Eval_ctx.loads ctx k in
    for arc = 0 to Graph.arc_count g - 1 do
      check_bitwise
        (Printf.sprintf "class %d arc %d link_load" k arc)
        loads.(arc)
        (Attribution.link_load ctx ~klass:k ~arc);
      let dests = Attribution.by_destination ctx ~klass:k ~arc in
      let dsum =
        Array.fold_left (fun s e -> s +. e.Attribution.de_load) 0. dests
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "class %d arc %d destination rows sum" k arc)
        loads.(arc) dsum;
      let pairs = Attribution.by_pair ctx ~klass:k ~arc in
      let psum =
        Array.fold_left (fun s p -> s +. p.Attribution.pe_load) 0. pairs
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "class %d arc %d pair shares sum" k arc)
        loads.(arc) psum;
      Array.iter
        (fun (p : Attribution.pair_entry) ->
          Alcotest.(check bool)
            "a pair never contributes more than its demand" true
            (p.Attribution.pe_load <= p.Attribution.pe_demand +. 1e-12
            && p.Attribution.pe_load > 0.))
        pairs
    done
  done

let test_attribution_modes () =
  List.iter
    (fun dest_mode ->
      (* Uniform weights: maximal ECMP splitting on the ring. *)
      let g6 = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
      let wh = Weights.uniform g6 1 and wl = Weights.uniform g6 1 in
      let g, ctx = ring_ctx ~dest_mode ~wh ~wl () in
      check_attribution_reconciles g ctx;
      (* Random distinct weights: asymmetric trees per class. *)
      let rng = Prng.create 42 in
      let wh = Weights.random rng g6 and wl = Weights.random rng g6 in
      let g, ctx = ring_ctx ~dest_mode ~wh ~wl () in
      check_attribution_reconciles g ctx)
    [ Eval_ctx.All; Eval_ctx.Demand ]

let test_attribution_after_commit () =
  let g6 = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let wh = Weights.uniform g6 15 and wl = Weights.uniform g6 14 in
  let g, ctx = ring_ctx ~wh ~wl () in
  (* The contract must survive the probe/commit path, not just the
     from-scratch construction. *)
  Eval_ctx.commit ctx (Eval_ctx.probe ctx ~klass:0 ~changes:[ (0, 30) ]);
  Eval_ctx.commit ctx (Eval_ctx.probe ctx ~klass:1 ~changes:[ (3, 2); (5, 9) ]);
  check_attribution_reconciles g ctx

let test_attribution_sla_scenario () =
  (* The same contract on a real instance under the SLA cost model:
     loads are cost-model independent, but this exercises the exact
     context `inspect --explain` builds for an SLA run.  Attribution
     re-reads the contribution rows the context stores, so explaining
     every arc of both classes must run no SPF at all. *)
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
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let ctx =
    Eval_ctx.create g ~weights:[| wh; wl |]
      ~matrices:[| inst.Scenario.th; inst.Scenario.tl |]
  in
  let value name = Metrics.counter_value (Metrics.counter ~help:"" name) in
  let runs = value "dtr_spf_runs_total" in
  let updates = value "dtr_spf_delta_updates_total" in
  Alcotest.(check bool) "building the context ran SPF" true (runs > 0);
  check_attribution_reconciles g ctx;
  ignore (Attribution.hottest_table ~top:10 ctx);
  Alcotest.(check int) "attribution ran no SPF" runs (value "dtr_spf_runs_total");
  Alcotest.(check int)
    "attribution ran no delta-SPF update" updates
    (value "dtr_spf_delta_updates_total");
  (* And the evaluation the context attributes is the one the
     from-scratch reference prices for the same weights. *)
  let r =
    Dtr_oracle.Ref_objective.evaluate (Objective.Sla Dtr_cost.Sla.default) g
      ~wh ~wl ~th:inst.Scenario.th ~tl:inst.Scenario.tl
  in
  let phi = Eval_ctx.phi ctx in
  check_bitwise "phi_h matches Objective" r.Objective.eval.Dtr_routing.Evaluate.phi_h
    phi.(0);
  check_bitwise "phi_l matches Objective" r.Objective.eval.Dtr_routing.Evaluate.phi_l
    phi.(1)

(* ------------------------------------------------------------------ *)
(* Diff *)

let test_diff_self_empty () =
  let g6 = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let wh = Weights.uniform g6 15 and wl = Weights.uniform g6 14 in
  let _, ctx = ring_ctx ~wh ~wl () in
  let d = Diff.compute ctx ctx in
  Alcotest.(check bool) "self-diff is empty" true (Diff.is_empty d);
  Alcotest.(check int) "no changed arcs" 0 d.Diff.changed_arcs;
  Array.iter
    (fun (cd : Diff.class_diff) ->
      Alcotest.(check int) "no rerouted pairs" 0 cd.Diff.cd_rerouted_pairs;
      Alcotest.(check (float 0.)) "no traffic moved" 0.
        cd.Diff.cd_traffic_moved)
    d.Diff.classes;
  let rc = Diff.reconvergence ctx ctx in
  Alcotest.(check int) "no reconvergence changes" 0 rc.Diff.rc_changes;
  Alcotest.(check int) "no re-origination" 0 rc.Diff.rc_routers;
  Alcotest.(check int) "no flooding" 0 rc.Diff.rc_stats.Network.messages

let test_diff_jobs_invariant_and_of_changes () =
  (* Diff requires physical graph equality: both contexts must share
     one graph and matrix set. *)
  let g, th, tl = ring_instance () in
  let matrices = [| th; tl |] in
  let wh = Weights.uniform g 15 and wl = Weights.uniform g 14 in
  let ctx_a = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices in
  (* Arcs 10 (0->1) and 8 (1->2) carry the clockwise H flow of the
     0->3 and 1->4 demands, so this change must reroute. *)
  let changes = [ (8, 1); (10, 30) ] in
  let wh' = Array.copy wh in
  wh'.(10) <- 30;
  wh'.(8) <- 1;
  let ctx_b = Eval_ctx.create g ~weights:[| wh'; wl |] ~matrices in
  let d1 = Diff.compute ~jobs:1 ctx_a ctx_b in
  let d4 = Diff.compute ~jobs:4 ctx_a ctx_b in
  Alcotest.(check string) "diff is jobs-invariant" (Diff.to_json d1)
    (Diff.to_json d4);
  let dc = Diff.of_changes ctx_a ~klass:0 ~changes in
  Alcotest.(check string) "of_changes equals the two-context diff"
    (Diff.to_json d1) (Diff.to_json dc);
  Alcotest.(check bool) "the diff is real" false (Diff.is_empty d1);
  Alcotest.(check int) "both arcs counted once" 2 d1.Diff.changed_arcs;
  let cd = d1.Diff.classes.(0) in
  Alcotest.(check bool) "rerouted pairs bounded" true
    (cd.Diff.cd_rerouted_pairs > 0
    && cd.Diff.cd_rerouted_pairs <= cd.Diff.cd_total_pairs);
  Alcotest.(check bool) "rerouting moves traffic" true
    (cd.Diff.cd_traffic_moved > 0.);
  Alcotest.(check bool) "rerouted demand bounded" true
    (cd.Diff.cd_rerouted_demand <= cd.Diff.cd_total_demand +. 1e-12)

let test_diff_golden_abilene () =
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
  let matrices = [| inst.Scenario.th; inst.Scenario.tl |] in
  let wh = Weights.uniform g 15 and wl = Weights.uniform g 14 in
  let wh' = Array.copy wh and wl' = Array.copy wl in
  (* A deterministic three-arc maintenance batch. *)
  wh'.(0) <- 30;
  wh'.(7) <- 3;
  wl'.(12) <- 25;
  let ctx_a = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices in
  let ctx_b = Eval_ctx.create g ~weights:[| wh'; wl' |] ~matrices in
  let sla = (Dtr_cost.Sla.default, inst.Scenario.th) in
  let d = Diff.compute ~sla ctx_a ctx_b in
  let rc = Diff.reconvergence ctx_a ctx_b in
  let buf = Buffer.create 1024 in
  let add t =
    Buffer.add_string buf (Dtr_util.Table.to_string t);
    Buffer.add_char buf '\n'
  in
  add (Diff.summary_table d);
  add (Diff.changed_arcs_table ~top:5 ctx_a d);
  add (Diff.reconvergence_table rc);
  Buffer.add_string buf (Diff.to_json ~reconv:rc d);
  Buffer.add_char buf '\n';
  let out = Buffer.contents buf in
  match Sys.getenv_opt "DTR_UPDATE_GOLDEN" with
  | Some _ ->
      let oc = open_out "diff_abilene.golden" in
      output_string oc out;
      close_out oc
  | None ->
      let golden =
        let ic = open_in "diff_abilene.golden" in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "diff tables match golden" golden out

(* ------------------------------------------------------------------ *)
(* Batched weight deployment *)

let test_apply_changes_matches_sequential () =
  let g = Classic.ring ~capacity:1.0 ~delay:2.0 6 in
  let weight_sets = [| Weights.uniform g 15; Weights.uniform g 14 |] in
  let batch = [ (0, 0, 30); (0, 3, 2); (1, 3, 9); (1, 8, 1) ] in
  let net_batch = Network.create g ~weight_sets in
  ignore (Network.flood net_batch);
  let net_seq = Network.create g ~weight_sets in
  ignore (Network.flood net_seq);
  let stats = Network.apply_changes net_batch batch in
  let seq_messages =
    List.fold_left
      (fun acc (topology, arc, weight) ->
        let s = Network.set_weight net_seq ~topology ~arc ~weight in
        acc + s.Network.messages)
      0 batch
  in
  Alcotest.(check bool) "batch converged" true (Network.converged net_batch);
  Alcotest.(check bool) "sequential converged" true (Network.converged net_seq);
  Alcotest.(check bool) "one batch flood is cheaper" true
    (stats.Network.messages <= seq_messages);
  (* Node 3 owns changed arcs in both topologies yet re-originates
     once per batch, so at most one router per changed head. *)
  Alcotest.(check bool) "some routers re-originated" true
    (stats.Network.messages > 0);
  for topology = 0 to 1 do
    for router = 0 to Graph.node_count g - 1 do
      let a = Network.routing_table net_batch ~router ~topology in
      let b = Network.routing_table net_seq ~router ~topology in
      Array.iteri
        (fun dst (dag : Spf.dag) ->
          Alcotest.(check (array int))
            (Printf.sprintf "router %d topo %d dst %d distances" router
               topology dst)
            b.(dst).Spf.dist dag.Spf.dist;
          Array.iteri
            (fun v arcs ->
              let sort a =
                let a = Array.copy a in
                Array.sort compare a;
                a
              in
              Alcotest.(check (array int)) "next hops"
                (sort b.(dst).Spf.next_arcs.(v))
                (sort arcs))
            dag.Spf.next_arcs)
        a
    done
  done;
  Alcotest.(check int) "empty batch floods nothing" 0
    (Network.apply_changes net_batch []).Network.messages

(* ------------------------------------------------------------------ *)
(* Report generation *)

let with_temp_trace f =
  let path = Filename.temp_file "dtr_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_report_single_run () =
  with_temp_trace @@ fun path ->
  let oc = open_out path in
  let trace = Trace.jsonl ~timestamps:false oc in
  let g, th, tl = ring_instance () in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  let r = Dtr_search.run ~trace (Prng.create 11) tiny_config problem in
  close_out oc;
  match Report_gen.load path with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check int) "no bad lines" 0 (Report_gen.bad_lines rep);
      let totals = Report_gen.totals rep in
      Alcotest.(check int)
        "every line parsed"
        (List.length (Report_gen.events rep))
        totals.Report_gen.t_events;
      Alcotest.(check int) "single run has no restarts" 0
        totals.Report_gen.t_restarts;
      Alcotest.(check bool) "moves recorded" true
        (totals.Report_gen.t_moves > 0);
      (* The DTR search closes three routines per descent round. *)
      let phases = Report_gen.phases rep in
      Alcotest.(check bool) "at least three phases" true
        (List.length phases >= 3);
      List.iter
        (fun (p : Report_gen.phase) ->
          Alcotest.(check bool)
            ("phase accounting: " ^ p.Report_gen.p_label)
            true
            (p.Report_gen.p_accepted <= p.Report_gen.p_moves
            && p.Report_gen.p_evaluations >= 0))
        phases;
      (* The trace's final best is the report's best is the search's. *)
      let best = totals.Report_gen.t_best in
      Alcotest.(check bool) "best vector present" true
        (Array.length best > 0);
      check_bitwise "report best = search best"
        r.Dtr_search.objective.Dtr_cost.Lexico.primary best.(0);
      let md = Report_gen.to_markdown rep in
      List.iter
        (fun needle ->
          let n = String.length needle and m = String.length md in
          let rec go i =
            i + n <= m && (String.sub md i n = needle || go (i + 1))
          in
          Alcotest.(check bool) ("markdown contains " ^ needle) true (go 0))
        [ "# DTR run report"; "## Summary"; "## Events by kind"; "## Phases" ];
      (match Json.parse (Report_gen.to_json rep) with
      | Error e -> Alcotest.fail ("report json invalid: " ^ e)
      | Ok doc ->
          Alcotest.(check bool) "summary object present" true
            (Json.member "summary" doc <> None))

let test_report_multistart_restarts () =
  with_temp_trace @@ fun path ->
  let oc = open_out path in
  let trace = Trace.jsonl ~timestamps:false oc in
  let g, th, tl = ring_instance () in
  let problem = Problem.create ~graph:g ~th ~tl ~model:Objective.Load in
  ignore
    (Pool.with_pool ~jobs:2 @@ fun pool ->
     Multistart.run ~pool ~trace ~restarts:3 ~algo:Multistart.Dtr
       (Prng.create 7) tiny_config problem);
  close_out oc;
  match Report_gen.load path with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      let totals = Report_gen.totals rep in
      Alcotest.(check int) "three restarts" 3 totals.Report_gen.t_restarts;
      (* Per-restart counters are cumulative within a segment; the
         totals sum the per-segment maxima, so the total evaluation
         count must dominate any single event's counter. *)
      List.iter
        (fun (e : Trace.event) ->
          Alcotest.(check bool) "totals dominate per-segment counters" true
            (totals.Report_gen.t_evaluations >= e.Trace.evaluations))
        (Report_gen.events rep);
      let phases = Report_gen.phases rep in
      Alcotest.(check bool) "phases attributed to restarts" true
        (List.for_all
           (fun (p : Report_gen.phase) -> p.Report_gen.p_restart >= 0)
           phases)

let test_report_load_errors () =
  Alcotest.(check bool) "unreadable file is an error" true
    (Result.is_error (Report_gen.load "/nonexistent/trace.jsonl"));
  with_temp_trace @@ fun path ->
  let oc = open_out path in
  output_string oc "not json\n{\"also\": \"not a trace event\"}\n";
  close_out oc;
  Alcotest.(check bool) "all-garbage trace is an error" true
    (Result.is_error (Report_gen.load path))

(* A count outside the int range makes its line unparseable, so the
   report counts the line as bad instead of summing a wrapped value. *)
let test_report_out_of_range_count () =
  with_temp_trace @@ fun path ->
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    [
      probe_line;
      corrupt ~needle:"\"evals\":0" ~by:"\"evals\":1e300" probe_line;
      corrupt ~needle:"\"evals\":0" ~by:"\"evals\":4.611686018427388e18"
        probe_line;
    ];
  close_out oc;
  match Report_gen.load path with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check int) "good line kept" 1
        (List.length (Report_gen.events rep));
      Alcotest.(check int) "out-of-range lines are bad" 2
        (Report_gen.bad_lines rep)

(* A metrics snapshot may name a span with any bytes: the report's JSON
   must still parse, and give the path back intact. *)
let test_report_span_key_escaped () =
  with_temp_trace @@ fun path ->
  let oc = open_out path in
  output_string oc (probe_line ^ "\n");
  close_out oc;
  with_temp_trace @@ fun mx ->
  let oc = open_out mx in
  output_string oc
    {|{"spans": {"sc\u00e9n/a\u0001": {"calls": 2, "seconds": 0.5}}}|};
  close_out oc;
  match Report_gen.load ~metrics:mx path with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      match Json.parse (Report_gen.to_json rep) with
      | Error e -> Alcotest.fail ("report json invalid: " ^ e)
      | Ok doc ->
          Alcotest.(check bool) "span key round-trips" true
            (match Json.member "spans" doc with
            | Some (Json.Obj fields) ->
                List.mem_assoc "sc\xc3\xa9n/a\x01" fields
            | _ -> false))

let () =
  Alcotest.run "observability"
    [
      ( "json",
        [
          Alcotest.test_case "scalars and escapes" `Quick test_json_scalars;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "float round-trip" `Quick
            test_json_float_round_trip;
          QCheck_alcotest.to_alcotest prop_json_mutations;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl round-trip" `Quick
            test_trace_json_round_trip;
          Alcotest.test_case "of_json rejects" `Quick test_trace_of_json_rejects;
          Alcotest.test_case "sample decimates probes" `Quick
            test_trace_sample_decimates;
          Alcotest.test_case "sample identities" `Quick
            test_trace_sample_identity;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "bitwise reconciliation (all modes)" `Quick
            test_attribution_modes;
          Alcotest.test_case "survives probe/commit" `Quick
            test_attribution_after_commit;
          Alcotest.test_case "sla scenario on abilene" `Quick
            test_attribution_sla_scenario;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self-diff is empty" `Quick test_diff_self_empty;
          Alcotest.test_case "jobs-invariant; of_changes agrees" `Quick
            test_diff_jobs_invariant_and_of_changes;
          Alcotest.test_case "golden output on abilene" `Quick
            test_diff_golden_abilene;
        ] );
      ( "mtospf",
        [
          Alcotest.test_case "apply_changes matches sequential" `Quick
            test_apply_changes_matches_sequential;
        ] );
      ( "report",
        [
          Alcotest.test_case "single run" `Quick test_report_single_run;
          Alcotest.test_case "multistart restarts" `Quick
            test_report_multistart_restarts;
          Alcotest.test_case "load errors" `Quick test_report_load_errors;
          Alcotest.test_case "out-of-range count is a bad line" `Quick
            test_report_out_of_range_count;
          Alcotest.test_case "span key escaped in json" `Quick
            test_report_span_key_escaped;
        ] );
    ]
