(* Layered benchmark of the weight searches.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   --trace 0 measures the end-to-end metrics over a run of episodes;
   --trace 1 measures the per-layer metrics of the run's first episode
   (traced counters and spans, replayed layer timings, and their
   reconciliation).  It prints one JSON report line: manifest, input
   size, attempted and failed units of work, every check, and every
   metric with its unit.  run.py turns it into the benchmark's result
   line.  README.md documents the workloads and metrics. *)

module Problem = Dtr_core.Problem
module Manifest = Dtr_core.Manifest
module Search_config = Dtr_core.Search_config
module Scenario = Dtr_experiments.Scenario
module Objective = Dtr_routing.Objective
module Metrics = Dtr_util.Metrics
module Lexico = Dtr_cost.Lexico

type run = {
  metrics : Out.metric list;
  checks : (string * bool) list;  (** every check of the run, by episode *)
  attempted : int;
  failed : int;
  size : string;  (** input-size JSON *)
  graph : Dtr_graph.Graph.t option;  (** for the manifest *)
  details : string;  (** per-episode JSON, [[]] for a traced run *)
}

(* Run [f] as one attempted unit of work: an exception counts as a
   failed check instead of ending the run. *)
let guarded label f =
  try f ()
  with e -> (None, [ (label ^ ": " ^ Printexc.to_string e, false) ])

let tag prefix checks = List.map (fun (n, ok) -> (prefix ^ n, ok)) checks

(* ------------------------------------------------------------------ *)
(* --trace 0: set up and search every episode once.  An episode keeps
   only scalars, so no episode's evaluation state outlives it. *)

type episode = {
  episode_seed : int;
  setup_s : float list;
  search_s : float;
  ttq_s : float;
  objective : Lexico.t;
  iterations : int;
  improvements : int;
  evaluations : int;
}

let episode_json e =
  Printf.sprintf
    "{\"seed\": %d, \"setup_s\": %s, \"search_s\": %s, \
     \"ttq_s\": %s, \"obj_primary\": %s, \"obj_secondary\": %s, \
     \"iterations\": %d, \"improvements\": %d, \"evaluations\": %d}"
    e.episode_seed
    (Out.number (Out.median (Array.of_list e.setup_s)))
    (Out.number e.search_s)
    (Out.number e.ttq_s)
    (Out.number e.objective.Lexico.primary)
    (Out.number e.objective.Lexico.secondary)
    e.iterations e.improvements e.evaluations

let setup_repeats = 5

let end_to_end w ~seed ~seconds =
  let n = Workload.episodes w ~seconds in
  let size = ref "{}" and graph = ref None and probes = ref [] in
  let results =
    List.mapi
      (fun i episode_seed ->
        (* Start every episode from a compacted heap, so one episode's
           garbage neither slows the next nor adds to the peak. *)
        Gc.compact ();
        for _ = 1 to 3 do
          probes := Calib.probe () :: !probes
        done;
        guarded (Printf.sprintf "episode%d" i) (fun () ->
            let setup () =
              let t0 = Unix.gettimeofday () in
              let inst = Workload.setup w ~episode_seed ~index:i in
              (inst, Unix.gettimeofday () -. t0)
            in
            (* Set-up is cheap next to a search: take several samples
               per episode so its median is steady. *)
            let timings = List.init (setup_repeats - 1) (fun _ -> snd (setup ())) in
            let inst, last = setup () in
            let setup_s = last :: timings in
            let o = Searcher.run w inst in
            let checks =
              tag (Printf.sprintf "episode%d." i) (Check.episode w inst o)
            in
            if i = 0 then begin
              size := Workload.size_json w inst ~episodes:n;
              graph := Some inst.Workload.problem.Problem.graph
            end;
            ( Some
                {
                  episode_seed;
                  setup_s;
                  search_s = o.Searcher.search_s;
                  ttq_s = o.Searcher.ttq_s;
                  objective = o.Searcher.objective;
                  iterations = o.Searcher.iterations;
                  improvements = o.Searcher.improvements;
                  evaluations = o.Searcher.evaluations;
                },
              checks )))
      (Workload.episode_seeds ~seed n)
  in
  let ok = List.filter_map fst results in
  let failed =
    List.length
      (List.filter (fun (r, c) -> r = None || not (Check.passed c)) results)
  in
  let col f = Array.of_list (List.map f ok) in
  let objective f = Out.geometric_mean (col (fun e -> f e.objective)) in
  let setup_s =
    Out.median (Array.concat (List.map (fun e -> Array.of_list e.setup_s) ok))
  in
  let search_s = Out.mean (col (fun e -> e.search_s)) in
  let ttq_s = Out.mean (col (fun e -> e.ttq_s)) in
  let probe_s = Out.median (Array.of_list !probes) in
  let at_reference = Calib.at_reference ~probe_s in
  {
    metrics =
      [
        Out.metric "setup_s" "s" setup_s;
        Out.metric "search_s" "s" search_s;
        Out.metric "ttq_s" "s" ttq_s;
        Out.metric "calib.probe_ms" "ms" (1e3 *. probe_s);
        Out.metric "setup_ref_s" "s" (at_reference setup_s);
        Out.metric "search_ref_s" "s" (at_reference search_s);
        Out.metric "ttq_ref_s" "s" (at_reference ttq_s);
        Out.metric "obj_primary" "cost" (objective (fun l -> l.Lexico.primary));
        Out.metric "obj_secondary" "cost"
          (objective (fun l -> l.Lexico.secondary));
        Out.metric "peak_rss_mb" "MB"
          (float_of_int (Metrics.peak_rss_kb ()) /. 1024.);
      ];
    checks = List.concat_map snd results;
    attempted = n;
    failed;
    size = !size;
    graph = !graph;
    details = "[" ^ String.concat ", " (List.map episode_json ok) ^ "]";
  }

(* ------------------------------------------------------------------ *)
(* --trace 1: the first episode, untraced then traced, then the
   replay, then the reconciliation of traced counts with replayed
   means. *)

let reconcile w (l : Layers.t) (r : Replay.result) =
  let c = l.Layers.counter in
  let mean name = Replay.mean_s (Replay.find r name) in
  (* A failure probe runs one delta-SPF update per weight group (H and
     L); the remaining updates belong to ordinary probes. *)
  let probe_updates =
    c "dtr_spf_delta_updates_total" - (2 * c "dtr_eval_fail_probes_total")
  in
  let spf_s = float_of_int probe_updates *. mean "spf_delta.update_us" in
  let probe_s =
    (float_of_int (c "dtr_eval_probes_total") *. mean "eval_ctx.probe_us") -. spf_s
  in
  (* Under SLA, the full evaluations are FindH fallbacks: one H
     routing plus the delay/Λ costing, which is what the replayed
     [Problem.eval_delta] on the H class times. *)
  let full_mean =
    match w.Workload.model with
    | Objective.Sla _ -> mean "problem.eval_delta_h_us"
    | Objective.Load -> mean "objective.evaluate_ms"
  in
  let full_eval_s = float_of_int (c "dtr_eval_full_total") *. full_mean in
  let fail_s =
    float_of_int (c "dtr_eval_fail_probes_total") *. mean "eval_ctx.fail_probe_us"
  in
  let base = l.Layers.outcome.Searcher.search_s in
  [
    Out.metric "layer.spf_s" "s" spf_s;
    Out.metric "layer.probe_s" "s" probe_s;
    Out.metric "layer.full_eval_s" "s" full_eval_s;
    Out.metric "layer.fail_s" "s" fail_s;
    Out.metric "search.unattributed_s" "s"
      (base -. (spf_s +. probe_s +. full_eval_s +. fail_s));
  ]

let per_layer w ~seed ~seconds =
  let episode_seed = List.hd (Workload.episode_seeds ~seed 1) in
  let inst = Workload.setup w ~episode_seed ~index:0 in
  let size = Workload.size_json w inst ~episodes:1 in
  let graph = inst.Workload.problem.Problem.graph in
  let searches, search_checks =
    guarded "traced" (fun () ->
        let untraced = Searcher.run w inst in
        let traced = Layers.run w inst in
        let checks =
          Check.episode w inst untraced
          @ Check.traced_agrees untraced traced.Layers.outcome
        in
        (Some (untraced, traced), checks))
  in
  let replay, replay_checks =
    match searches with
    | None -> (None, [])
    | Some (untraced, _) ->
        guarded "replay" (fun () ->
            let r =
              Replay.run w inst untraced.Searcher.best ~seed:(episode_seed + 1)
                ~budget:seconds
            in
            (Some r, r.Replay.checks))
  in
  let metrics =
    match (searches, replay) with
    | Some (untraced, traced), Some r ->
        Out.metric "search.ttq_s" "s" untraced.Searcher.ttq_s
        :: Layers.metrics traced ~untraced_s:untraced.Searcher.search_s
        @ List.concat_map Replay.timing_metrics r.Replay.timings
        @ reconcile w traced r
    | _ -> []
  in
  let failed =
    (if searches = None || not (Check.passed search_checks) then 1 else 0)
    + if replay = None || not (Check.passed replay_checks) then 1 else 0
  in
  {
    metrics;
    checks = search_checks @ tag "replay." replay_checks;
    attempted = 2;
    failed;
    size;
    graph = Some graph;
    details = "[]";
  }

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " tiny iteration caps (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workload.find ~tiny:!tiny !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
          (String.concat ", " (Workload.names ()));
        exit 2
  in
  let run =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else per_layer w ~seed:!seed ~seconds:!seconds
  in
  let manifest =
    Manifest.to_json ~seed:!seed
      ~model:(Objective.model_name w.Workload.model)
      ~topology:(Scenario.topology_name w.Workload.topology)
      ~config:w.Workload.cfg ?graph:run.graph ()
  in
  Printf.printf
    "{\"report\": \"perfbench\", \"workload\": %S, \"trace\": %d, \
     \"attempted\": %d, \"failed\": %d, \"manifest\": %s, \"input\": %s, \
     \"checks\": %s, \"metrics\": %s, \"episodes\": %s}\n%!"
    w.Workload.name !trace run.attempted run.failed manifest run.size
    (Out.checks_json run.checks)
    (Out.metrics_json run.metrics)
    run.details
