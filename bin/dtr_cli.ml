(* dtr — command-line driver for the dual-topology-routing library.

   Subcommands:
     topo        generate a topology and print/save it
     optimize    run the STR and DTR weight searches on a scenario
     experiment  regenerate a paper figure/table (or all of them)
     simulate    packet-level replay of an optimized scenario
     mtospf      flood a weight pair through the MT-OSPF control plane
     inspect     print (and explain) the network state of a setting
     diff        churn report between two weight settings
     report      fold a JSONL trace into one aggregated run report
     gen         generate a 1k-10k-node topology preset + PoP demand
     bench       run the large-topology benchmark tier *)

open Cmdliner

module Json = Dtr_util.Json
module Scenario = Dtr_experiments.Scenario
module Objective = Dtr_routing.Objective
module Problem = Dtr_core.Problem
module Lexico = Dtr_cost.Lexico

(* ------------------------------------------------------------------ *)
(* Shared argument parsers                                            *)

let topology_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "random" -> Ok Scenario.Random_topo
    | "power-law" | "powerlaw" -> Ok Scenario.Power_law
    | "isp" -> Ok Scenario.Isp
    | "waxman" -> Ok Scenario.Waxman
    | "transit-stub" | "transitstub" -> Ok Scenario.Transit_stub
    | "abilene" -> Ok Scenario.Abilene
    | _ ->
        Error
          (`Msg
             "expected one of: random, power-law, isp, waxman, transit-stub, abilene")
  in
  let print ppf k = Format.pp_print_string ppf (Scenario.topology_name k) in
  Arg.conv (parse, print)

let model_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "load" -> Ok Objective.Load
    | "sla" -> Ok (Objective.Sla Dtr_cost.Sla.default)
    | _ -> Error (`Msg "expected one of: load, sla")
  in
  let print ppf m = Format.pp_print_string ppf (Objective.model_name m) in
  Arg.conv (parse, print)

let preset_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "quick" -> Ok Dtr_core.Search_config.quick
    | "default" -> Ok Dtr_core.Search_config.default
    | "paper" -> Ok Dtr_core.Search_config.paper
    | _ -> Error (`Msg "expected one of: quick, default, paper")
  in
  let print ppf _ = Format.pp_print_string ppf "<preset>" in
  Arg.conv (parse, print)

(* optimize's --preset additionally accepts a large-topology preset
   name (ts-1k .. pl-10k), which replaces --topology with that
   preset's scenario. *)
let opt_preset_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "quick" -> Ok (`Budget Dtr_core.Search_config.quick)
    | "default" -> Ok (`Budget Dtr_core.Search_config.default)
    | "paper" -> Ok (`Budget Dtr_core.Search_config.paper)
    | s -> (
        match Dtr_topology.Large.find s with
        | Some p -> Ok (`Large p)
        | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "expected a search budget (quick, default, paper) or a \
                     large-topology preset (%s)"
                    (String.concat ", " (Dtr_topology.Large.names ())))))
  in
  let print ppf = function
    | `Budget _ -> Format.pp_print_string ppf "<budget>"
    | `Large p -> Format.pp_print_string ppf p.Dtr_topology.Large.name
  in
  Arg.conv (parse, print)

(* Counts and budgets: a junk value is a usage error naming the flag,
   never a run that silently does something else. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let finite_float ~what ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x && Float.is_finite x -> Ok x
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected a %s finite number" s
                what))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float = finite_float ~what:"positive" (fun x -> x > 0.)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt positive_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel execution (default 1 = \
           sequential).  Results are bit-identical for every value.")

let preset_arg =
  Arg.(
    value
    & opt preset_conv Dtr_core.Search_config.default
    & info [ "preset" ] ~docv:"PRESET"
        ~doc:"Search budget: quick, default or paper.")

let time_budget_arg =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "time-budget" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds for the whole command: each \
           search checks the clock once per iteration and winds down \
           early when the budget is spent (at least one iteration \
           always runs).  Iteration counts under a binding budget are \
           machine-dependent.")

let init_weights_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "init-weights" ] ~docv:"FILE"
        ~doc:
          "Warm-start the searches from this saved weight setting \
           (Weights_io format: 1 topology seeds both classes, 2 seed \
           W_H and W_L; e.g. a previous run's --save-weights output).  \
           Weights are range-validated on load.")

(* A saved weight file as a (wh, wl) pair: one topology seeds both
   classes (STR), two are W_H and W_L (DTR).  Out-of-range or
   malformed files die with the parser's line-numbered message. *)
let load_weight_pair path =
  match Dtr_routing.Weights_io.load path with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok [| w |] -> (w, w)
  | Ok [| wh; wl |] -> (wh, wl)
  | Ok sets ->
      failwith
        (Printf.sprintf "%s: expected 1 or 2 weight topologies, found %d" path
           (Array.length sets))

let scan_jobs_arg =
  Arg.(
    value
    & opt positive_int 1
    & info [ "scan-jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the neighborhood-scan engine inside each \
           search (default 1 = sequential).  Orthogonal to --jobs, \
           which parallelizes across restarts/experiments; results are \
           bit-identical for every value.")

let with_scan_jobs preset scan_jobs =
  { preset with Dtr_core.Search_config.scan_jobs }

let trace_sample_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Keep every N-th probe event in the trace (counter-based per \
           search run, so a sampled trace is still byte-identical for \
           every --jobs and --scan-jobs value).  Probes dominate trace \
           volume; non-probe events always pass.")

let with_trace_sample preset = function
  | None -> preset
  | Some n ->
      {
        preset with
        Dtr_core.Search_config.trace_probes = true;
        trace_sample = n;
      }

(* Machine-readable rendering of the report tables: title, columns and
   rows verbatim, each a JSON string. *)
let tables_json tables =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"tables\": [";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"title\": %s, \"columns\": [%s], \"rows\": ["
           (Json.quote (Dtr_util.Table.title t))
           (String.concat ", "
              (List.map Json.quote (Dtr_util.Table.columns t))));
      List.iteri
        (fun j row ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "[%s]"
               (String.concat ", " (List.map Json.quote row))))
        (Dtr_util.Table.rows t);
      Buffer.add_string b "]}")
    tables;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* An arc given on the command line: a bare arc id, or SRC-DST /
   SRC->DST endpoints (first matching arc wins). *)
let parse_arc_spec g spec =
  let m = Dtr_graph.Graph.arc_count g in
  let find_endpoints src dst =
    let found = ref None in
    for a = m - 1 downto 0 do
      let arc = Dtr_graph.Graph.arc g a in
      if arc.Dtr_graph.Graph.src = src && arc.Dtr_graph.Graph.dst = dst then
        found := Some a
    done;
    match !found with
    | Some a -> a
    | None -> failwith (Printf.sprintf "no arc %d->%d in this topology" src dst)
  in
  match int_of_string_opt spec with
  | Some a ->
      if a < 0 || a >= m then
        failwith (Printf.sprintf "arc id %d out of range (0..%d)" a (m - 1));
      a
  | None -> (
      match
        try Some (Scanf.sscanf spec "%d->%d%!" (fun s d -> (s, d)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
          try Some (Scanf.sscanf spec "%d-%d%!" (fun s d -> (s, d)))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      with
      | Some (s, d) -> find_endpoints s d
      | None ->
          failwith
            (Printf.sprintf
               "bad link spec %S (expected an arc id, SRC-DST or SRC->DST)"
               spec))

(* --robust with its penalty weight and top-k as one setting.  --alpha
   or --top-k without --robust is the usage error: the run would ignore
   it. *)
let robust_arg =
  let mode_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "single-link" -> Ok ()
      | _ -> Error (`Msg "expected: single-link")
    in
    Arg.conv (parse, fun ppf () -> Format.pp_print_string ppf "single-link")
  in
  let mode =
    Arg.(
      value
      & opt (some mode_conv) None
      & info [ "robust" ] ~docv:"MODE"
          ~doc:
            "Optimize the robust objective J = normal + alpha * penalty, \
             where the penalty is the mean of the top-k worst finite \
             single-link post-failure costs of a candidate (MODE: \
             single-link).  Disconnecting failures are priced as \
             infinite but excluded from the penalty — single-link \
             reachability does not depend on the weights.")
  in
  let alpha =
    Arg.(
      value
      & opt (some (finite_float ~what:"non-negative" (fun x -> x >= 0.))) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Failure-penalty weight of --robust (default 1); requires --robust.")
  in
  let top_k =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "How many worst finite failures the --robust penalty \
             averages (default 1 = pure worst case); requires --robust.")
  in
  let robust mode alpha top_k =
    match mode with
    | Some () ->
        `Ok
          (Some
             {
               Dtr_core.Search_config.alpha = Option.value alpha ~default:1.0;
               top_k = Option.value top_k ~default:1;
             })
    | None when alpha = None && top_k = None -> `Ok None
    | None -> `Error (true, "--alpha and --top-k require --robust")
  in
  Term.(ret (const robust $ mode $ alpha $ top_k))

let with_robust preset robust =
  match robust with
  | None -> preset
  | Some _ -> { preset with Dtr_core.Search_config.robust }

let topology_arg =
  Arg.(
    value
    & opt topology_conv Scenario.Random_topo
    & info [ "topology" ] ~docv:"KIND" ~doc:"Topology: random, power-law, isp, waxman, transit-stub, abilene.")

let model_arg =
  Arg.(
    value
    & opt model_conv Objective.Load
    & info [ "model" ] ~docv:"MODEL" ~doc:"Cost model: load or sla.")

let util_arg =
  Arg.(
    value
    & opt float 0.6
    & info [ "util" ] ~docv:"U" ~doc:"Target average link utilization.")

let fraction_arg =
  Arg.(
    value
    & opt float 0.3
    & info [ "fraction"; "f" ] ~docv:"F"
        ~doc:"High-priority share of total traffic volume.")

let density_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "density"; "k" ] ~docv:"K"
        ~doc:"Fraction of SD pairs carrying high-priority traffic.")

let make_spec topology fraction density seed =
  {
    Scenario.topology;
    fraction;
    hp = Scenario.Random_density density;
    seed;
  }

(* The scenario the flags describe, its demand scaled to [util]. *)
let scaled_instance topology fraction density seed ~util =
  Scenario.scale_to_utilization
    (Scenario.make (make_spec topology fraction density seed))
    ~target:util

(* A saved weight setting's live context on an instance... *)
let context inst (wh, wl) =
  Dtr_routing.Eval_ctx.create inst.Scenario.graph ~weights:[| wh; wl |]
    ~matrices:[| inst.Scenario.th; inst.Scenario.tl |]

(* ...and with its objective under [model]. *)
let evaluate inst model weights =
  let ctx = context inst weights in
  ( ctx,
    Objective.of_eval model
      (Dtr_routing.Eval_ctx.to_evaluate ctx)
      ~th:inst.Scenario.th () )

(* ------------------------------------------------------------------ *)
(* topo                                                               *)

let topo_cmd =
  let run topology seed out dot =
    let spec = make_spec topology 0.3 0.1 seed in
    let inst = Scenario.make spec in
    let g = inst.Scenario.graph in
    Printf.printf "%s topology: %d nodes, %d arcs, strongly connected: %b\n"
      (Scenario.topology_name topology)
      (Dtr_graph.Graph.node_count g)
      (Dtr_graph.Graph.arc_count g)
      (Dtr_graph.Graph.is_strongly_connected g);
    (match out with
    | Some path ->
        Dtr_topology.Topo_io.save g path;
        Printf.printf "saved to %s\n" path
    | None -> ());
    if dot then print_string (Dtr_graph.Graph.to_dot g)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Save the topology to a file.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz output.")
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a topology")
    Term.(const run $ topology_arg $ seed_arg $ out_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* optimize                                                           *)

(* --metrics FILE: enable the registry before [run], then write the
   Prometheus text, its JSON mirror and the manifest [run] returns as a
   sidecar. *)
let with_metrics metrics_file run =
  let module Metrics = Dtr_util.Metrics in
  if metrics_file <> None then begin
    Metrics.set_enabled true;
    Metrics.reset ()
  end;
  let manifest = run () in
  match metrics_file with
  | None -> ()
  | Some path ->
      write_file path (Metrics.to_prometheus ());
      write_file (path ^ ".json") (Metrics.to_json ());
      Dtr_core.Manifest.write ~path:(path ^ ".manifest.json") manifest;
      Printf.printf "metrics written to %s (+.json, +.manifest.json)\n" path

(* One search's outcome as [optimize] prints it, from a single run or
   the best of --restarts. *)
type searched = {
  objective : Lexico.t;  (* the search's reported objective, J when robust *)
  best : Problem.solution;
  effort : string;  (* the parenthetical of the objective line *)
  memo : (int * int) option;  (* memo hits and misses, single runs only *)
  events : Dtr_core.Trace.event list;  (* the convergence table's input *)
}

let optimize_cmd =
  let run topology model fraction density util preset seed restarts jobs
      scan_jobs robust time_budget search_iters init_weights
      save_weights trace_file trace_no_time metrics_file trace_sample =
    with_metrics metrics_file @@ fun () ->
    let module Trace = Dtr_core.Trace in
    let module Compare = Dtr_experiments.Compare in
    (* A large preset replaces --topology and runs the quick budget.
       Its traces would run to gigabytes with every probe in them, so
       probe events stay off unless --trace-sample asks for them. *)
    let topology, preset =
      match preset with
      | `Budget preset -> (topology, preset)
      | `Large p ->
          ( Scenario.Large p,
            {
              Dtr_core.Search_config.quick with
              Dtr_core.Search_config.trace_probes = false;
            } )
    in
    let preset = with_scan_jobs preset scan_jobs in
    let preset = with_robust preset robust in
    let preset = with_trace_sample preset trace_sample in
    let preset =
      match search_iters with
      | None -> preset
      | Some n -> { preset with Dtr_core.Search_config.n_iters = n; k_iters = n }
    in
    let w0 = Option.map load_weight_pair init_weights in
    let t_start = Unix.gettimeofday () in
    let stop =
      Option.map
        (fun b () -> Unix.gettimeofday () -. t_start > b)
        time_budget
    in
    if restarts > 1 && (w0 <> None || stop <> None || search_iters <> None)
    then
      failwith
        "--init-weights/--time-budget/--search-iters require --restarts 1";
    let inst = Scenario.make (make_spec topology fraction density seed) in
    (* One provenance record shared by every artifact of this run. *)
    let manifest =
      Dtr_core.Manifest.to_json ~seed ~jobs ~restarts
        ~model:(Objective.model_name model)
        ~topology:(Scenario.topology_name topology)
        ~config:preset ~graph:inst.Scenario.graph ()
    in
    Printf.printf "scenario: %s topology, %s cost, f=%.0f%%, k=%.0f%%, target util %.2f\n%!"
      (Scenario.topology_name topology)
      (Objective.model_name model)
      (fraction *. 100.) (density *. 100.) util;
    (* One JSONL writer shared by both searches (it numbers the
       events), teed into a ring per search run for the convergence
       summaries printed at the end. *)
    let trace_oc = Option.map open_out trace_file in
    let jsonl =
      Option.map (Trace.jsonl ~timestamps:(not trace_no_time)) trace_oc
    in
    let traced () =
      match jsonl with
      | Some jsonl ->
          let ring = Trace.ring () in
          (Trace.tee jsonl ring, ring)
      | None -> (Trace.disabled, Trace.disabled)
    in
    let str, dtr =
      if restarts <= 1 then begin
        (* Compare.run_point tags STR events restart = 0 and DTR events
           restart = 1; one shared ring is split for the summaries. *)
        let trace, ring = traced () in
        let point =
          Compare.run_point ~cfg:preset ~seed ~trace ?stop
            ?str_iters:search_iters ?w0 inst ~model ~target_util:util
        in
        let single restart (objective, best, improvements, evaluations, hits, misses) =
          {
            objective;
            best;
            effort =
              Printf.sprintf "%d improvements, %d evaluations" improvements
                evaluations;
            memo = Some (hits, misses);
            events =
              List.filter
                (fun (e : Trace.event) -> e.Trace.restart = restart)
                (Trace.events ring);
          }
        in
        let s = point.Compare.str and d = point.Compare.dtr in
        ( single 0
            Dtr_core.Str_search.(s.objective, s.best, s.improvements,
                                 s.evaluations, s.memo_hits, s.memo_misses),
          single 1
            Dtr_core.Dtr_search.(d.objective, d.best, d.improvements,
                                 d.evaluations, d.memo_hits, d.memo_misses) )
      end
      else begin
        (* Multi-start: each search's stream of the point feeds a
           Multistart driver instead of a single run.  Output is
           bit-identical for every --jobs. *)
        let module Multistart = Dtr_core.Multistart in
        let inst = Scenario.scale_to_utilization inst ~target:util in
        let problem = Scenario.problem inst ~model in
        let _, str_rng, dtr_rng = Compare.streams ~seed inst in
        Dtr_util.Pool.with_pool ~jobs @@ fun pool ->
        let ms algo rng =
          let trace, ring = traced () in
          let r = Multistart.run ~pool ~restarts ~algo ~trace rng preset problem in
          {
            objective = r.Multistart.objective;
            best = r.Multistart.best;
            effort =
              Printf.sprintf "best of %d restarts: #%d, %d evaluations" restarts
                r.Multistart.best_index r.Multistart.evaluations;
            memo = None;
            events = Trace.events ring;
          }
        in
        let str = ms Multistart.Str str_rng in
        let dtr = ms Multistart.Dtr dtr_rng in
        (str, dtr)
      end
    in
    let both f =
      f "STR" str;
      f "DTR" dtr
    in
    both (fun name r ->
        Printf.printf "%-4s objective: primary=%.6g secondary=%.6g (%s)\n" name
          r.objective.Lexico.primary r.objective.Lexico.secondary r.effort);
    (* In robust mode the reported objective is J; show the normal-cost
       share so the penalty is visible. *)
    Option.iter
      (fun (rb : Dtr_core.Search_config.robust) ->
        both (fun name r ->
            Printf.printf
              "%-4s robust: J primary=%.6g (normal %.6g, alpha=%g, top-k=%d)\n"
              name r.objective.Lexico.primary
              (Problem.objective r.best).Lexico.primary
              rb.Dtr_core.Search_config.alpha rb.Dtr_core.Search_config.top_k))
      preset.Dtr_core.Search_config.robust;
    both (fun name r ->
        Option.iter
          (fun (hits, misses) ->
            Printf.printf "%-4s memo: %d hits / %d misses\n" name hits misses)
          r.memo);
    Printf.printf "measured avg utilization: %.3f\n"
      (Dtr_routing.Evaluate.avg_utilization
         str.best.Problem.result.Objective.eval);
    let ratio component =
      Compare.ratio ~num:(component str.objective)
        ~den:(component dtr.objective)
    in
    Printf.printf "H-cost ratio RH = %.3f\nL-cost ratio RL = %.3f\n"
      (ratio (fun o -> o.Lexico.primary))
      (ratio (fun o -> o.Lexico.secondary));
    (match trace_file with
    | None -> ()
    | Some path ->
        Option.iter close_out trace_oc;
        Dtr_core.Manifest.write ~path:(path ^ ".manifest.json") manifest;
        both (fun name r ->
            print_endline
              (Dtr_util.Table.to_string
                 (Dtr_routing.Report.convergence_table
                    ~title:
                      (Printf.sprintf
                         "%s convergence (best objective vs. evaluations)" name)
                    (Trace.convergence r.events))));
        Printf.printf "trace written to %s\n" path);
    (match save_weights with
    | None -> ()
    | Some path ->
        Dtr_routing.Weights_io.save [| dtr.best.Problem.wh; dtr.best.Problem.wl |] path;
        Printf.printf "DTR weight pair saved to %s\n" path);
    manifest
  in
  let restarts_arg =
    Arg.(
      value
      & opt positive_int 1
      & info [ "restarts" ] ~docv:"N"
          ~doc:
            "Independent search restarts per algorithm; the best \
             solution wins.  With N > 1 the restarts run on the --jobs \
             domain pool.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-weights" ] ~docv:"FILE"
          ~doc:"Save the best DTR weight pair to a file.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write one JSONL search-telemetry event per line to FILE \
             and print best-so-far convergence tables.  Every field \
             except the trailing t_us timestamp is byte-identical for \
             every --jobs and --scan-jobs value.  A FILE.manifest.json \
             provenance record is written alongside.")
  in
  let trace_no_time_arg =
    Arg.(
      value
      & flag
      & info [ "trace-no-time" ]
          ~doc:
            "Zero the t_us timestamp field of every trace event at \
             emission, making the JSONL output fully deterministic \
             (byte-diffable without post-processing).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable runtime metrics and write them to FILE \
             (Prometheus text format) and FILE.json on exit, with a \
             FILE.manifest.json provenance record.  Counter values \
             above the nondeterministic marker are bit-identical for \
             every --jobs and --scan-jobs value.")
  in
  let opt_preset_arg =
    Arg.(
      value
      & opt opt_preset_conv (`Budget Dtr_core.Search_config.default)
      & info [ "preset" ] ~docv:"PRESET"
          ~doc:
            "Search budget (quick, default, paper) or a large-topology \
             preset (ts-1k, ts-5k, ts-10k, pl-1k, pl-5k, pl-10k).  A \
             large preset replaces --topology with a 1k-10k-node \
             PoP-demand scenario and runs the quick budget; a single \
             run starts from seeded random weights unless \
             --init-weights is given, and its trace keeps probe events \
             only with --trace-sample.")
  in
  let search_iters_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "search-iters" ] ~docv:"N"
          ~doc:
            "Cap every search loop at N iterations (STR's value-scan \
             count and DTR's three routines alike).  Requires \
             --restarts 1.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the STR and DTR weight searches on one scenario")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ opt_preset_arg $ seed_arg $ restarts_arg $ jobs_arg
      $ scan_jobs_arg $ robust_arg $ time_budget_arg
      $ search_iters_arg $ init_weights_arg $ save_arg $ trace_arg
      $ trace_no_time_arg $ metrics_arg $ trace_sample_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                         *)

let experiment_cmd =
  let run names list preset seed jobs scan_jobs =
    let preset = with_scan_jobs preset scan_jobs in
    if list then begin
      List.iter
        (fun e ->
          Printf.printf "%-16s %s\n" e.Dtr_experiments.Registry.name
            e.Dtr_experiments.Registry.description)
        Dtr_experiments.Registry.all;
      `Ok ()
    end
    else begin
      let targets =
        match names with
        | [ "all" ] -> Some Dtr_experiments.Registry.all
        | [] -> None
        | names -> (
            let resolved =
              List.map
                (fun n -> (n, Dtr_experiments.Registry.find n))
                names
            in
            match List.find_opt (fun (_, e) -> e = None) resolved with
            | Some (n, _) -> (
                Printf.eprintf "unknown experiment: %s\n" n;
                None)
            | None -> Some (List.filter_map snd resolved))
      in
      match targets with
      | None ->
          `Error (false, "pass experiment names, or 'all', or --list")
      | Some experiments ->
          (* Compute all tables first (in parallel when --jobs > 1),
             then print in input order: byte-identical for every
             --jobs. *)
          let results =
            Dtr_experiments.Registry.run_all ~jobs ~cfg:preset ~seed
              experiments
          in
          List.iter
            (fun (e, tables) ->
              Printf.printf "== %s: %s ==\n%!" e.Dtr_experiments.Registry.name
                e.Dtr_experiments.Registry.description;
              List.iter
                (fun t -> print_endline (Dtr_util.Table.to_string t))
                tables)
            results;
          `Ok ()
    end
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Experiment names (or 'all').")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper figure or table")
    Term.(
      ret
        (const run $ names_arg $ list_arg $ preset_arg $ seed_arg $ jobs_arg
        $ scan_jobs_arg))

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)

let simulate_cmd =
  let run topology fraction density util preset seed duration scan_jobs =
    let preset = with_scan_jobs preset scan_jobs in
    let inst = scaled_instance topology fraction density seed ~util in
    let problem = Scenario.problem inst ~model:Objective.Load in
    Printf.printf "optimizing DTR weights...\n%!";
    let report =
      Dtr_core.Dtr_search.run (Dtr_util.Prng.create seed) preset problem
    in
    let sol = report.Dtr_core.Dtr_search.best in
    Printf.printf "simulating %g ms of traffic...\n%!" duration;
    let cfg = { Dtr_netsim.Sim.default_config with duration; seed } in
    let r =
      Dtr_netsim.Sim.run inst.Scenario.graph ~wh:sol.Problem.wh
        ~wl:sol.Problem.wl ~th:inst.Scenario.th ~tl:inst.Scenario.tl cfg
    in
    let pr name (s : Dtr_netsim.Sim.class_stats) =
      Printf.printf
        "%-4s injected=%d delivered=%d mean-delay=%.3fms p95=%.3fms hops=%.2f\n"
        name s.Dtr_netsim.Sim.injected s.Dtr_netsim.Sim.delivered
        s.Dtr_netsim.Sim.mean_delay s.Dtr_netsim.Sim.p95_delay
        s.Dtr_netsim.Sim.mean_hops
    in
    pr "high" r.Dtr_netsim.Sim.high;
    pr "low" r.Dtr_netsim.Sim.low;
    Printf.printf "mean simulated link utilization: %.3f\n"
      (Dtr_util.Stats.mean r.Dtr_netsim.Sim.link_utilization)
  in
  let duration_arg =
    Arg.(
      value
      & opt positive_float 2000.
      & info [ "duration" ] ~docv:"MS" ~doc:"Simulated milliseconds.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Packet-level replay of an optimized scenario")
    Term.(
      const run $ topology_arg $ fraction_arg $ density_arg $ util_arg
      $ preset_arg $ seed_arg $ duration_arg $ scan_jobs_arg)

(* ------------------------------------------------------------------ *)
(* mtospf                                                             *)

let mtospf_cmd =
  let run topology seed =
    let spec = make_spec topology 0.3 0.1 seed in
    let inst = Scenario.make spec in
    let g = inst.Scenario.graph in
    let m = Dtr_graph.Graph.arc_count g in
    let rng = Dtr_util.Prng.create seed in
    let wh = Dtr_routing.Weights.random rng g in
    let wl = Dtr_routing.Weights.random rng g in
    let net = Dtr_mtospf.Network.create g ~weight_sets:[| wh; wl |] in
    let stats = Dtr_mtospf.Network.flood net in
    Printf.printf
      "flooded %d-router area (%d arcs, 2 topologies): %d rounds, %d messages, converged: %b\n"
      (Dtr_graph.Graph.node_count g) m stats.Dtr_mtospf.Network.rounds
      stats.Dtr_mtospf.Network.messages
      (Dtr_mtospf.Network.converged net);
    let update = Dtr_mtospf.Network.set_weight net ~topology:0 ~arc:0 ~weight:7 in
    Printf.printf "single weight change reflood: %d rounds, %d messages\n"
      update.Dtr_mtospf.Network.rounds update.Dtr_mtospf.Network.messages
  in
  Cmd.v
    (Cmd.info "mtospf" ~doc:"Flood a dual weight set through the MT-OSPF control plane")
    Term.(const run $ topology_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* inspect                                                            *)

let inspect_cmd =
  let run topology model fraction density util preset seed top scan_jobs
      weights_file explain explain_top json_out =
    let module Report = Dtr_routing.Report in
    let module Attribution = Dtr_routing.Attribution in
    let preset = with_scan_jobs preset scan_jobs in
    let inst = scaled_instance topology fraction density seed ~util in
    let weights =
      match weights_file with
      | Some path ->
          (* Inspect a deployed weight setting as-is — no search. *)
          load_weight_pair path
      | None ->
          let problem = Scenario.problem inst ~model in
          Printf.printf "optimizing DTR weights...\n%!";
          let report =
            Dtr_core.Dtr_search.run (Dtr_util.Prng.create seed) preset problem
          in
          let best = report.Dtr_core.Dtr_search.best in
          (best.Problem.wh, best.Problem.wl)
    in
    (* One live context serves every table: the report views, the
       single-link robustness sweep and the flow attribution. *)
    let ctx, result = evaluate inst model weights in
    let eval = result.Dtr_routing.Objective.eval in
    let sla = result.Dtr_routing.Objective.sla in
    (* Every printed table is also collected for --json. *)
    let shown = ref [] in
    let show t =
      shown := t :: !shown;
      print_endline (Dtr_util.Table.to_string t)
    in
    show (Report.summary_table ?sla eval);
    show (Report.utilization_percentiles_table eval);
    show (Report.per_link_table ~top eval);
    show (Report.top_phi_table ~top eval);
    (* Single-link robustness of the inspected setting: one delta
       sweep against the context. *)
    let outcomes = Dtr_routing.Failure_sweep.sweep ~model ~th:inst.Scenario.th ctx in
    show
      (Report.robustness_table
         ~baseline:result.Dtr_routing.Objective.objective outcomes);
    (match (model, sla) with
    | Objective.Sla params, Some sla ->
        let node_name =
          match topology with
          | Scenario.Isp -> Dtr_topology.Isp.city_name
          | Scenario.Abilene -> Dtr_topology.Abilene.city_name
          | Scenario.Random_topo | Scenario.Power_law | Scenario.Waxman
          | Scenario.Transit_stub | Scenario.Large _ ->
              string_of_int
        in
        show (Report.per_pair_delay_table ~top ~node_name sla params)
    | _ -> ());
    (* Flow attribution: which destinations/pairs put the load on one
       link, and the hottest links with their dominant flows. *)
    (match explain with
    | None -> ()
    | Some spec ->
        let arc = parse_arc_spec inst.Scenario.graph spec in
        show (Attribution.destinations_table ~top ctx ~arc);
        show (Attribution.explain_table ~top ctx ~arc));
    (match explain_top with
    | None -> ()
    | Some k -> show (Attribution.hottest_table ~top:k ctx));
    match json_out with
    | None -> ()
    | Some path ->
        write_file path (tables_json (List.rev !shown));
        Dtr_core.Manifest.write
          ~path:(path ^ ".manifest.json")
          (Dtr_core.Manifest.to_json ~seed
             ~model:(Objective.model_name model)
             ~topology:(Scenario.topology_name topology)
             ~config:preset ~graph:inst.Scenario.graph ());
        Printf.printf "inspect tables written to %s (+.manifest.json)\n" path
  in
  let top_arg =
    Arg.(
      value
      & opt positive_int 15
      & info [ "top" ] ~docv:"N" ~doc:"Rows per table.")
  in
  let weights_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Inspect this saved weight setting (1 topology = STR, 2 = \
             DTR) on the scenario instead of optimizing one.")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"LINK"
          ~doc:
            "Explain one link's load: its top contributing destinations \
             (exact committed subtotals) and OD pairs (exact ECMP \
             shares) per class.  LINK is an arc id, SRC-DST or \
             SRC->DST.")
  in
  let explain_top_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "explain-top" ] ~docv:"K"
          ~doc:
            "Show the K costliest links by total Fortz cost with each \
             class's dominant OD pair.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write every printed table (titles, columns, rows) to \
             FILE as JSON, with a FILE.manifest.json provenance \
             record.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print the network state of a weight setting: summary, \
          utilization percentiles, per-link and costliest-link tables, \
          per-pair SLA margins, per-link flow attribution")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ preset_arg $ seed_arg $ top_arg $ scan_jobs_arg
      $ weights_arg $ explain_arg $ explain_top_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* diff                                                               *)

let diff_cmd =
  let run topology model fraction density util seed jobs top weights json_out
      =
    let module Diff = Dtr_routing.Diff in
    let path_a, path_b =
      match weights with
      | [ a; b ] -> (a, b)
      | _ -> failwith "pass exactly two --weights FILEs (before and after)"
    in
    let inst = scaled_instance topology fraction density seed ~util in
    let ctx_a = context inst (load_weight_pair path_a) in
    let ctx_b = context inst (load_weight_pair path_b) in
    let sla =
      match model with
      | Objective.Sla params -> Some (params, inst.Scenario.th)
      | Objective.Load -> None
    in
    let d = Diff.compute ~jobs ?sla ctx_a ctx_b in
    let reconv = Diff.reconvergence ctx_a ctx_b in
    print_endline (Dtr_util.Table.to_string (Diff.summary_table d));
    if Diff.is_empty d then print_endline "no difference: the settings route identically\n"
    else print_endline (Dtr_util.Table.to_string (Diff.changed_arcs_table ~top ctx_a d));
    print_endline (Dtr_util.Table.to_string (Diff.reconvergence_table reconv));
    match json_out with
    | None -> ()
    | Some path ->
        write_file path (Diff.to_json ~reconv d);
        Dtr_core.Manifest.write
          ~path:(path ^ ".manifest.json")
          (Dtr_core.Manifest.to_json ~seed
             ~model:(Objective.model_name model)
             ~topology:(Scenario.topology_name topology)
             ~graph:inst.Scenario.graph ());
        Printf.printf "diff written to %s (+.manifest.json)\n" path
  in
  let weights_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Weight setting to compare; give the option twice (before, \
             then after).  Each FILE holds 1 (STR) or 2 (DTR) \
             topologies.")
  in
  let top_arg =
    Arg.(
      value
      & opt positive_int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows of the per-arc diff table.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the diff (churn numbers, deltas, reconvergence \
             price) to FILE as JSON, with a FILE.manifest.json \
             provenance record.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two weight settings of one scenario: changed arcs, \
          per-class rerouted pairs and demand, traffic moved, \
          utilization/$(b,\\\\Phi)$/$(b,\\\\Lambda) deltas, and the MT-OSPF \
          reconvergence price of deploying the change as one batch")
    Term.(
      const run $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ seed_arg $ jobs_arg $ top_arg $ weights_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* report                                                             *)

let report_cmd =
  let run trace metrics manifest out weights topology model fraction density
      util seed top =
    let module Report_gen = Dtr_core.Report_gen in
    let module Report = Dtr_routing.Report in
    match Report_gen.load ?metrics ?manifest trace with
    | Error e -> failwith e
    | Ok r ->
        (* Optional final-state section: re-evaluate a saved weight
           setting on the scenario and append the inspect summary. *)
        let final_tables =
          match weights with
          | None -> []
          | Some path ->
              let inst = scaled_instance topology fraction density seed ~util in
              let _, result = evaluate inst model (load_weight_pair path) in
              let eval = result.Dtr_routing.Objective.eval in
              [
                Report.summary_table ?sla:result.Dtr_routing.Objective.sla eval;
                Report.top_phi_table ~top eval;
              ]
        in
        let markdown () =
          let b = Buffer.create 4096 in
          Buffer.add_string b (Report_gen.to_markdown r);
          if final_tables <> [] then begin
            Buffer.add_string b "## Final state\n\n";
            List.iter
              (fun t ->
                Buffer.add_string b "```\n";
                Buffer.add_string b (Dtr_util.Table.to_string t);
                Buffer.add_string b "```\n\n")
              final_tables
          end;
          Buffer.contents b
        in
        (match out with
        | None -> print_string (markdown ())
        | Some path ->
            if Filename.check_suffix path ".json" then
              write_file path (Report_gen.to_json r)
            else write_file path (markdown ());
            Printf.printf "report written to %s\n" path)
  in
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace file (optimize --trace).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Metrics snapshot (optimize --metrics FILE writes \
             FILE.json) — adds the profiler-span table.")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Manifest sidecar to embed verbatim as the provenance \
             section.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the report to FILE: Markdown, or JSON when FILE \
             ends in .json.  Default: Markdown on stdout.")
  in
  let weights_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "weights" ] ~docv:"FILE"
          ~doc:
            "Append a final-state section (inspect summary and \
             costliest links) by evaluating this saved weight setting \
             on the scenario given by --topology and friends.")
  in
  let top_arg =
    Arg.(
      value
      & opt positive_int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows of the final-state costliest-links table.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Fold a JSONL search trace (plus optional metrics snapshot and \
          manifest) into one self-contained run report: convergence, \
          acceptance/diversification/memo rates by phase, wall-clock \
          per phase, restart outcomes")
    Term.(
      const run $ trace_arg $ metrics_arg $ manifest_arg $ out_arg
      $ weights_arg $ topology_arg $ model_arg $ fraction_arg $ density_arg
      $ util_arg $ seed_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                *)

let gen_cmd =
  let run preset_name list seed out dot =
    let module Large = Dtr_topology.Large in
    let module Graph = Dtr_graph.Graph in
    if list then begin
      Array.iter
        (fun p ->
          Printf.printf "%-8s %6d nodes  (%d PoPs)\n" p.Large.name
            (Large.node_count p) p.Large.pops)
        Large.presets;
      `Ok ()
    end
    else
      match preset_name with
      | None -> `Error (false, "pass a preset name (see --list)")
      | Some name -> (
          match Large.find name with
          | None ->
              `Error
                ( false,
                  Printf.sprintf "unknown preset: %s (expected one of: %s)"
                    name
                    (String.concat ", " (Large.names ())) )
          | Some p ->
              let t0 = Unix.gettimeofday () in
              let inst =
                Scenario.make (make_spec (Scenario.Large p) 0.3 0.1 seed)
              in
              let gen_s = Unix.gettimeofday () -. t0 in
              let g = inst.Scenario.graph in
              let n = Graph.node_count g in
              let m = Graph.arc_count g in
              let degs = Array.make n 0 in
              for a = 0 to m - 1 do
                degs.(Graph.src g a) <- degs.(Graph.src g a) + 1
              done;
              let dmin = Array.fold_left min max_int degs in
              let dmax = Array.fold_left max 0 degs in
              Printf.printf
                "%s: %d nodes, %d arcs, strongly connected: %b (%.2f s)\n"
                p.Large.name n m
                (Graph.is_strongly_connected g)
                gen_s;
              Printf.printf "out-degree: min %d, mean %.1f, max %d\n" dmin
                (float_of_int m /. float_of_int n)
                dmax;
              let pairs = ref 0 and volume = ref 0. in
              Dtr_traffic.Matrix.iter inst.Scenario.tl (fun _ _ v ->
                  incr pairs;
                  volume := !volume +. v);
              Printf.printf
                "PoP gravity demand: %d PoPs, %d pairs, total volume %.0f\n"
                p.Large.pops !pairs !volume;
              (match out with
              | Some path ->
                  Dtr_topology.Topo_io.save g path;
                  Printf.printf "saved to %s\n" path
              | None -> ());
              if dot then print_string (Graph.to_dot g);
              `Ok ())
  in
  let preset_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PRESET"
          ~doc:"Large-topology preset (ts-1k, ts-5k, ts-10k, pl-1k, pl-5k, pl-10k).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available presets.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Save the topology to a file.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz output.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a real-ISP-scale topology preset (1k-10k nodes) with its \
          PoP-level gravity demand and print summary statistics")
    Term.(
      ret (const run $ preset_arg $ list_arg $ seed_arg $ out_arg $ dot_arg))

(* ------------------------------------------------------------------ *)
(* bench                                                              *)

let bench_cmd =
  let run presets seed probes json_out =
    let module Large_bench = Dtr_experiments.Large_bench in
    let names =
      match presets with [] -> Dtr_topology.Large.names () | ps -> ps
    in
    let rows =
      Large_bench.run ~probes ~progress:(Printf.printf "%s\n%!") ~seed names
    in
    print_endline (Dtr_util.Table.to_string (Large_bench.table rows));
    match json_out with
    | None -> ()
    | Some path ->
        write_file path (Large_bench.to_json ~seed ~probes rows);
        Printf.printf "wrote %s\n" path
  in
  let presets_arg =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"PRESET"
          ~doc:
            "Large-topology presets to benchmark (default: all six, in \
             ascending node-count order).")
  in
  let probes_arg =
    Arg.(
      value
      & opt positive_int Dtr_experiments.Large_bench.default_probes
      & info [ "probes" ] ~docv:"N"
          ~doc:"Timed single-weight-change probes per preset.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the rows and a provenance stamp to FILE as JSON.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the large-topology benchmark tier: demand-only evaluation \
          contexts at 1k-10k nodes, full-eval time, probe latency \
          percentiles, evals/sec and peak RSS per preset")
    Term.(const run $ presets_arg $ seed_arg $ probes_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* version                                                            *)

let version_cmd =
  let run () = print_endline (Dtr_core.Manifest.build_info ()) in
  Cmd.v
    (Cmd.info "version" ~doc:"Print version, source revision and build info")
    Term.(const run $ const ())

let main_cmd =
  let info =
    Cmd.info "dtr" ~version:Dtr_core.Manifest.version
      ~doc:"Dual-topology routing for service differentiation (CoNEXT 2007 reproduction)"
  in
  Cmd.group info
    [ topo_cmd; optimize_cmd; experiment_cmd; simulate_cmd; mtospf_cmd;
      inspect_cmd; diff_cmd; report_cmd; gen_cmd; bench_cmd; version_cmd ]

(* Exit codes: 0 success, 1 runtime failure (bad input file, invalid
   scenario, I/O error — one line on stderr), 2 usage error (Cmdliner
   already printed the diagnostic). *)
let () =
  try
    match Cmd.eval_value ~catch:false main_cmd with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
    | Error _ -> exit 2
  with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      Printf.eprintf "dtr: error: %s\n" msg;
      exit 1
  | e ->
      Printf.eprintf "dtr: error: %s\n" (Printexc.to_string e);
      exit 1
