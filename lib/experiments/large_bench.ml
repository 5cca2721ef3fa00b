(* Real-ISP-scale benchmark tier.

   One row per Large preset: generate the topology and a PoP-level
   gravity demand (sparse), build a demand-only evaluation context
   (DAGs for the ~30-100 PoP destinations instead of all 1k-10k
   nodes), then measure full-evaluation time and the latency
   distribution of single-weight-change probes through the delta
   engine.  Every scenario is deterministic in (preset, seed); the
   timings and the peak-RSS gauge are the only machine-dependent
   outputs.

   Peak RSS is the process-wide high-water mark, so it is monotone
   across rows: {!run} sorts the requested presets by node count so
   each row's value approximates the footprint of the largest context
   built so far — its own. *)

module Json = Dtr_util.Json
module Prng = Dtr_util.Prng
module Stats = Dtr_util.Stats
module Metrics = Dtr_util.Metrics
module Graph = Dtr_graph.Graph
module Large = Dtr_topology.Large
module Matrix = Dtr_traffic.Matrix
module Weights = Dtr_routing.Weights
module Eval_ctx = Dtr_routing.Eval_ctx

type row = {
  preset : string;
  nodes : int;
  arcs : int;
  pops : int;
  demand_pairs : int;
  gen_s : float;
  full_eval_s : float;
  probe_ns_p50 : float;
  probe_ns_p90 : float;
  probe_ns_p99 : float;
  probe_evals_per_sec : float;
  peak_rss_kb : int;
}

(* A p99 over 200 probes rests on two samples beyond it, which swung
   3x between identical runs; 1,000 put ten there. *)
let default_probes = 1000

(* The paper's two-class mix at PoP scale, as {!Scenario.make} builds
   it for every large preset: the high class rides a density-0.10
   subset of the PoP gravity pairs at fraction 0.30 of the pair's
   volume.  The random weights, W_H then W_L, come from the seed
   root's third split, after the topology and traffic streams
   Scenario.make draws. *)
let scenario ~seed p =
  let inst =
    Scenario.make
      {
        Scenario.topology = Scenario.Large p;
        fraction = 0.30;
        hp = Scenario.Random_density 0.10;
        seed;
      }
  in
  let g = inst.Scenario.graph in
  let root = Prng.create seed in
  ignore (Prng.split root : Prng.t);
  ignore (Prng.split root : Prng.t);
  let weight_rng = Prng.split root in
  let wh = Weights.random weight_rng g in
  let wl = Weights.random weight_rng g in
  (g, Large.pop_nodes g p, inst.Scenario.th, inst.Scenario.tl, wh, wl)

let count_pairs m =
  let c = ref 0 in
  Matrix.iter m (fun _ _ _ -> incr c);
  !c

let run_preset ?(probes = default_probes) ~seed p =
  let t0 = Unix.gettimeofday () in
  let g, pops, th, tl, wh, wl = scenario ~seed p in
  let gen_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let ctx = Eval_ctx.create g ~weights:[| wh; wl |] ~matrices:[| th; tl |] in
  let full_eval_s = Unix.gettimeofday () -. t1 in
  let m = Graph.arc_count g in
  (* Rotating single-weight probes, alternating class, stepping
     through the arc space with a stride so samples touch core and
     stub arcs alike. *)
  let stride = (m / 97) + 1 in
  let probe_once i =
    let klass = i land 1 in
    let w = if klass = 0 then wh else wl in
    let arc = i * stride mod m in
    let v = if w.(arc) >= Weights.max_weight then w.(arc) - 1 else w.(arc) + 1 in
    ignore (Eval_ctx.probe ctx ~klass ~changes:[ (arc, v) ])
  in
  for i = 0 to 19 do
    probe_once i
  done;
  let samples =
    Array.init probes (fun i ->
        let t = Unix.gettimeofday () in
        probe_once (20 + i);
        (Unix.gettimeofday () -. t) *. 1e9)
  in
  let p50 = Stats.percentile samples 50. in
  {
    preset = p.Large.name;
    nodes = Graph.node_count g;
    arcs = m;
    pops = Array.length pops;
    demand_pairs = count_pairs th + count_pairs tl;
    gen_s;
    full_eval_s;
    probe_ns_p50 = p50;
    probe_ns_p90 = Stats.percentile samples 90.;
    probe_ns_p99 = Stats.percentile samples 99.;
    probe_evals_per_sec = (if p50 > 0. then 1e9 /. p50 else 0.);
    peak_rss_kb = Metrics.peak_rss_kb ();
  }

let run ?(probes = default_probes) ?(progress = fun _ -> ()) ~seed names =
  let presets =
    List.map
      (fun name ->
        match Large.find name with
        | Some p -> p
        | None ->
            invalid_arg
              (Printf.sprintf "unknown large preset: %s (expected one of: %s)"
                 name
                 (String.concat ", " (Large.names ()))))
      names
  in
  let presets =
    List.stable_sort
      (fun a b -> compare (Large.node_count a) (Large.node_count b))
      presets
  in
  List.map
    (fun p ->
      progress
        (Printf.sprintf "%s: generating + evaluating %d nodes..." p.Large.name
           (Large.node_count p));
      let row = run_preset ~probes ~seed p in
      progress
        (Printf.sprintf
           "%s: full eval %.2f s, probe p50 %.2f ms, %.0f evals/s, peak RSS %d \
            MB"
           row.preset row.full_eval_s (row.probe_ns_p50 /. 1e6)
           row.probe_evals_per_sec (row.peak_rss_kb / 1024));
      row)
    presets

let table rows =
  let t =
    Dtr_util.Table.create ~title:"large-topology tier (demand-only contexts)"
      ~columns:
        [
          "preset"; "nodes"; "arcs"; "pops"; "pairs"; "gen s"; "eval s";
          "probe p50 ms"; "p90 ms"; "p99 ms"; "evals/s"; "peak RSS MB";
        ]
  in
  List.iter
    (fun r ->
      Dtr_util.Table.add_row t
        [
          r.preset;
          string_of_int r.nodes;
          string_of_int r.arcs;
          string_of_int r.pops;
          string_of_int r.demand_pairs;
          Printf.sprintf "%.2f" r.gen_s;
          Printf.sprintf "%.2f" r.full_eval_s;
          Printf.sprintf "%.3f" (r.probe_ns_p50 /. 1e6);
          Printf.sprintf "%.3f" (r.probe_ns_p90 /. 1e6);
          Printf.sprintf "%.3f" (r.probe_ns_p99 /. 1e6);
          Printf.sprintf "%.0f" r.probe_evals_per_sec;
          string_of_int (r.peak_rss_kb / 1024);
        ])
    rows;
  t

(* Provenance stamp of the JSON document: revision, toolchain,
   machine shape, and the peak RSS at stamp time. *)
let stamp ~seed =
  Printf.sprintf
    "{ \"git_rev\": %s, \"ocaml\": %s, \"cores\": %d, \"seed\": %d, \
     \"peak_rss_kb\": %d }"
    (Json.quote (Dtr_core.Manifest.git_rev ()))
    (Json.quote Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    seed
    (Metrics.peak_rss_kb ())

let to_json ~seed ~probes rows =
  let row_json r =
    Printf.sprintf
      "    { \"preset\": %s, \"nodes\": %d, \"arcs\": %d, \"pops\": %d,\n\
      \      \"demand_pairs\": %d, \"gen_s\": %.3f, \"full_eval_s\": %.3f,\n\
      \      \"probe_ns_p50\": %.1f, \"probe_ns_p90\": %.1f, \
       \"probe_ns_p99\": %.1f,\n\
      \      \"probe_evals_per_sec\": %.1f, \"peak_rss_kb\": %d }"
      (Json.quote r.preset) r.nodes r.arcs r.pops r.demand_pairs r.gen_s r.full_eval_s
      r.probe_ns_p50 r.probe_ns_p90 r.probe_ns_p99 r.probe_evals_per_sec
      r.peak_rss_kb
  in
  Printf.sprintf
    "{\n\
    \  \"benchmark\": \"large-topologies\",\n\
    \  \"manifest\": %s,\n\
    \  \"seed\": %d,\n\
    \  \"probes_per_preset\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (stamp ~seed) seed probes
    (String.concat ",\n" (List.map row_json rows))
