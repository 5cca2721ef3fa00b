(* The traced run: one episode searched again with the metrics registry
   on and an in-memory trace ring (no probe events).  It reads the
   library's public counters and spans from outside, through
   [Metrics.to_json], and the iteration timestamps from the ring. *)

module Metrics = Dtr_util.Metrics
module Json = Dtr_util.Json
module Trace = Dtr_core.Trace
module Lexico = Dtr_cost.Lexico

type t = {
  outcome : Searcher.outcome;
  counter : string -> int;  (** registry counter by name, 0 if absent *)
  span_s : string -> float;  (** seconds under spans ending in a name *)
  iter_gaps_ms : float array;  (** gaps between iteration ends *)
  minor_words : float;  (** allocated by the calling domain *)
  major_collections : int;
}

let section name json =
  match Json.member name json with Some (Json.Obj kv) -> kv | _ -> []

(* Iteration-end events: one STR scan, one FindH pass in routine 1,
   one FindL pass in routine 2 or at the end of a refinement
   iteration (which runs FindH then FindL). *)
let iteration_end (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Str_scan -> true
  | Trace.Find_h -> e.Trace.detail = 0
  | Trace.Find_l -> e.Trace.detail >= 1
  | _ -> false

let run w inst =
  Metrics.reset ();
  Metrics.set_enabled true;
  let ring = Trace.ring () in
  let words0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () -> Searcher.run ~trace:ring w inst)
  in
  let minor_words = Gc.minor_words () -. words0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let json =
    match Json.parse (Metrics.to_json ()) with
    | Ok j -> j
    | Error e -> failwith ("metrics snapshot: " ^ e)
  in
  let counters = section "counters" json @ section "nondeterministic" json in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> Option.value (Json.to_int v) ~default:0
    | None -> 0
  in
  let spans = section "spans" json in
  let span_s name =
    let suffix = "/" ^ name in
    List.fold_left
      (fun acc (path, v) ->
        if path = name || String.ends_with ~suffix path then
          match Option.bind (Json.member "seconds" v) Json.to_float with
          | Some s -> acc +. s
          | None -> acc
        else acc)
      0. spans
  in
  let ends =
    List.filter_map
      (fun e -> if iteration_end e then Some e.Trace.time_us else None)
      (Trace.events ring)
    |> Array.of_list
  in
  let iter_gaps_ms =
    Array.init
      (max 0 (Array.length ends - 1))
      (fun i -> (ends.(i + 1) -. ends.(i)) /. 1000.)
  in
  { outcome; counter; span_s; iter_gaps_ms; minor_words; major_collections }

let metrics t ~untraced_s =
  let o = t.outcome in
  let c = t.counter in
  let lookups = o.Searcher.memo_hits + o.Searcher.memo_misses in
  [
    Out.count "dijkstra.runs" (c "dtr_spf_runs_total");
    Out.count "dijkstra.bucket_pops" (c "dtr_spf_bucket_pops_total");
    Out.count "spf_delta.updates" (c "dtr_spf_delta_updates_total");
    Out.count "spf_delta.rebuilds" (c "dtr_spf_delta_rebuilds_total");
    Out.count "spf_delta.patches" (c "dtr_spf_delta_patches_total");
    Out.count "eval_ctx.probes" (c "dtr_eval_probes_total");
    Out.count "eval_ctx.commits" (c "dtr_eval_commits_total");
    Out.count "eval_ctx.fail_probes" (c "dtr_eval_fail_probes_total");
    Out.count "eval_ctx.syncs" (c "dtr_eval_syncs");
    Out.count "problem.full_evals" (c "dtr_eval_full_total");
    Out.count "problem.delta_evals" (c "dtr_eval_delta_total");
    Out.metric "scan.busy_s" "s" (t.span_s "scan");
    Out.count "scan.candidates" (c "dtr_scan_candidates_total");
    Out.metric "vmemo.hit_rate" "ratio"
      (Out.ratio (float_of_int o.Searcher.memo_hits) (float_of_int lookups));
    Out.count "vmemo.lookups" lookups;
    Out.metric "pool.busy_s" "s" (t.span_s "pool/busy");
    Out.metric "pool.wait_s" "s" (t.span_s "pool/wait");
    Out.count "failure_sweep.sweeps" (c "dtr_failure_sweeps_total");
    Out.count "search.iterations" o.Searcher.iterations;
    Out.count "search.improvements" o.Searcher.improvements;
    Out.metric "search.accept_ratio" "ratio"
      (Out.ratio
         (float_of_int o.Searcher.improvements)
         (float_of_int o.Searcher.iterations));
    Out.metric "search.iter_ms_p50" "ms" (Out.percentile t.iter_gaps_ms 50.);
    Out.metric "search.iter_ms_p99" "ms" (Out.percentile t.iter_gaps_ms 99.);
    Out.metric "gc.minor_words" "words" t.minor_words;
    Out.count "gc.major_collections" t.major_collections;
    Out.metric "search.traced_s" "s" o.Searcher.search_s;
    Out.metric "trace.overhead_ratio" "ratio"
      (Out.ratio o.Searcher.search_s untraced_s);
  ]
