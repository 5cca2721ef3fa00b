(** Real-ISP-scale benchmark tier: 1k-10k-node presets, demand-only
    evaluation contexts, and probe-latency measurement.

    Each {!row} is one {!Dtr_topology.Large} preset taken through the
    full pipeline: topology generation, a sparse PoP-level gravity
    matrix ({!Dtr_traffic.Gravity.generate_pop}) with the paper's
    [f = 0.30] / [k = 0.10] high-priority mix on top, a
    {!Dtr_routing.Eval_ctx.Demand}-mode context (shortest-path DAGs
    only for PoP destinations — what makes 10k nodes fit), then timed
    single-weight-change probes through the delta engine.  Scenario
    contents are deterministic in (preset, seed); only the timings and
    the RSS gauge vary by machine. *)

type row = {
  preset : string;
  nodes : int;
  arcs : int;
  pops : int;
  demand_pairs : int;  (** positive entries across both class matrices *)
  gen_s : float;  (** topology + traffic + weights generation *)
  full_eval_s : float;  (** demand-mode [Eval_ctx.create]: SPF + loads + Φ *)
  probe_ns_p50 : float;
  probe_ns_p90 : float;
  probe_ns_p99 : float;
  probe_evals_per_sec : float;  (** [1e9 / probe_ns_p50] *)
  peak_rss_kb : int;
      (** process high-water mark after this row; per-row attribution
          holds because {!run} orders rows by ascending node count *)
}

val default_probes : int
(** Timed probes per preset (1,000, so that the p99 rests on ten
    samples). *)

val run_preset : ?probes:int -> seed:int -> Dtr_topology.Large.preset -> row

val run :
  ?probes:int ->
  ?progress:(string -> unit) ->
  seed:int ->
  string list ->
  row list
(** [run ~seed names] benchmarks the named presets in ascending
    node-count order (so the monotone peak-RSS gauge attributes to the
    row that grew it).  [progress] receives one line before and after
    each preset.  @raise Invalid_argument on an unknown preset name. *)

val table : row list -> Dtr_util.Table.t

val to_json : seed:int -> probes:int -> row list -> string
(** The [BENCH_large.json] document: provenance stamp plus one entry
    per row. *)
