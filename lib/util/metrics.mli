(** Process-global metrics: named counters, log-bucketed histograms
    and a hierarchical phase profiler, exposed as Prometheus text and
    JSON.

    {b Cost.}  The registry is off by default.  Every recording entry
    point ({!add}, {!observe}, {!record}, {!span}) loads one atomic
    flag and branches away when disabled — the same near-zero
    discipline as [Dtr_core.Trace]'s pointer compare, so instrumented
    hot loops (SPF, probes, scans) pay one predictable branch per
    event with metrics off.

    {b Domain safety.}  Counters and histograms are sharded per
    domain: a recording touches only its own domain's slot
    (single-writer, no contention), and reads sum the shards — exact
    once the producing domains have quiesced, which every read site in
    the repo guarantees (pool batches are barriers).

    {b Determinism.}  A metric registered with [det:true] (the
    default) promises its total is a pure function of the work done,
    never of scheduling, extending the repo's contract to metrics:
    deterministic counter and histogram totals are bit-identical for
    every [--jobs × --scan-jobs] combination.  Timers, GC gauges and
    [det:false] counters (e.g. clone/sync counts, which scale with the
    worker count) are exempt and rendered below the
    ["# nondeterministic below this line"] marker. *)

val enabled : unit -> bool
(** One atomic load. *)

val set_enabled : bool -> unit
(** Turn recording on or off process-wide.  Enable before spawning
    worker domains (or accept that a racing worker may drop a few
    early events). *)

val reset : unit -> unit
(** Zero every counter, histogram and span accumulator (metric
    registrations are kept).  Call between runs to scope totals to one
    run.  Not safe concurrently with recording domains. *)

(** {1 Counters} *)

type counter

val counter : ?det:bool -> help:string -> string -> counter
(** Register (or look up) a named counter.  Registration is
    idempotent by name so modules at different layers can share a
    metric without exporting handles.
    @raise Invalid_argument if the name is already registered with a
    different determinism class or as a histogram. *)

val add : counter -> int -> unit

val incr_counter : counter -> unit

val counter_value : counter -> int
(** Sum over all domain shards. *)

(** {1 Histograms} *)

type histogram

val histogram : ?det:bool -> help:string -> string -> histogram
(** Log-bucketed (base-2) histogram: a finite positive value
    [v = m * 2^e] lands in the bucket of exponent [e] — the range
    [[2^(e-1), 2^e)] — with exponents clamped to [[-64, 64]], so
    subnormals fall into the lowest bucket and [max_float] into the
    highest; exact zero has its own bucket.  NaN and negative values
    are counted as rejected, never bucketed and never raising. *)

val observe : histogram -> float -> unit

val histogram_counts : histogram -> int array * int
(** [(per-bucket counts, rejected count)] summed over shards.  Slot 0
    is the zero bucket; slot [i > 0] covers values below
    {!bucket_upper}[ i]. *)

val bucket_of : float -> int
(** Bucket slot of a value, [-1] for rejected (NaN / negative). *)

val bucket_upper : int -> float
(** Exclusive upper bound of a bucket slot ([0.] for the zero
    bucket). *)

(** {1 Process gauges} *)

val peak_rss_kb : unit -> int
(** Peak resident set size of this process in kB ([VmHWM] from
    [/proc/self/status]); [-1] where procfs is unavailable.  Rendered
    (with the GC gauges) in the nondeterministic section of
    {!to_prometheus}/{!to_json}, and embedded in bench manifests. *)

(** {1 Phase profiler} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f] and accumulates the elapsed seconds under
    the "/"-joined path of the enclosing spans of the current domain
    (e.g. ["optimize/dtr/scan"]) — a hierarchical wall-time
    attribution of where a run spent its life.  When disabled, calls
    [f] directly (one atomic load, no allocation). *)

val record : string -> float -> unit
(** Accumulate [seconds] under an explicit path without entering the
    span stack — for callers that measure time themselves (the pool's
    busy/wait accounting). *)

(** {1 Exposition} *)

val to_prometheus : unit -> string
(** Prometheus text: deterministic counters and histograms first (in
    registration order), then the marker line, then [det:false]
    metrics, GC gauges captured at render time, and span timings. *)

val to_json : unit -> string
(** Same content as {!to_prometheus} as one JSON object with
    ["counters"], ["histograms"], ["nondeterministic"] and ["spans"]
    sections. *)

val deterministic_snapshot : unit -> string
(** The prefix of {!to_prometheus} above the marker line — the exact
    byte string the determinism contract promises is invariant across
    [--jobs × --scan-jobs]. *)

val nondet_marker : string
(** The marker line separating the deterministic section. *)
