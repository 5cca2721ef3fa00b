(** Structured search telemetry: a per-run event sink recording every
    accepted/rejected move of the lexicographic searches, so search
    {e quality} (not just the final objective) is observable — the
    convergence curves the paper's evaluation (§3.3.1, §5) reasons
    about.

    {b Determinism.}  Every event field except [time_us] is a pure
    function of the search trajectory: objectives come from the
    jobs-invariant summaries the searches already fold over, counters
    come from the run's own evaluation counts (its full evaluations
    and probes, plus the candidates its {!Scan} engine counted on the
    calling domain) and the per-run memo, and events produced on
    worker domains (multi-start restarts, parallel scan tasks) are
    buffered and re-emitted on the calling domain in sequential order
    — restart order for {!Multistart}, candidate order for {!Scan}.
    A JSONL trace is therefore byte-identical for every
    [--jobs × --scan-jobs] combination once the [t_us] timing field is
    normalized.

    {b Cost.}  The disabled sink ({!disabled}) is a shared immutable
    value; call sites guard every emission with {!enabled}, which is a
    single pointer comparison, so a search run with tracing off
    allocates nothing and pays one predictable branch per iteration. *)

type kind =
  | Str_scan  (** one STR single-arc value-scan iteration *)
  | Find_h  (** one FindH pass (Algorithm 2) *)
  | Find_l  (** one FindL pass (Algorithm 2) *)
  | Mtr_pass  (** one MTR per-class pass ([detail] = class) *)
  | Anneal_step  (** one Metropolis proposal ([value] = temperature) *)
  | Probe
      (** one scan candidate, re-emitted by {!Scan} in candidate order
          ([detail] = candidate index; [accepted] = served from memo) *)
  | Diversify  (** stall-triggered perturbation *)
  | Phase_done  (** end of a search routine ([detail] = phase ordinal) *)
  | Restart_done  (** end of a multi-start restart ([detail] = index) *)
  | Robust_sweep
      (** one single-link failure sweep in robust mode ([detail] =
          failures priced as infinite; [value] = failure penalty's
          primary component; [before]/[after] = normal vs. robust
          objective of the swept candidate; [accepted] = became the
          robust best) *)

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] on unknown names. *)

type event = {
  seq : int;  (** per-sink sequence number, assigned at emission *)
  restart : int;  (** multi-start restart index; [-1] outside one *)
  kind : kind;
  iteration : int;
  detail : int;  (** kind-specific payload (arc, phase, class, index) *)
  accepted : bool;
  before : float array;  (** objective vector before the move; [[||]] n/a *)
  after : float array;  (** objective vector after the move *)
  best : float array;  (** incumbent best-so-far objective vector *)
  evaluations : int;  (** objective evaluations since the run started *)
  full_evals : int;  (** ... of which full evaluations *)
  delta_evals : int;  (** ... of which incremental probes *)
  memo_hits : int;  (** cumulative memo hits of the run *)
  memo_misses : int;
  value : float;  (** kind-specific float payload (temperature, ...) *)
  time_us : float;
      (** microseconds since the sink was created, forced monotone.
          The only nondeterministic field: JSONL diffs must normalize
          it (it is emitted last on the line for that reason). *)
}

type t
(** A sink.  Not thread-safe: emit from one domain at a time (worker
    domains buffer into their own ring and {!replay} afterwards). *)

val disabled : t
(** The shared null sink: {!enabled} is [false], {!emit} is a no-op.
    The default everywhere a trace is accepted. *)

val enabled : t -> bool
(** One pointer comparison; guard every {!emit} with it so event
    payloads (the objective arrays) are never allocated when tracing
    is off. *)

val ring : ?capacity:int -> ?timestamps:bool -> unit -> t
(** In-memory sink.  Unbounded by default (it grows by doubling); with
    [capacity] it keeps only the most recent [capacity] events.
    With [~timestamps:false] the sink zeroes [time_us] at recording,
    making its output fully deterministic (byte-diffable in CI without
    any post-processing).  Default [true].
    @raise Invalid_argument on [capacity < 1]. *)

val jsonl : ?timestamps:bool -> out_channel -> t
(** Streaming sink: one JSON object per event per line, written at
    emission.  The channel is not closed by the sink.  [~timestamps]
    as for {!ring}: [false] zeroes [t_us] on every emitted line,
    including events replayed from worker rings. *)

val tee : t -> t -> t
(** Emit into both sinks (each assigns its own [seq]/[time_us]).
    [enabled] iff either side is. *)

val sample : int -> t -> t
(** [sample n t] decimates the {e probe} stream: every [n]-th [Probe]
    event offered (the first, the [n+1]-th, ...) reaches [t]; every
    other event kind always passes through.  The decision is
    counter-based — the counter advances once per probe offered,
    kept or not — so which probes survive is a pure function of the
    probe stream and the sampled trace stays byte-identical for every
    [jobs × scan-jobs] combination.  [sample 1 t] and sampling a
    disabled sink return [t] itself (no wrapper, byte-identical
    output).  [seq] numbers are assigned by [t], so a sampled JSONL
    trace has consecutive sequence numbers.
    @raise Invalid_argument on [n < 1]. *)

val emit :
  t ->
  kind:kind ->
  ?restart:int ->
  iteration:int ->
  ?detail:int ->
  ?accepted:bool ->
  ?before:float array ->
  ?after:float array ->
  ?best:float array ->
  ?evaluations:int ->
  ?full:int ->
  ?delta:int ->
  ?memo_hits:int ->
  ?memo_misses:int ->
  ?value:float ->
  unit ->
  unit
(** Record one event.  Omitted fields default to [-1]/[0]/[false]/
    [[||]] as appropriate; [seq] and [time_us] are assigned by the
    sink. *)

val length : t -> int
(** Events currently held ([ring]) or written so far ([jsonl]);
    0 for {!disabled}. *)

val events : t -> event list
(** Buffered events of a [ring] sink in emission order (oldest first);
    [[]] for every other sink. *)

val replay : t -> into:t -> restart:int -> unit
(** Re-emit every buffered event of a ring sink into another sink with
    its [restart] field set; [seq] is reassigned by the target,
    [time_us] is preserved (the worker's clock already recorded it).
    Used by {!Multistart} to serialize per-restart traces in restart
    order, keeping the merged trace jobs-invariant. *)

val pair : Dtr_cost.Lexico.t -> float array
(** [[| primary; secondary |]] — the objective-vector encoding of the
    two-class lexicographic cost. *)

val to_json : event -> string
(** One-line JSON encoding, fixed field order, floats printed with
    ["%.17g"] (exact round-trip).  [t_us] is the last field so trace
    diffs can normalize it with a single regex. *)

val of_json : string -> (event, string) result
(** Parse one {!to_json} line back into an event (extra fields are
    ignored; field order is free).  Floats round-trip bit-exactly
    (["%.17g"] ↔ [float_of_string]).  Errors name the offending field
    or carry the JSON parser's message. *)

val convergence : event list -> (int * float array) list
(** Best-so-far convergence curve: [(cumulative evaluations,
    objective)] points at which the running (exact lexicographic)
    minimum of the [best] field improved, in event order.  Events with
    an empty [best] (probes) are skipped.  Evaluations are accumulated
    across restart segments, so the curve of a multi-start trace is
    plotted against the total budget spent. *)
