(** Aggregated run reports: fold a JSONL trace (plus an optional
    metrics snapshot and manifest) into one self-contained document —
    the convergence curve, acceptance/diversification/memo rates by
    phase, wall-clock per phase, and the run's final state — so a
    finished run can be read without grepping JSONL by hand.

    {b Determinism.}  Every number in a report is a pure function of
    the input artifacts: a trace recorded with timestamps normalized
    ([--trace-timestamps off], [Trace.ring ~timestamps:false]) yields
    byte-identical reports for every [--jobs × --scan-jobs]
    combination, in both Markdown and JSON form.  No wall-clock
    timestamps or file paths are embedded. *)

type t

val load :
  ?metrics:string -> ?manifest:string -> string -> (t, string) result
(** [load trace_path] parses a JSONL trace (one {!Trace.to_json} line
    per event; blank lines skipped).  [metrics] names a
    [Dtr_util.Metrics.to_json] snapshot, [manifest] a {!Manifest}
    sidecar; both are parsed and embedded.  Errors on an unreadable
    file, an unparseable metrics/manifest document, a trace without a
    non-blank line, or one with none parseable (the error names the
    first unparseable line and its parse error).  Lines that fail to
    parse are counted ({!bad_lines}), not fatal — a truncated tail
    must not hide the rest of a long run. *)

val events : t -> Trace.event list
(** Parsed events in file order. *)

val bad_lines : t -> int

(** {1 Derived statistics} *)

type phase = {
  p_restart : int;  (** [-1] outside a multi-start *)
  p_label : string;
  p_moves : int;  (** iteration-level decision events in the phase *)
  p_accepted : int;
  p_probes : int;
  p_memo_probes : int;  (** probes served from the memo *)
  p_diversify : int;
  p_evaluations : int;  (** objective evaluations spent in the phase *)
  p_memo_hits : int;
  p_memo_misses : int;
  p_wall_us : float;  (** 0 on a timestamp-normalized trace *)
  p_best : float array;  (** incumbent objective at phase end *)
}

val phases : t -> phase list
(** One entry per [Phase_done] event, in trace order: the events since
    the previous phase boundary of the same restart, with evaluation /
    memo counters and wall-clock differenced against that boundary.
    Phase labels are inferred from the event kinds present (DTR
    routine ordinals, MTR passes, annealing phases). *)

type totals = {
  t_events : int;
  t_probes : int;
  t_memo_probes : int;
  t_moves : int;
  t_accepted : int;
  t_diversify : int;
  t_restarts : int;  (** [Restart_done] events; 0 for a single run *)
  t_evaluations : int;  (** summed across restart segments *)
  t_full : int;
  t_delta : int;
  t_memo_hits : int;
  t_memo_misses : int;
  t_duration_us : float;  (** max event timestamp *)
  t_best : float array;  (** lexicographic minimum of [best] fields *)
}

val totals : t -> totals

(** {1 Tables} *)

val summary_table : t -> Dtr_util.Table.t

val kind_table : t -> Dtr_util.Table.t
(** Events and acceptance counts per event kind. *)

val phase_table : t -> Dtr_util.Table.t
(** {!phases} rendered with acceptance / memo-hit rates and wall-clock
    seconds per phase. *)

val restart_table : t -> Dtr_util.Table.t
(** One row per [Restart_done]: final objective, whether it improved
    on all lower indices, evaluations spent.  Empty for single runs. *)

val convergence_table : t -> Dtr_util.Table.t
(** Best-so-far improvements over cumulative evaluations
    ({!Trace.convergence} rendered by
    [Dtr_routing.Report.convergence_table]). *)

val spans_table : t -> Dtr_util.Table.t option
(** Wall-clock per profiler span from the metrics snapshot ([None]
    without one, or when it has no spans). *)

(** {1 Documents} *)

val to_markdown : t -> string
(** Self-contained Markdown report: summary, per-kind and per-phase
    statistics, restart and convergence tables, profiler spans, and
    the manifest (verbatim, fenced) when given. *)

val to_json : t -> string
(** The same content as one JSON document (floats as ["%.17g"]); the
    manifest is embedded verbatim as an object. *)
