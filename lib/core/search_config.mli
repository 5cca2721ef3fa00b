(** Tuning knobs of the weight-search heuristics (paper §5.1.3).

    The paper's published budget ([N = 300 000], [K = 800 000]) targets
    hours of C runtime; the heuristic is anytime, so the scaled-down
    presets below reach the same qualitative STR/DTR gap in seconds.
    EXPERIMENTS.md records the preset used for every reported number. *)

type robust = {
  alpha : float;
      (** weight of the failure penalty in the robust objective
          [J = normal + alpha * penalty]; must be finite and
          non-negative *)
  top_k : int;
      (** failures averaged by the penalty: the mean of the [top_k]
          worst {e finite} single-link post-failure costs
          ({!Dtr_routing.Failure_sweep.penalty}); [1] is the pure
          worst case *)
}
(** Failure-robust search mode (CLI [--robust single-link]). *)

val m : int
(** [m]: neighbors evaluated per iteration (paper: 5). *)

val g1 : float
(** Fraction of [W_H] weights perturbed in routine 1 (paper: 5%). *)

val g2 : float
(** Fraction of [W_L] weights perturbed in routine 2 (paper: 5%). *)

val g3 : float
(** Fraction of both vectors perturbed in routine 3 (paper: 3%). *)

type t = {
  n_iters : int;  (** [N]: iterations of routines 1 and 2 each *)
  k_iters : int;  (** [K]: iterations of the refinement routine *)
  diversify_after : int;
      (** [M]: iterations without improvement before perturbing *)
  tau : float;  (** heavy-tail exponent of the rank distribution; paper 1.5 *)
  max_step : int;
      (** upper bound of the (uniform) random magnitude of a single
          weight increase/decrease; the paper leaves the amount
          unspecified *)
  scan_probability : float;
      (** probability that a FindH/FindL pass replaces its two-arc
          neighborhood by a full value scan of one cost-ranked arc
          (the Fortz–Thorup move).  Compensates for running orders of
          magnitude fewer iterations than the paper's N = 300 000;
          set to 0. for the literal Algorithm 2 neighborhood. *)
  scan_jobs : int;
      (** worker domains for the neighborhood-scan engine ({!Scan})
          inside one search run; results are bit-identical for every
          value (CLI [--scan-jobs]).  Default 1 (sequential). *)
  trace_probes : bool;
      (** when a {!Trace} sink is active, also record one [Probe]
          event per scan candidate (re-emitted in candidate order, so
          still jobs-invariant).  Probes dominate trace volume —
          roughly {!m} (or 29, on a value scan) events per
          iteration — so long runs may want them off.  Ignored (zero
          cost) when tracing is disabled.  Default [true]. *)
  trace_sample : int;
      (** probe decimation period: when probes are traced, keep every
          [trace_sample]-th one per search run ({!Trace.sample} — the
          counter advances per probe offered, so the kept set is
          jobs-invariant).  [1] keeps every probe, byte-identical to a
          build without the sampler (CLI [--trace-sample]).
          Default [1]. *)
  robust : robust option;
      (** when set, the searches pick their incumbent best by the
          robust objective [J = normal + alpha * penalty(single-link
          sweep)] instead of the normal cost alone.  Inner-loop scans
          still descend the normal cost; a sweep only runs when a
          candidate's normal cost beats the robust best (since
          [J >= normal], nothing better can hide behind a worse
          normal cost).  Default [None] — and with [None] every
          search path is bit-identical to the non-robust build. *)
}

val paper : t
(** The published parameters (very slow: [N = 300000], [K = 800000]). *)

val default : t
(** Balanced preset used by examples and the CLI:
    [N = 1500], [K = 3000], [M = 60]. *)

val quick : t
(** Small preset for tests and smoke benches:
    [N = 250], [K = 500], [M = 30]. *)

val scale : t -> float -> t
(** Multiply the iteration budgets ([n_iters], [k_iters],
    [diversify_after]) by a positive factor (min 1 iteration each).
    @raise Invalid_argument on a non-positive factor. *)

val validate : t -> unit
(** @raise Invalid_argument on nonsensical settings (non-positive
    budgets, a probability outside [0,1], ...). *)
