(** Hot-loop scan engine: evaluate a neighborhood of candidate weight
    changes against one incumbent context — in parallel over a domain
    pool when configured, short-circuited by an evaluated-solution
    memo when given — and hand the caller plain per-candidate
    summaries to fold exactly as the sequential loop would.

    {b Determinism.}  The engine never reduces in parallel: it returns
    every candidate's summary (in candidate order) and the caller
    replays the sequential argmin fold on them.  This matters because
    the searches compare objectives with the tolerant
    [Lexico.improves], which is not transitive — a chunk-local
    argmin followed by a cross-chunk reduction can pick a different
    winner than the flat left-to-right fold.  Chunking only decides
    {e where} a candidate is probed; probes are bitwise-identical to
    full evaluations regardless of the context instance they run
    against, so the summaries (and everything folded from them) are
    identical for every [jobs] value.  Memo lookups and insertions
    happen on the calling domain in candidate order, so hit/miss
    patterns — and the engine's evaluation count — are
    scheduling-independent too. *)

type summary = {
  objective : Dtr_cost.Lexico.t;
  phi_h : float;
  phi_l : float;
}
(** What a search fold needs from one evaluated candidate. *)

type t
(** An engine: an optional worker pool plus per-worker context clones,
    reused across iterations of one search run. *)

val create : jobs:int -> Problem.t -> t
(** @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val evaluations : t -> int
(** Candidates this engine has evaluated so far: the memo misses of
    every {!evaluate} call (every candidate, without a memo).  A search
    run adds it to its own full and delta evaluations for its report;
    {!commit} does not count. *)

val shutdown : t -> unit
(** Join the worker domains and drop the clones.  Idempotent. *)

val with_engine : jobs:int -> Problem.t -> (t -> 'a) -> 'a
(** Run [f] on a fresh engine, shutting it down on exit (normal or
    exceptional).  [jobs = 1] spawns no domains: scans degenerate to
    the plain sequential loop. *)

val evaluate :
  t ->
  Problem.ctx ->
  ?memo:summary Dtr_util.Vmemo.t ->
  ?trace:Trace.t ->
  cls:Problem.cls ->
  changes_of:(int -> (int * int) list) ->
  int ->
  summary array
(** [evaluate t ctx ?memo ~cls ~changes_of n] evaluates the [n]
    candidates [changes_of 0 .. changes_of (n-1)] (each a change list
    against [cls]'s current vector in [ctx]) and returns their
    summaries in candidate order.  [ctx] itself is not advanced.
    With [memo], already-seen settings are served from the table (and
    fresh ones added) — cached summaries are bitwise-equal to
    re-evaluation, so the caller's fold is unchanged; only the
    counted work shrinks.  [changes_of] must be pure (it may be
    re-invoked, including from worker domains).  With an enabled
    [trace], one [Probe] event per candidate is re-emitted on the
    calling domain in candidate order after the scan ([detail] =
    candidate index, [accepted] = served from the memo, [iteration] =
    the engine's scan counter) — never from the workers, so the trace
    is identical for every [jobs] value. *)

val commit :
  t -> Problem.ctx -> cls:Problem.cls -> changes:(int * int) list ->
  Problem.solution
(** Install a winning candidate into the main context and return it as
    a solution.  The candidate is re-derived against the context by an
    {e uncounted} probe (its evaluation was already counted when the
    scan summarized it), so evaluation counts stay jobs-invariant. *)
