(** Incremental multi-class evaluation context.

    A context holds one full evaluation — per-group shortest-path DAGs
    ({!Dtr_graph.Spf_delta} keeps them current), per-destination load
    contributions, per-class load totals, the residual-capacity
    cascade, and per-arc Fortz costs — and re-evaluates candidate
    weight changes incrementally: {!probe} screens which destinations a
    change can affect, re-projects only their flows, patches only the
    arcs whose load moved (including the high→residual→low coupling),
    and returns the candidate's objective vector without touching the
    committed state.  {!commit} installs the latest probe; a probe
    that is not committed is simply dropped.

    Probes never move the committed state: many can be taken from it
    in turn, their objectives compared, and the winner probed again
    and committed — this is the apply/undo protocol of the search inner
    loops.  All quantities are bitwise-identical to a
    from-scratch evaluation of the same weights ({!create}, and the
    test-only references the tests hold it to): per-arc loads receive
    at most one share per destination, so patched totals re-associate
    exactly as the full sum, and Φ totals are re-folded (not
    differentially adjusted) over the per-arc array.

    This is the one code in the library that routes and prices a
    weight setting; {!to_evaluate} and {!to_multi} are its
    materialized views.

    Probes are computed in a scratch arena the context owns (allocated
    by its first probe; a {!clone} gets its own): repaired DAGs (with
    the SPF repair's own working state), re-projected contribution rows
    and patched rows are written into reused buffers, so a probe
    allocates little beyond the next-hop sets its repairs change, and
    reading a candidate's cost ({!probe_phi},
    {!failure_phi}, the SLA walk over {!probe_dags}/{!probe_phi_row}
    or {!failure_dags}/{!failure_phi_row} with {!sla_scratch})
    allocates nothing large.  A dirty destination whose repair cannot
    move any flow ({!Dtr_graph.Spf_delta.scratch_same_flows_at}) is not
    re-projected: its row would come out bitwise the committed one.
    Only {!commit} copies what a probe moved
    into fresh arrays; committed rows are replaced, never mutated, so
    clones and solution snapshots that share them stay valid.

    The arena holds one computation at a time, so weight probes and
    failure probes share one lifetime rule: a probe's or a failure's
    views are readable, and a probe is committable, until the
    context's next probe, failure probe, commit or {!sync}; after that
    they raise [Invalid_argument] as stale.  Their objective vectors
    ({!probe_phi}, {!failure_phi}) are copies and stay readable. *)

type t

type dest_mode =
  | All  (** one DAG per destination node (the classic mode) *)
  | Demand
      (** DAGs only for destinations that sink positive demand in some
          member class of the group — the others carry placeholder
          dags and are skipped by every delta screen.  Memory drops
          from O(n) to O(demand destinations) DAG sets, which is what
          makes 10k-node contexts fit; loads and Φ are bitwise
          identical to [All] because demandless destinations
          contribute empty rows either way.  Restriction: {!dags}
          (and views derived from it) expose placeholder dags for
          inactive destinations. *)

val create :
  ?dags:Dtr_graph.Spf.dag array array ->
  ?dest_mode:dest_mode ->
  Dtr_graph.Graph.t ->
  weights:int array array ->
  matrices:Dtr_traffic.Matrix.t array ->
  t
(** Build a context from a full evaluation of [weights] (one vector
    per class; {e physically} equal vectors form a group that is
    routed once and re-routed together).  The vectors are copied.
    [dags], when given, must be the per-class DAG arrays already
    computed for these weights (e.g. from a {!Evaluate.t}) and skips
    the SPF rebuild.  [dest_mode] defaults to [All].
    @raise Invalid_argument on length/size mismatches, invalid
    weights, or unroutable positive demand. *)

val clone : t -> t
(** A context sharing all immutable data (graph, demand, DAGs, load
    rows — commits replace rows, never mutate them) with the original
    but owning its mutable spine and probe arena, so probes against
    the clone are race-free while the original keeps evaluating.  The
    intended owner is one scan worker domain; clones are brought back
    in step with {!sync} instead of re-cloned.  The clone's arena, and
    the SPF repair state in it, is allocated by its own first probe. *)

val sync : src:t -> dst:t -> unit
(** Make [dst] (a {!clone} of [src]'s lineage) evaluate exactly as
    [src] by blitting the shared-row spine across.  O(groups + classes
    ⋅ destinations), no recomputation.  [dst]'s outstanding probes and
    failures go stale.
    @raise Invalid_argument when the contexts disagree on graph or
    class structure. *)

type probe
(** A candidate evaluation: the full consequence of a weight change,
    computed against — but not installed into — the context. *)

val probe : t -> klass:int -> changes:(int * int) list -> probe
(** [probe t ~klass ~changes] evaluates setting arc [a] to weight [v]
    for each [(a, v)] in [changes] on [klass]'s weight vector (classes
    sharing the vector change together).  No-op entries are ignored.
    The context's committed state is not modified; the probe is
    computed into the context's arena (see above), which makes every
    earlier probe and failure of the context stale.  Every change is
    checked before anything is computed, without allocating: a
    refused change list leaves the arena, and the earlier probe's
    views and commit, as they were.
    @raise Invalid_argument on an arc id or weight out of range, or an
    arc listed twice (even as a no-op entry). *)

val probe_phi : probe -> float array
(** The candidate's per-class objective vector [Φ_k] (fresh copy),
    comparable with {!Multi.compare_objective}. *)

val probe_dags : t -> probe -> int -> Dtr_graph.Spf.dag array
(** A class's per-destination DAGs as the probe would leave them (the
    probe's own for the probed weight group, the context's otherwise;
    treat as immutable).  With {!probe_phi_row}, this is what the SLA
    delay walk ({!Evaluate.sla_of}) needs to price a candidate that
    moves the high-priority routing, mirroring {!failure_dags}.  An
    arena view: readable until the context's next probe, failure
    probe, commit or sync.
    @raise Invalid_argument on a class out of range or a stale probe. *)

val probe_phi_row : t -> probe -> int -> float array
(** A class's per-arc Fortz costs as the probe would leave them
    (shared; treat as immutable), mirroring {!failure_phi_row}.  Valid
    as long as {!probe_dags}.
    @raise Invalid_argument on a class out of range or a stale probe. *)

val commit : t -> probe -> unit
(** Install the context's latest probe: what it moved is copied
    straight from the arena into fresh arrays that replace the
    committed ones.  Committing advances the state, so every probe
    and failure taken before goes stale.
    @raise Invalid_argument on a stale probe: one taken before the
    context's last probe, failure probe, commit or sync. *)

val abort : t -> probe -> unit
(** Does nothing: a probe that is not committed is dropped, and the
    next computation overwrites the arena.  Kept because perfbench's
    probe replay calls it. *)

val sla_scratch : t -> Evaluate.sla_scratch
(** The context's own buffers for {!Evaluate.sla_lambda} (in its
    arena, so never shared with a {!clone}), for pricing a probe's or
    failure's Λ without allocating. *)

type failure
(** A link-failure evaluation: the full consequence of suppressing one
    physical link's arcs in {e every} topology at once, computed
    against — but never installed into — the context. *)

val fail_probe : ?classes:int -> t -> arcs:int list -> failure
(** [fail_probe t ~arcs] evaluates the context's current weights with
    [arcs] removed from every class's topology (arc suppression via
    {!Dtr_graph.Dijkstra.suppressed}; no graph rebuild, no weight
    remapping), in the context's arena.  A weight group repairs and
    re-projects only the destinations toward which a failed arc
    carries a nonzero committed share of a priced member class: at any
    other destination no node that carries that flow can change its
    label or next-hop set, so every other destination keeps its
    committed dag and rows.  A context whose committed loads came from
    a walk that split a positive flow into zero shares (float
    underflow) repairs every destination whose dag uses a failed arc
    instead.  If the failure
    severs any positive-demand pair the probe short-circuits: the
    per-class objective is infinite and {!failure_unreachable} counts
    the severed pairs.  Otherwise all patched quantities are bitwise
    identical to a from-scratch evaluation of the reduced graph.
    The context is not modified, and failure probes cannot be
    committed.  With metrics on, [dtr_failure_screened_total] counts
    the destinations left unrepaired although a failed arc lies on
    their dag.

    [classes] (default: all of them) prices only the leading
    [classes] classes: only their weight groups are repaired, only
    their demand is checked for severed pairs, and only their rows are
    re-projected and patched — the lower classes' capacity cascade and
    Fortz rows are skipped.  Each priced class's Φ and Fortz row (and
    its DAGs) are bitwise those of the full probe.  [~classes:1] is
    how {!Failure_sweep.robust_penalty} ranks failures by class 0
    before pricing the worst in full.
    @raise Invalid_argument on an empty list, an arc id out of range,
    or [classes] outside 1 .. [class_count t]. *)

val failure_unreachable : failure -> int
(** Severed positive-demand (class, source, destination) pairs of the
    priced classes; [0] exactly when the failure leaves their demand
    routable. *)

val failure_phi : failure -> float array
(** Post-failure objective [Φ_k] of each priced class (fresh copy);
    every entry is [Float.infinity] for a disconnecting failure. *)

val failure_dags : t -> failure -> int -> Dtr_graph.Spf.dag array
(** Post-failure per-destination DAGs of a priced class (shared with
    the context for unrepaired destinations; treat as immutable).
    Exact at every node that carries flow of a priced class toward the
    destination, which is every node a walk from a demand source (the
    load projection, the SLA delay walk) reads; a destination the
    probe did not repair keeps its pre-failure dag, which may still
    route a node without such flow over a failed arc.  An
    arena view: readable until the context's next probe, failure
    probe, commit or sync.
    @raise Invalid_argument on a class out of range or not priced, or
    once the view is stale. *)

val failure_phi_row : failure -> int -> float array
(** Post-failure per-arc Fortz costs of a priced class — failed arcs
    carry zero load and zero cost.  Feeds the SLA delay walk.  An arena
    view, valid as long as {!failure_dags}.
    @raise Invalid_argument on a class out of range or not priced, for
    a disconnecting failure (the rows are not computed: severed demand
    cannot be projected), or once the view is stale. *)

val class_count : t -> int

val graph : t -> Dtr_graph.Graph.t
(** The (shared) graph the context evaluates on. *)

val phi : t -> float array
(** Current per-class objective vector (fresh copy). *)

val weights : t -> int -> int array
(** Current weight vector of a class (fresh copy). *)

val weights_view : t -> int -> int array
(** Current weight vector of a class, {e without} copying.  The array
    is the live committed vector: commits replace it, so a held view
    stays valid as a snapshot, but callers must never mutate it.  For
    hot paths (per-scan hashing) where {!weights}'s copy is the cost
    being avoided. *)

val dags : t -> int -> Dtr_graph.Spf.dag array
(** Current per-destination DAGs of a class (shared; treat as
    immutable — commits replace, never mutate, them). *)

val loads : t -> int -> float array
(** Current per-arc load totals of a class (shared; commits replace
    the array, so snapshots stay valid). *)

val phi_per_arc : t -> int -> float array
(** Current per-arc Fortz costs of a class (shared; commits replace
    the row, so snapshots stay valid).  Lets the search loops rank
    arcs from the live context instead of re-deriving link costs from
    a solution. *)

val contrib_view : t -> klass:int -> dst:int -> float array
(** One destination's committed per-arc load contribution for a class
    — the exact row {!loads} sums in ascending-destination order (so
    re-summing the rows reproduces the totals {e bitwise}).  [[||]]
    when the destination has no routable positive demand in that
    class.  Shared, not copied: commits replace rows, never mutate
    them, so a held view is a stable snapshot.  This is the raw
    material of {!Attribution}.
    @raise Invalid_argument on a class or destination out of range. *)

val demand_view : t -> klass:int -> dst:int -> float array
(** One destination's per-source demand column for a class ([[||]]
    mirrors {!contrib_view}; fixed for the context's lifetime —
    reachability is weight-independent).  Shared; never mutate.
    @raise Invalid_argument on a class or destination out of range. *)

val shares_group : t -> int -> int -> bool
(** Whether two classes share (alias) one weight vector. *)

val to_evaluate : t -> Evaluate.t
(** Materialize the two-class view.  O(1): the record references the
    context's current arrays, which later commits replace rather than
    mutate.  @raise Invalid_argument unless [class_count t = 2]. *)

val to_multi : t -> Multi.t
(** Materialize the [T]-class view (same sharing discipline). *)
