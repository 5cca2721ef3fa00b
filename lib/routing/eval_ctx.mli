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
    weight setting; {!to_evaluate} is its materialized two-class view,
    which carries numbers only, and the [T]-class state is read through
    the accessors ({!phi}, {!loads}, {!phi_per_arc}, {!weights_view}):
    the routing stays in the context, and a state that must be
    returned to is kept in a {!clone} and brought back with {!sync}.

    A context routes each weight group only to the destinations its
    member classes sink demand at, and only on the group's {e core
    graph}: a node on no simple path between two sources or
    destinations of the group's demand ({!Dtr_graph.Graph.off_core})
    carries no flow, and {!create} builds, per group, the subgraph of
    the other nodes and the arcs between them, numbered densely
    ({!Dtr_graph.Graph.induced}; the graph itself when no node is off
    the core, an {e identity core}), which clones share.  The group's
    dags, its classes' demand and contribution rows and the probe
    arena's repair state live in the core's node and arc ids, sized to
    the core; weights, loads, residual capacities, Fortz rows and the
    SLA per-arc delays stay in the graph's arc ids, patched through the
    core's arc map.  Both maps ascend with the graph's ids, so every
    tie-break by id, next-hop order and ascending fold is the same in
    either numbering: a core dag is exact at every core node (labels,
    next-hop sets and the order among core nodes are the whole graph's,
    since a shortest path between core nodes stays on the core), and
    loads, Φ and Λ are bitwise those of an evaluation over every
    destination on the whole graph (a demandless destination
    contributes an empty row, every walk from a demand source reads
    core nodes only, and an off-core arc carries no load).  Memory is
    O(demand destinations) core-sized dag sets, which is what makes
    10k-node contexts fit.

    The views in the graph's ids — {!dags}, {!probe_dags},
    {!contrib_view} and {!demand_view} — are built only when a reader
    asks (on an identity core they are the stored arrays): no probe,
    commit, materialized solution or Λ walk ({!probe_primary},
    {!primary}, {!sla}) expands anything.

    Probes are computed in a scratch arena the context owns (allocated
    by its first probe; a {!clone} gets its own): repaired DAGs (with
    the SPF repair's own working state), re-projected contribution rows
    and patched rows are written into reused buffers, so a probe
    allocates little beyond the next-hop sets its repairs change, and
    reading a candidate's cost ({!probe_phi}, {!probe_primary})
    allocates nothing large.  A dirty destination whose repair cannot
    move any flow ({!Dtr_graph.Spf_delta.scratch_same_flows_at}) is not
    re-projected: its row would come out bitwise the committed one.
    Both probe kinds repair behind a flow screen: a dirty destination
    toward which the change list cannot move any flow of the repaired
    group is not repaired at all (see {!probe}).  Both also repair on
    the group's core graph, every change list mapped to its arcs.
    Only {!commit} copies what a probe moved
    into fresh arrays; committed rows are replaced, never mutated, so
    clones and solution snapshots that share them stay valid.

    Weight probes ({!probe}) and failure probes ({!fail_probe}) are one
    handle, {!type-probe}, whose phantom kind lets only a weight probe
    be committed.  The arena holds one computation at a time, so both
    share one lifetime rule: a probe's views are readable, and a weight
    probe is committable, only on the context that took it and only
    until that context's next probe, failure probe, commit or {!sync};
    otherwise they raise [Invalid_argument] as stale.  A probe's
    objective vector ({!probe_phi}) is a copy and stays readable. *)

type t

type dest_mode = All | Demand
(** Ignored by {!create}: every context routes to its demand
    destinations on its core graphs (see above).  Kept because
    perfbench's probe replay, its last reader, names it. *)

val create :
  ?dest_mode:dest_mode ->
  Dtr_graph.Graph.t ->
  weights:int array array ->
  matrices:Dtr_traffic.Matrix.t array ->
  t
(** Build a context from a full evaluation of [weights] (one vector
    per class; {e physically} equal vectors form a group that is
    routed once and re-routed together).  The vectors are copied.
    Each group runs one SPF sweep, on its core graph, to the
    destinations its classes sink demand at.  [dest_mode] is ignored:
    perfbench's probe replay, its last reader, still passes it.
    @raise Invalid_argument on no class, length/size mismatches,
    invalid weights ({!Weights.validate}), or positive demand between
    a pair with no path ([Eval_ctx.create: no path s -> t]). *)

val clone : t -> t
(** A context sharing all immutable data (graph, demand, DAGs, load
    rows — commits replace rows, never mutate them) with the original
    but owning its mutable spine and probe arena, so probes against
    the clone are race-free while the original keeps evaluating.  Its
    owners are a scan worker domain, or a search run keeping the state
    of its best to return to; clones are brought back in step with
    {!sync} instead of re-cloned.  The clone's arena, and
    the SPF repair state in it, is allocated by its own first probe. *)

val sync : src:t -> dst:t -> unit
(** Make [dst] (a {!clone} of [src]'s lineage, or any context built
    over the same graph and the same, physically equal, matrices, so
    on the same demand cores) evaluate exactly as [src] by blitting
    the shared-row spine across; [dst] keeps its own probe arena.
    O(groups + classes ⋅ destinations), no recomputation.  [dst]'s
    outstanding probes go stale.
    @raise Invalid_argument when the contexts disagree on graph, class
    structure or matrices: [src]'s rows and dags would be installed in
    another numbering, against other demand. *)

type weight
(** The kind of a probe of a weight change: committable. *)

type failure
(** The kind of a probe of a link failure: never committed. *)

type 'kind probe
(** A candidate evaluation — of a weight change or of a link failure —
    computed against, but not installed into, the context. *)

val probe : t -> klass:int -> changes:(int * int) list -> weight probe
(** [probe t ~klass ~changes] evaluates setting arc [a] to weight [v]
    for each [(a, v)] in [changes] on [klass]'s weight vector (classes
    sharing the vector change together), pricing every class.  No-op
    entries are ignored.  The context's committed state is not
    modified; the probe is computed into the context's arena (see
    above), which makes every earlier probe of the context stale.
    Every change is checked before anything is computed, without
    allocating: a refused change list leaves the arena, and the
    earlier probe's views and commit, as they were.

    The probe repairs a dirty destination only when its change list
    can move flow, toward it, of a class of the changed group: a raised
    arc that lies on the destination's dag carries a nonzero committed
    share toward it, or the list's one lowered arc [(u, v)], now [x],
    reaches some node [z] that carries such flow at its label or below
    ([D_u(z) + x + d(v) <= d(z)], with [D_u] the committed distances to
    [u], read from [u]'s dag).  Two or more lowered arcs, or one whose
    tail [u] is no destination of the group's demand (the group holds
    no dag for it), repair wherever a drop passes the label test.  The
    test walks the destination's order, the nodes that reach it.
    Every other dirty destination is deferred: its
    committed dag and rows are exact at every node that carries flow,
    so Φ, every Fortz row and the SLA walk are bitwise those of a
    from-scratch evaluation.  A context whose committed rows came from
    a walk that split a positive flow into zero shares (float
    underflow) repairs every dirty destination instead.  With metrics
    on, [dtr_spf_delta_deferred_total] counts the deferred
    destinations.

    Every repair runs on the group's core graph under the changes
    between core nodes, in its ids: a change with an off-core end can
    move no flow (it is never tight at a core node, and every path over
    it comes back through the cut vertex it left by).  Every core node
    of a repaired destination comes out as a repair of the whole graph
    leaves it.  No flow crosses an off-core node, so Φ, the rows and Λ
    are unaffected, and the probe's dags stay exact at every
    flow-carrying node ({!probe_dags}).
    @raise Invalid_argument on an arc id or weight out of range, or an
    arc listed twice (even as a no-op entry). *)

val fail_probe : ?classes:int -> t -> arcs:int list -> failure probe
(** [fail_probe t ~arcs] evaluates the context's current weights with
    [arcs] removed from every class's topology (arc suppression via
    {!Dtr_graph.Dijkstra.suppressed}; no graph rebuild, no weight
    remapping), in the context's arena, which makes every earlier
    probe of the context stale.  A weight group repairs and
    re-projects only the destinations toward which a failed arc
    carries a nonzero committed share of a priced member class: at any
    other destination no node that carries that flow can change its
    label or next-hop set, so every other destination keeps its
    committed dag and rows.  Its repairs run on the group's core
    graph, as {!probe}'s do: a failed arc with an off-core end changes
    nothing.  A context whose committed loads came from
    a walk that split a positive flow into zero shares (float
    underflow) repairs every destination whose dag uses a failed arc
    instead.  If the failure severs any positive-demand pair the
    probe short-circuits: the per-class objective is infinite and
    {!probe_unreachable} counts the severed pairs.  Otherwise all
    patched quantities are bitwise identical to a from-scratch
    evaluation of the reduced graph.  The context is not modified.
    With metrics on, [dtr_failure_screened_total] counts the
    destinations left unrepaired although a failed arc lies on their
    dag.

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

val severing_links : t -> bool array
(** Per link of {!Dtr_graph.Graph.undirected_link_pairs}, whether
    failing its arcs leaves a positive-demand pair of some class with
    no path: exactly the links whose full {!fail_probe} severs demand,
    found by reachability alone, without a probe.  Searches run on the
    demand core's subgraph of every class's endpoints.  A link whose
    failed arcs each keep a detour severs nothing; for any other link
    that carries load, the destinations a failed arc carries a nonzero
    committed share to are searched.  A context whose committed loads
    underflowed to zero shares searches every demand destination of
    every link without a detour instead.  The context is not
    modified. *)

val probe_phi : _ probe -> float array
(** The candidate's objective [Φ_k] of each priced class (fresh copy;
    every class for a weight probe), comparable with
    {!Dtr_cost.Lexico.compare_vectors}.  Every entry is [Float.infinity] for a
    failure that severs demand. *)

val probe_unreachable : failure probe -> int
(** Severed positive-demand (class, source, destination) pairs of the
    priced classes; [0] exactly when the failure leaves their demand
    routable. *)

val probe_dags : t -> _ probe -> int -> Dtr_graph.Spf.dag array
(** A priced class's per-destination DAGs as the probe would leave
    them, in the graph's ids (treat as immutable): the probe's own for
    a weight group it repaired, the context's otherwise (as {!dags}
    gives them).  They are exact at every node
    that carries flow of a priced class toward the destination, which
    is every node a walk from a demand source (the load projection, the
    SLA delay walk) reads; a destination the flow screen deferred keeps
    its committed dag, which may still give a node without such flow
    its old label or next hops (for a failure probe, a route over a
    failed arc).  An arena view (see above).
    @raise Invalid_argument on a class the probe did not price, or a
    stale probe. *)

val probe_phi_row : t -> _ probe -> int -> float array
(** A priced class's per-arc Fortz costs as the probe would leave
    them (shared; treat as immutable); failed arcs carry zero load and
    zero cost.  Valid as long as {!probe_dags}.
    @raise Invalid_argument on a class the probe did not price, a
    stale probe, or a failure probe that severs demand (its rows are
    not computed: severed demand cannot be projected). *)

val probe_keeps_flows : t -> weight probe -> int -> bool
(** [probe_keeps_flows t p k] is [true] when the probe moved no
    contribution row of class [k], and neither its re-projections nor
    the walks behind the context's committed rows split a positive flow
    into zero shares.  Then the class's loads are the context's, and
    every node that carries its flow keeps, in {!probe_dags}, its label
    and next-hop set: anything read along class-[k] flow from the
    demand sources, such as the SLA delay walk of class 0, comes out as
    on the context.
    @raise Invalid_argument on a class out of range or a stale probe. *)

val probe_primary :
  model:Objective.model -> th:Dtr_traffic.Matrix.t -> t -> _ probe -> float
(** A probe's primary cost: Φ_H under [Load]; under [Sla], the Λ of
    the SLA delay walk over the probe's class-0 dags, on their core,
    and {!probe_phi_row} ({!Evaluate.sla_lambda}, bitwise
    {!Evaluate.sla_of}), in buffers of the context's arena (never
    shared with a {!clone}), so after the first call on [th] it
    allocates nothing.  The one
    pricing of a candidate that moves the high-priority routing and of
    a link failure.  [th] must not be mutated while the context is in
    use.
    @raise Invalid_argument under [Sla] on a stale probe or a failure
    probe that severs demand. *)

val primary : model:Objective.model -> th:Dtr_traffic.Matrix.t -> t -> float
(** The committed state's primary cost: Φ_H under [Load]; under [Sla],
    the Λ of the SLA delay walk over the committed class-0 dags, on
    their core, and {!phi_per_arc} row, in the buffers {!probe_primary}
    uses.  Bitwise {!probe_primary} of a probe that repaired and
    re-projected nothing. *)

val sla : Dtr_cost.Sla.params -> th:Dtr_traffic.Matrix.t -> t -> Evaluate.sla
(** The committed state's full SLA costing ({!Evaluate.sla_of}): the
    delay walk over the committed class-0 dags, on their core, and the
    {!phi_per_arc} row, bitwise the costing of the same dags viewed in
    the graph's ids ({!dags}) over the whole graph.  Its [lambda] is
    {!primary} under [Sla].  What {!Objective.of_eval} is handed for
    a state under the SLA model. *)

val zero_shares : t -> bool
(** Whether a walk behind the committed rows split a positive flow
    into zero shares (float underflow).  The flag is sticky, and while
    it is set every probe's flow screen is off: a probe repairs every
    dirty destination.  While it is clear, a failure probe whose arcs
    carry no committed load of any class it prices repairs and
    re-projects nothing, so it prices what the context does
    ({!primary}). *)

val commit : t -> weight probe -> unit
(** Install the context's latest probe: what it moved is copied
    straight from the arena into fresh arrays that replace the
    committed ones.  Committed dags keep the contract of {!dags}:
    later probes screen with them (D_u), failure probes repair from
    them, and {!Attribution} and {!Diff} read them through {!dags}.
    When the probe deferred a dirty destination, the group is first
    repaired again without the flow screen, on its core graph.  A
    commit copies the rows of the graph's ids it replaces (weights, and
    the load, residual and Fortz rows of the classes it moved) and
    otherwise only core-sized arrays.  The probe's rows are kept, being
    exact.  Committing advances the state, so every probe taken before
    goes stale.
    @raise Invalid_argument on a stale probe: one taken on another
    context, or before the context's last probe, failure probe, commit
    or sync. *)

val abort : t -> weight probe -> unit
(** Does nothing: a probe that is not committed is dropped, and the
    next computation overwrites the arena.  Kept because perfbench's
    probe replay calls it. *)

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
(** Current per-destination DAGs of a class in the graph's ids (treat
    as immutable — commits replace, never mutate, them): a placeholder
    at every destination without demand in the class's group, and
    elsewhere exact at every node of the group's core, every off-core
    node reading unreachable.  Built from the core's dags when asked
    (a dag already viewed and unchanged since is the same physical
    value); on an identity core, the stored array itself. *)

val loads : t -> int -> float array
(** Current per-arc load totals of a class (shared; commits replace
    the array, so snapshots stay valid). *)

val phi_per_arc : t -> int -> float array
(** Current per-arc Fortz costs of a class (shared; commits replace
    the row, so snapshots stay valid).  Lets the search loops rank
    arcs from the live context instead of re-deriving link costs from
    a solution. *)

val contrib_view : t -> klass:int -> dst:int -> float array
(** One destination's committed per-arc load contribution for a class,
    in the graph's arc ids — the exact row {!loads} sums in
    ascending-destination order (so re-summing the rows reproduces the
    totals {e bitwise}).  [[||]] when the destination has no routable
    positive demand in that class.  On an identity core the stored row,
    shared, not copied (commits replace rows, never mutate them, so a
    held view is a stable snapshot); otherwise a fresh row scattered
    from the core's.  This is the raw material of {!Attribution}.
    @raise Invalid_argument on a class or destination out of range. *)

val demand_view : t -> klass:int -> dst:int -> float array
(** One destination's per-source demand column for a class, in the
    graph's node ids ([[||]] mirrors {!contrib_view}; fixed for the
    context's lifetime — reachability is weight-independent).  Shared
    on an identity core, fresh otherwise; never mutate.
    @raise Invalid_argument on a class or destination out of range. *)

val shares_group : t -> int -> int -> bool
(** Whether two classes share (alias) one weight vector. *)

val to_evaluate : t -> Evaluate.t
(** Materialize the two-class view.  O(1): the record references the
    context's current arrays, which later commits replace rather than
    mutate.  @raise Invalid_argument unless [class_count t = 2]. *)
