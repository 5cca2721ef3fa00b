(** Two-class network evaluation under strict priority queueing, as a
    view of an evaluation context ({!Eval_ctx.to_evaluate}).

    High-priority traffic is routed on weights [wh] and sees full link
    capacities; low-priority traffic is routed on weights [wl] and sees
    only the residual capacity [max(C_l − H_l, 0)] (paper §3).  STR is
    the special case of one weight vector shared by both classes.  The
    record holds numbers only: it references the context's load and
    cost rows, which reports and the searches' solutions read.  The
    routing behind them stays in the context ({!Eval_ctx.dags}), and
    so does its SLA costing ({!Eval_ctx.sla}, through {!sla_of}). *)

type t = {
  graph : Dtr_graph.Graph.t;
  h_loads : float array;  (** per-arc high-priority load [H_l] *)
  l_loads : float array;  (** per-arc low-priority load [L_l] *)
  residual : float array;  (** [max(C_l − H_l, 0)] *)
  phi_h_per_arc : float array;  (** [Φ_{H,l}(H_l, C_l)] *)
  phi_l_per_arc : float array;  (** [Φ_{L,l}(L_l, C̃_l)] *)
  phi_h : float;  (** [Φ_H = Σ_l Φ_{H,l}] *)
  phi_l : float;  (** [Φ_L = Σ_l Φ_{L,l}] *)
}

val utilization : t -> float array
(** Per-arc [(H_l + L_l) / C_l]. *)

val h_utilization : t -> float array
(** Per-arc [H_l / C_l]. *)

val avg_utilization : t -> float
(** Mean over arcs of {!utilization} — the paper's network-load
    x-axis. *)

val max_utilization : t -> float

type sla = {
  arc_delay : float array;  (** Eq. (3) per-arc mean delay, ms *)
  pair_delays : (int * int * float) list;
      (** expected end-to-end delays of all high-priority SD pairs;
          [infinity] for a pair with no path *)
  lambda : float;  (** [Λ = Σ penalties]; [infinity] iff a pair is severed *)
  violations : int;  (** number of pairs exceeding the bound *)
  unreachable : int;  (** number of pairs with no path (counted among
                          [violations] too) *)
  worst_delay : float;  (** max pair delay; 0. with no pairs *)
}

val sla_of :
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  th:Dtr_traffic.Matrix.t ->
  core:Dtr_graph.Graph.t ->
  node_at:int array ->
  arcs:int array ->
  dags_h:Dtr_graph.Spf.dag array ->
  phi_h_per_arc:float array ->
  sla
(** The SLA view over the high-priority pairs (entries of [th] with
    positive demand), from the high-priority routing alone: per-arc
    delays from the [Φ_{H,l}] row (Eq. 3), expected pair delays
    walked over [dags_h], and the Λ fold (Eq. 4).  A disconnected pair
    does not raise: it contributes an infinite penalty (so any
    reconnecting routing compares strictly better) and is counted in
    [unreachable].  The dags route on [core], [g] itself or a subgraph
    of it ({!Dtr_graph.Graph.induced}) that holds every high-priority
    pair's walk, numbered through [node_at] ([g]'s node to [core]'s)
    and [arcs] ([core]'s arc to [g]'s, ascending).  [phi_h_per_arc] is in
    [core]'s arc ids, and every arc of [g] off [core] costs +0.; the
    walk reads the delays of [core]'s arcs alone, while [arc_delay]
    holds every arc's, built in [g]'s ids, and [pair_delays] is in
    [g]'s ids.  The one SLA costing of every evaluation path —
    a context's committed state ({!Eval_ctx.sla}), and weight and
    failure probes ({!Eval_ctx.probe_primary}) — so all of them price
    Λ bitwise alike.  Runs the fold of {!sla_lambda} over a fresh
    {!sla_scratch}. *)

type sla_scratch
(** Buffers of the SLA fold (per-arc delays, per-destination expected
    delays, the pair list of the last matrix and numbering seen), reused
    from call to call.  Owned by one caller at a time: not
    domain-safe. *)

val sla_scratch : unit -> sla_scratch

val sla_lambda :
  sla_scratch ->
  Dtr_cost.Sla.params ->
  Dtr_graph.Graph.t ->
  th:Dtr_traffic.Matrix.t ->
  core:Dtr_graph.Graph.t ->
  node_at:int array ->
  arcs:int array ->
  dags_h:Dtr_graph.Spf.dag array ->
  phi_h_per_arc:float array ->
  float
(** [(sla_of params g ~th ~core ~node_at ~arcs ~dags_h
    ~phi_h_per_arc).lambda], bitwise — the same fold — computed in the
    scratch's buffers: after the first call on a matrix and numbering it
    allocates nothing.  Only the delays of [core]'s arcs are
    computed.  The scratch caches [th]'s pair list by the
    physical identity of [th] and [node_at], so neither may be mutated
    while the scratch is in use. *)
