(** Extension beyond the paper's two classes: the Algorithm-1 search
    generalized to [T >= 2] priority classes over the load-based cost,
    each class routed on its own topology (MT-OSPF supports up to 128).

    The objective is the length-[T] lexicographic vector
    [⟨Φ_0, Φ_1, …⟩] (class 0 = highest priority).  The search runs one
    Algorithm-1-style routine per class in priority order — optimizing
    class [k]'s weights with all other classes frozen — followed by a
    joint refinement phase cycling over the classes, with the same
    stall-triggered diversification as the two-class search.
    Objectives compare exactly ({!Dtr_cost.Lexico.compare_vectors}).
    A run keeps two evaluation contexts, the current point and a clone
    synced from it at every new best, and the best's objective vector;
    it returns to its best by syncing the clone back.

    [run_single_topology] is the STR baseline in this setting: one
    shared weight vector for all classes, optimized against the same
    vector objective. *)

type problem = {
  graph : Dtr_graph.Graph.t;
  matrices : Dtr_traffic.Matrix.t array;
      (** per-class demand, highest priority first *)
}

val create_problem :
  graph:Dtr_graph.Graph.t -> matrices:Dtr_traffic.Matrix.t array -> problem
(** @raise Invalid_argument on fewer than 2 classes, size mismatch, or
    a graph that is not strongly connected. *)

type report = {
  weights : int array array;
      (** best per-class weight vectors, read from the context the run
          keeps of its best *)
  objective : float array;
      (** [⟨Φ_0, …, Φ_{T−1}⟩] of the best, the evaluation of [weights]
          (ordered by {!Dtr_cost.Lexico.compare_vectors}) *)
  evaluations : int;
  improvements : int;
}

val run :
  ?w0:int array array ->
  ?trace:Trace.t ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  problem ->
  report
(** Multi-topology search.  [w0] defaults to mid-range uniform vectors
    (one per class).  With an enabled [trace], one [Mtr_pass] event is
    recorded per iteration ([detail] = class being optimized, or [T]
    during joint refinement), plus [Diversify] and [Phase_done] events;
    objectives are the length-[T] vectors.  MTR passes are sequential
    (first-improvement commits mid-scan), so the trace is trivially
    identical under every [--scan-jobs].
    @raise Invalid_argument on a [w0] with the wrong class count, or
    any vector out of range or mis-sized
    ({!Dtr_routing.Weights.validate}). *)

val run_single_topology :
  ?w0:int array ->
  ?trace:Trace.t ->
  Dtr_util.Prng.t ->
  Search_config.t ->
  problem ->
  report
(** Single shared weight vector for every class (the STR baseline);
    the returned [weights] repeats one physical vector [T] times.
    @raise Invalid_argument on an out-of-range or wrong-length [w0]
    ({!Dtr_routing.Weights.validate}). *)
