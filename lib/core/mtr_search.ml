module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Multi = Dtr_routing.Multi
module Eval_ctx = Dtr_routing.Eval_ctx
module Weights = Dtr_routing.Weights

type problem = {
  graph : Graph.t;
  matrices : Matrix.t array;
}

let create_problem ~graph ~matrices =
  if Array.length matrices < 2 then
    invalid_arg "Mtr_search.create_problem: need at least 2 classes";
  let n = Graph.node_count graph in
  Array.iter
    (fun m ->
      if Matrix.size m <> n then
        invalid_arg "Mtr_search.create_problem: matrix size mismatch")
    matrices;
  if not (Graph.is_strongly_connected graph) then
    invalid_arg "Mtr_search.create_problem: graph must be strongly connected";
  { graph; matrices }

type report = {
  weights : int array array;
  objective : float array;
  eval : Multi.t;
  evaluations : int;
  improvements : int;
}

type state = {
  mutable current_w : int array array;
  mutable current : Multi.t;
  mutable ctx : Eval_ctx.t;  (* incremental view of [current] *)
  mutable best_w : int array array;
  mutable best : Multi.t;
  mutable evaluations : int;
  mutable improvements : int;
  mutable stall : int;
}

let copy_weights w = Array.map Array.copy w

(* Full (re-)evaluation through the incremental context, so later
   probes start from it. *)
let eval_state st problem w =
  st.evaluations <- st.evaluations + 1;
  st.ctx <- Eval_ctx.create problem.graph ~weights:w ~matrices:problem.matrices;
  Eval_ctx.to_multi st.ctx

let better a b = Multi.compare_objective (Multi.objective a) (Multi.objective b) < 0

(* Probe candidates — change lists against [base], class [klass]'s
   weights when the pass began — one after another against the
   context, committing every improvement of the running incumbent as
   soon as it is found.  A later candidate is therefore diffed against
   the weights the earlier commits left.  [install w] is the per-class
   weight array after committing class [klass]'s vector [w].

   This pass deliberately does NOT go through the Scan engine (and
   stays sequential under --scan-jobs): each later candidate is probed
   against a context that may already have moved.  Parallel probes of
   the original context would score candidates against the wrong
   incumbent — a different search trajectory, not just a different
   schedule.  The engine only fits scans whose winner is chosen after
   the whole neighborhood is scored (STR, FindH/FindL). *)
let first_improvements st ~klass ~base ~install candidates =
  List.iter
    (fun changes ->
      st.evaluations <- st.evaluations + 1;
      let w = Array.copy base in
      List.iter (fun (a, v) -> w.(a) <- v) changes;
      let changes = Problem.weight_changes st.current_w.(klass) w in
      let d = Eval_ctx.probe st.ctx ~klass ~changes in
      if
        Multi.compare_objective (Eval_ctx.probe_phi d)
          (Multi.objective st.current)
        < 0
      then begin
        Eval_ctx.commit st.ctx d;
        st.current_w <- install w;
        st.current <- Eval_ctx.to_multi st.ctx
      end)
    candidates

(* One Algorithm-2 pass on class [klass]'s weights, ranked by its
   per-arc cost row.  The sort completes before any probe commits, so
   reading the live row is bitwise-identical to a snapshot. *)
let pass samplers rng cfg problem st ~klass =
  let w = st.current_w in
  let costs = st.current.Multi.phi_per_arc.(klass) in
  let ranking =
    Neighborhood.rank_by_cost
      ~cmp:(fun x y -> Float.compare costs.(x) costs.(y))
      (Graph.arc_count problem.graph)
  in
  let install w_k =
    let cand_w = Array.copy w in
    cand_w.(klass) <- w_k;
    cand_w
  in
  first_improvements st ~klass ~base:w.(klass) ~install
    (Neighborhood.candidates samplers rng cfg ~ranking w.(klass))

let record_best st =
  if better st.current st.best then begin
    st.best_w <- copy_weights st.current_w;
    st.best <- st.current;
    st.improvements <- st.improvements + 1;
    st.stall <- 0
  end
  else st.stall <- st.stall + 1

let diversify rng problem st ~fraction ~classes =
  let w = copy_weights st.current_w in
  List.iter (fun k -> w.(k) <- Weights.perturb rng ~fraction w.(k)) classes;
  st.current_w <- w;
  st.current <- eval_state st problem w;
  st.stall <- 0

let finish st =
  {
    weights = copy_weights st.best_w;
    objective = Multi.objective st.best;
    eval = st.best;
    evaluations = st.evaluations;
    improvements = st.improvements;
  }

let init_state problem w0 =
  let ctx =
    Eval_ctx.create problem.graph ~weights:w0 ~matrices:problem.matrices
  in
  let current = Eval_ctx.to_multi ctx in
  {
    current_w = w0;
    current;
    ctx;
    best_w = copy_weights w0;
    best = current;
    evaluations = 1;
    improvements = 0;
    stall = 0;
  }

(* Re-point the context at the incumbent after a phase transition
   ([current_w] is a fresh copy of [best_w], so the incumbent's DAGs
   are still the right ones and the SPF is skipped). *)
let resync st problem =
  st.ctx <-
    Eval_ctx.create ~dags:(Array.map Lazy.force st.best.Multi.dags) problem.graph
      ~weights:st.current_w ~matrices:problem.matrices

(* One iteration-level event (kind Mtr_pass, or Diversify after a
   perturbation).  MTR passes never run through the scan engine, so
   every field — including [st.evaluations] — is trivially
   scheduling-independent; objectives are the length-T vectors. *)
let tell trace st kind ~iteration ~detail ~before ~prev =
  if Trace.enabled trace then
    Trace.emit trace ~kind ~iteration ~detail
      ~accepted:(not (prev == st.current))
      ~before ~after:(Multi.objective st.current)
      ~best:(Multi.objective st.best) ~evaluations:st.evaluations ()

let run ?w0 ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  let classes = Array.length problem.matrices in
  let m = Graph.arc_count problem.graph in
  let w0 =
    match w0 with
    | Some w ->
        if Array.length w <> classes then
          invalid_arg "Mtr_search.run: w0 class count mismatch";
        (* Validate every starting vector up front: an out-of-range
           weight used to survive until a value scan indexed past its
           table. *)
        Array.iter (Weights.validate problem.graph) w;
        copy_weights w
    | None -> Array.init classes (fun _ -> Array.make m Weights.mid_weight)
  in
  let samplers = Neighborhood.samplers cfg m in
  let st = init_state problem w0 in
  (* One routine per class, in priority order. *)
  for klass = 0 to classes - 1 do
    st.stall <- 0;
    (* Continue each routine from the incumbent. *)
    st.current_w <- copy_weights st.best_w;
    st.current <- st.best;
    resync st problem;
    for iteration = 1 to cfg.Search_config.n_iters do
      let before = Multi.objective st.current in
      let prev = st.current in
      pass samplers rng cfg problem st ~klass;
      record_best st;
      tell trace st Trace.Mtr_pass ~iteration ~detail:klass ~before ~prev;
      if st.stall >= cfg.Search_config.diversify_after then begin
        let before = Multi.objective st.current in
        let prev = st.current in
        diversify rng problem st ~fraction:Search_config.g1
          ~classes:[ klass ];
        tell trace st Trace.Diversify ~iteration ~detail:klass ~before ~prev
      end
    done;
    if Trace.enabled trace then begin
      let b = Multi.objective st.best in
      Trace.emit trace ~kind:Trace.Phase_done
        ~iteration:cfg.Search_config.n_iters ~detail:klass ~before:b ~after:b
        ~best:b ~evaluations:st.evaluations ()
    end
  done;
  (* Joint refinement cycling over classes; its events carry
     [detail = classes] to distinguish them from the per-class
     routines. *)
  st.current_w <- copy_weights st.best_w;
  st.current <- st.best;
  resync st problem;
  st.stall <- 0;
  let all_classes = List.init classes Fun.id in
  for iteration = 1 to cfg.Search_config.k_iters do
    let before = Multi.objective st.current in
    let prev = st.current in
    List.iter
      (fun klass -> pass samplers rng cfg problem st ~klass)
      all_classes;
    record_best st;
    tell trace st Trace.Mtr_pass ~iteration ~detail:classes ~before ~prev;
    if st.stall >= cfg.Search_config.diversify_after then begin
      let before = Multi.objective st.current in
      let prev = st.current in
      st.current_w <- copy_weights st.best_w;
      st.current <- st.best;
      diversify rng problem st ~fraction:Search_config.g3
        ~classes:all_classes;
      tell trace st Trace.Diversify ~iteration ~detail:classes ~before ~prev
    end
  done;
  if Trace.enabled trace then begin
    let b = Multi.objective st.best in
    Trace.emit trace ~kind:Trace.Phase_done ~iteration:cfg.Search_config.k_iters
      ~detail:classes ~before:b ~after:b ~best:b ~evaluations:st.evaluations ()
  end;
  finish st

let run_single_topology ?w0 ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  let classes = Array.length problem.matrices in
  let m = Graph.arc_count problem.graph in
  let shared =
    match w0 with
    | Some w ->
        Weights.validate problem.graph w;
        Array.copy w
    | None -> Array.make m Weights.mid_weight
  in
  (* All classes alias the same vector, so Multi shares one SPF, and
     one probe on class 0 re-routes every class. *)
  let make_w shared = Array.make classes shared in
  let st = init_state problem (make_w shared) in
  let samplers = Neighborhood.samplers cfg m in
  let iters = (classes * cfg.Search_config.n_iters) + cfg.Search_config.k_iters in
  for iteration = 1 to iters do
    let before = Multi.objective st.current in
    let prev = st.current in
    let w = st.current_w.(0) in
    let costs =
      Array.init m (fun a ->
          let total = ref 0. in
          Array.iter (fun pa -> total := !total +. pa.(a)) st.current.Multi.phi_per_arc;
          !total)
    in
    let ranking =
      Neighborhood.rank_by_cost ~cmp:(fun x y -> Float.compare costs.(x) costs.(y)) m
    in
    first_improvements st ~klass:0 ~base:w ~install:make_w
      (Neighborhood.move_candidates samplers rng cfg ~ranking w);
    record_best st;
    tell trace st Trace.Mtr_pass ~iteration ~detail:(-1) ~before ~prev;
    if st.stall >= cfg.Search_config.diversify_after then begin
      let before = Multi.objective st.current in
      let prev = st.current in
      let w' = Weights.perturb rng ~fraction:Search_config.g1 st.current_w.(0) in
      st.current_w <- make_w w';
      st.current <- eval_state st problem st.current_w;
      st.stall <- 0;
      tell trace st Trace.Diversify ~iteration ~detail:(-1) ~before ~prev
    end
  done;
  finish st
