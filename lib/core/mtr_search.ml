module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
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
  evaluations : int;
  improvements : int;
}

type state = {
  mutable ctx : Eval_ctx.t;  (* the current point *)
  best_ctx : Eval_ctx.t;
      (* a clone of [ctx] synced from it at every new best: a return to
         the best is blits only, and the report reads the best's
         weights from it *)
  mutable best : float array;  (* the best's objective vector *)
  mutable evaluations : int;
  mutable improvements : int;
  mutable moves : int;  (* commits and restarts: did an iteration move? *)
  mutable stall : int;
}

(* Probe candidates — change lists against [base], class [klass]'s
   weights when the pass began — one after another against the
   context, committing every improvement of the running incumbent as
   soon as it is found.  A later candidate is therefore diffed against
   the weights the earlier commits left.

   This pass deliberately does NOT go through the Scan engine (and
   stays sequential under --scan-jobs): each later candidate is probed
   against a context that may already have moved.  Parallel probes of
   the original context would score candidates against the wrong
   incumbent — a different search trajectory, not just a different
   schedule.  The engine only fits scans whose winner is chosen after
   the whole neighborhood is scored (STR, FindH/FindL). *)
let first_improvements st ~klass ~base candidates =
  List.iter
    (fun changes ->
      st.evaluations <- st.evaluations + 1;
      let w = Array.copy base in
      List.iter (fun (a, v) -> w.(a) <- v) changes;
      let changes =
        Problem.weight_changes (Eval_ctx.weights_view st.ctx klass) w
      in
      let d = Eval_ctx.probe st.ctx ~klass ~changes in
      if Lexico.compare_vectors (Eval_ctx.probe_phi d) (Eval_ctx.phi st.ctx) < 0
      then begin
        Eval_ctx.commit st.ctx d;
        st.moves <- st.moves + 1
      end)
    candidates

(* One Algorithm-2 pass on class [klass]'s weights, ranked by its
   per-arc cost row.  The sort completes before any probe commits, and
   commits replace the row and the weight vector rather than mutate
   them, so both views stay the pass's starting point. *)
let pass samplers rng cfg problem st ~klass =
  let costs = Eval_ctx.phi_per_arc st.ctx klass in
  let ranking =
    Neighborhood.rank_by_cost
      ~cmp:(fun x y -> Float.compare costs.(x) costs.(y))
      (Graph.arc_count problem.graph)
  in
  let base = Eval_ctx.weights_view st.ctx klass in
  first_improvements st ~klass ~base
    (Neighborhood.candidates samplers rng cfg ~ranking base)

let record_best st =
  let phi = Eval_ctx.phi st.ctx in
  if Lexico.compare_vectors phi st.best < 0 then begin
    st.best <- phi;
    Eval_ctx.sync ~src:st.ctx ~dst:st.best_ctx;
    st.improvements <- st.improvements + 1;
    st.stall <- 0
  end
  else st.stall <- st.stall + 1

(* Diversification: move to [weights], evaluated from scratch. *)
let restart problem st weights =
  st.evaluations <- st.evaluations + 1;
  st.ctx <- Eval_ctx.create problem.graph ~weights ~matrices:problem.matrices;
  st.moves <- st.moves + 1;
  st.stall <- 0

(* [ctx]'s per-class weights, those of the classes [perturb] selects
   perturbed (fresh vectors). *)
let perturbed rng ctx ~fraction ~perturb =
  Array.init (Eval_ctx.class_count ctx) (fun k ->
      let w = Eval_ctx.weights_view ctx k in
      if perturb k then Weights.perturb rng ~fraction w else w)

let init_state problem w0 =
  let ctx =
    Eval_ctx.create problem.graph ~weights:w0 ~matrices:problem.matrices
  in
  {
    ctx;
    best_ctx = Eval_ctx.clone ctx;
    best = Eval_ctx.phi ctx;
    evaluations = 1;
    improvements = 0;
    moves = 0;
    stall = 0;
  }

(* Bring the context back to the incumbent after a phase transition by
   syncing the kept best context into it: blits only, no SPF.  Every
   context of the run is built over the problem's graph and matrices,
   as {!Eval_ctx.sync} requires. *)
let resync st = Eval_ctx.sync ~src:st.best_ctx ~dst:st.ctx

let finish st weights =
  {
    weights;
    objective = Array.copy st.best;
    evaluations = st.evaluations;
    improvements = st.improvements;
  }

(* One iteration-level event (kind Mtr_pass, or Diversify after a
   perturbation), against [mark st] taken before the step: it is
   accepted iff the step moved.  MTR passes never run through the scan
   engine, so every field — including [st.evaluations] — is trivially
   scheduling-independent; objectives are the length-T vectors. *)
let mark st = (Eval_ctx.phi st.ctx, st.moves)

let tell trace st kind ~iteration ~detail (before, moves) =
  if Trace.enabled trace then
    Trace.emit trace ~kind ~iteration ~detail ~accepted:(st.moves <> moves)
      ~before ~after:(Eval_ctx.phi st.ctx) ~best:st.best
      ~evaluations:st.evaluations ()

let phase_done trace st ~iteration ~detail =
  if Trace.enabled trace then
    Trace.emit trace ~kind:Trace.Phase_done ~iteration ~detail ~before:st.best
      ~after:st.best ~best:st.best ~evaluations:st.evaluations ()

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
        (* Distinct copies: every class is routed on its own vector. *)
        Array.map Array.copy w
    | None -> Array.init classes (fun _ -> Array.make m Weights.mid_weight)
  in
  let samplers = Neighborhood.samplers cfg m in
  let st = init_state problem w0 in
  (* One routine per class, in priority order. *)
  for klass = 0 to classes - 1 do
    st.stall <- 0;
    (* Continue each routine from the incumbent. *)
    resync st;
    for iteration = 1 to cfg.Search_config.n_iters do
      let before = mark st in
      pass samplers rng cfg problem st ~klass;
      record_best st;
      tell trace st Trace.Mtr_pass ~iteration ~detail:klass before;
      if st.stall >= cfg.Search_config.diversify_after then begin
        let before = mark st in
        restart problem st
          (perturbed rng st.ctx ~fraction:Search_config.g1
             ~perturb:(( = ) klass));
        tell trace st Trace.Diversify ~iteration ~detail:klass before
      end
    done;
    phase_done trace st ~iteration:cfg.Search_config.n_iters ~detail:klass
  done;
  (* Joint refinement cycling over classes; its events carry
     [detail = classes] to distinguish them from the per-class
     routines.  A stall restarts from the best, perturbed. *)
  resync st;
  st.stall <- 0;
  for iteration = 1 to cfg.Search_config.k_iters do
    let before = mark st in
    for klass = 0 to classes - 1 do
      pass samplers rng cfg problem st ~klass
    done;
    record_best st;
    tell trace st Trace.Mtr_pass ~iteration ~detail:classes before;
    if st.stall >= cfg.Search_config.diversify_after then begin
      let before = mark st in
      restart problem st
        (perturbed rng st.best_ctx ~fraction:Search_config.g3
           ~perturb:(fun _ -> true));
      tell trace st Trace.Diversify ~iteration ~detail:classes before
    end
  done;
  phase_done trace st ~iteration:cfg.Search_config.k_iters ~detail:classes;
  finish st (Array.init classes (Eval_ctx.weights st.best_ctx))

let run_single_topology ?w0 ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  let classes = Array.length problem.matrices in
  let m = Graph.arc_count problem.graph in
  let shared =
    match w0 with
    | Some w ->
        Weights.validate problem.graph w;
        w
    | None -> Array.make m Weights.mid_weight
  in
  (* All classes alias the same vector, so the context routes them as
     one group, and one probe on class 0 re-routes every class. *)
  let make_w shared = Array.make classes shared in
  let st = init_state problem (make_w shared) in
  let samplers = Neighborhood.samplers cfg m in
  let iters = (classes * cfg.Search_config.n_iters) + cfg.Search_config.k_iters in
  for iteration = 1 to iters do
    let before = mark st in
    let rows = Array.init classes (Eval_ctx.phi_per_arc st.ctx) in
    let costs =
      Array.init m (fun a ->
          let total = ref 0. in
          Array.iter (fun pa -> total := !total +. pa.(a)) rows;
          !total)
    in
    let ranking =
      Neighborhood.rank_by_cost ~cmp:(fun x y -> Float.compare costs.(x) costs.(y)) m
    in
    let base = Eval_ctx.weights_view st.ctx 0 in
    first_improvements st ~klass:0 ~base
      (Neighborhood.move_candidates samplers rng cfg ~ranking base);
    record_best st;
    tell trace st Trace.Mtr_pass ~iteration ~detail:(-1) before;
    if st.stall >= cfg.Search_config.diversify_after then begin
      let before = mark st in
      restart problem st
        (make_w
           (Weights.perturb rng ~fraction:Search_config.g1
              (Eval_ctx.weights_view st.ctx 0)));
      tell trace st Trace.Diversify ~iteration ~detail:(-1) before
    end
  done;
  finish st (make_w (Eval_ctx.weights st.best_ctx 0))
