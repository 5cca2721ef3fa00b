module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights

type phase = Optimize_h | Optimize_l | Refine

type progress = {
  phase : phase;
  iteration : int;
  best_objective : Lexico.t;
}

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  evaluations : int;
  improvements : int;
  memo_hits : int;
  memo_misses : int;
  phase_objectives : (phase * Lexico.t) list;
  stopped : bool;
}

(* One FindH / FindL neighborhood of [sol]'s [cls] weights, as change
   lists, ranked from the context's cost rows (Problem.ctx_arc_cmp_h/_l:
   the paper's per-link lexicographic costs) without allocating m cost
   records per pass.  The ranking is [rcache]'s cached sorted
   permutation, repaired from the arcs whose cost entries moved since
   its last sort (Ranking.arcs — bitwise the full sort). *)
let neighborhood ~rcache samplers rng cfg problem ctx (sol : Problem.solution)
    ~cls =
  let cmp, w =
    match cls with
    | `H -> (Problem.ctx_arc_cmp_h problem ctx, sol.Problem.wh)
    | `L -> (Problem.ctx_arc_cmp_l problem ctx, sol.Problem.wl)
  in
  let n = Dtr_graph.Graph.arc_count problem.Problem.graph in
  let ranking = Ranking.arcs rcache ctx ~cmp n in
  Array.of_list (Neighborhood.candidates samplers rng cfg ~ranking w)

(* The candidate the pass moves to: the sequential fold from the
   current objective over the scan's summaries, in candidate order
   (first strict improvement wins ties), or -1. *)
let winner (summaries : Scan.summary array) ~from =
  let best_obj = ref from and best = ref (-1) in
  Array.iteri
    (fun i (s : Scan.summary) ->
      if Lexico.improves s.Scan.objective !best_obj then begin
        best_obj := s.Scan.objective;
        best := i
      end)
    summaries;
  !best

let run ?w0 ?stop ?on_progress ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  (* Loop-invariant heavy-tail tables and one ranking cache per cost
     ordering: FindH ranks by Φ_H rows, FindL by Φ_L rows, and each
     repairs against the context's rows independently. *)
  let samplers =
    Neighborhood.samplers cfg (Dtr_graph.Graph.arc_count problem.Problem.graph)
  in
  let rcache_h = Ranking.create () and rcache_l = Ranking.create () in
  let fired = ref false and stopped = ref false in
  let poll_stop () =
    match stop with
    | None -> ()
    | Some f -> if f () then fired := true
  in
  Scan.with_engine ~jobs:cfg.Search_config.scan_jobs problem @@ fun scan ->
  (* One run, and one memo, for all three routines: FindH and FindL
     candidates key on the full (W_H, W_L) pair, so revisits across
     phases and diversification jumps hit too. *)
  let inc = Incumbent.create ~scan ~trace cfg problem (Incumbent.Dtr w0) in
  let pass cls =
    let rcache = match cls with `H -> rcache_h | `L -> rcache_l in
    let cur = Incumbent.current inc in
    let cands =
      neighborhood ~rcache samplers rng cfg problem (Incumbent.ctx inc) cur
        ~cls
    in
    let summaries =
      Incumbent.scan inc ~cls ~changes_of:(Array.get cands)
        (Array.length cands)
    in
    match winner summaries ~from:(Problem.objective cur) with
    | -1 -> ()
    | i -> Incumbent.commit inc ~cls ~changes:cands.(i)
  in
  let notify phase iteration =
    match on_progress with
    | None -> ()
    | Some f ->
        f
          {
            phase;
            iteration;
            best_objective = Problem.objective (Incumbent.best inc);
          }
  in
  let phase_objectives = ref [] in
  let phase_done phase ~iterations ~detail =
    phase_objectives := (phase, Incumbent.objective inc) :: !phase_objectives;
    Incumbent.phase_done inc ~iteration:iterations ~detail
  in
  (* [stop] is polled after every completed iteration (so at least one
     always runs); once it fires, the remaining iterations of every
     routine are skipped, which the report records, while the hand-offs
     and the report still execute.  [detail] of every event is the
     routine ordinal. *)
  let iterate ~iterations phase body =
    for iteration = 1 to iterations do
      if !fired then stopped := true
      else begin
        body iteration;
        notify phase iteration;
        poll_stop ()
      end
    done
  in
  (* Routines 1 and 2: optimize one class's weights with the other's
     frozen, diversifying that class after M stalled passes. *)
  let routine cls =
    let phase, kind, detail, fraction =
      match cls with
      | `H -> (Optimize_h, Trace.Find_h, 0, Search_config.g1)
      | `L -> (Optimize_l, Trace.Find_l, 1, Search_config.g2)
    in
    iterate ~iterations:cfg.Search_config.n_iters phase (fun iteration ->
        let prev = Incumbent.current inc in
        pass cls;
        Incumbent.consider inc ~iteration ~prev;
        Incumbent.tell inc kind ~iteration ~detail ~prev;
        if Incumbent.stalled inc then begin
          let prev = Incumbent.current inc in
          let w =
            match cls with `H -> prev.Problem.wh | `L -> prev.Problem.wl
          in
          let changes =
            Problem.weight_changes w (Weights.perturb rng ~fraction w)
          in
          Incumbent.jump inc ~cls ~changes;
          Incumbent.tell inc Trace.Diversify ~iteration ~detail ~prev
        end);
    phase_done phase ~iterations:cfg.Search_config.n_iters ~detail
  in
  routine `H;
  (* Hand-off: freeze the best W_H and optimize W_L from there.
     Routine 1 never moves W_L, so (best W_H, current W_L) is the best's
     own weight pair: the run returns to the best, whose context and,
     in robust mode, whose sweep it keeps, instead of evaluating or
     sweeping that pair again. *)
  Incumbent.return_to_best inc;
  routine `L;
  (* Routine 3: joint refinement around the incumbent, restarting from
     it (slightly perturbed on both sides) after M stalled iterations. *)
  Incumbent.return_to_best inc;
  iterate ~iterations:cfg.Search_config.k_iters Refine (fun iteration ->
      let prev_h = Incumbent.current inc in
      pass `H;
      Incumbent.tell inc Trace.Find_h ~iteration ~detail:2 ~prev:prev_h;
      let prev_l = Incumbent.current inc in
      pass `L;
      (* Every move leaves a fresh solution, so the iteration moved
         off [prev_h] iff FindH or FindL moved. *)
      Incumbent.consider inc ~iteration ~prev:prev_h;
      Incumbent.tell inc Trace.Find_l ~iteration ~detail:2 ~prev:prev_l;
      if Incumbent.stalled inc then begin
        let prev = Incumbent.current inc in
        let best = Incumbent.best inc in
        let fraction = Search_config.g3 in
        let wh = Weights.perturb rng ~fraction best.Problem.wh in
        let wl = Weights.perturb rng ~fraction best.Problem.wl in
        Incumbent.restart inc ~wh ~wl;
        Incumbent.tell inc Trace.Diversify ~iteration ~detail:2 ~prev
      end);
  phase_done Refine ~iterations:cfg.Search_config.k_iters ~detail:2;
  {
    best = Incumbent.best inc;
    objective = Incumbent.objective inc;
    evaluations = Incumbent.evaluations inc;
    improvements = Incumbent.improvements inc;
    memo_hits = Incumbent.memo_hits inc;
    memo_misses = Incumbent.memo_misses inc;
    phase_objectives = List.rev !phase_objectives;
    stopped = !stopped;
  }
