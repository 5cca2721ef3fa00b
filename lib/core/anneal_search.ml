module Prng = Dtr_util.Prng
module Lexico = Dtr_cost.Lexico

type schedule = {
  t0_ratio : float;
  cooling : float;
  moves_per_temp : int;
  t_min_ratio : float;
}

let default_schedule =
  { t0_ratio = 0.05; cooling = 0.95; moves_per_temp = 50; t_min_ratio = 1e-4 }

let validate_schedule s =
  if s.t0_ratio <= 0. then invalid_arg "Anneal_search: t0_ratio must be positive";
  if s.cooling <= 0. || s.cooling >= 1. then
    invalid_arg "Anneal_search: cooling must be in (0, 1)";
  if s.moves_per_temp < 1 then
    invalid_arg "Anneal_search: moves_per_temp must be positive";
  if s.t_min_ratio <= 0. || s.t_min_ratio >= 1. then
    invalid_arg "Anneal_search: t_min_ratio must be in (0, 1)"

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  evaluations : int;
  accepted : int;
}

(* Propose one two-arc move on the context's current [cls] weights,
   ranked by the live cost rows (Problem.ctx_arc_cmp_h/_l: the
   paper's per-link lexicographic costs), as a change list. *)
let propose rng cfg problem ctx ~cls ~n_arcs =
  let cmp =
    match cls with
    | `H -> Problem.ctx_arc_cmp_h problem ctx
    | `L -> Problem.ctx_arc_cmp_l problem ctx
  in
  let ranking = Neighborhood.rank_by_cost ~cmp n_arcs in
  let a, b =
    Neighborhood.candidate_sets rng ~tau:cfg.Search_config.tau ~m:1 ~ranking
  in
  match Neighborhood.moves rng ~a ~b with
  | [] -> []
  | move :: _ ->
      let step = Prng.int_incl rng 1 cfg.Search_config.max_step in
      Neighborhood.move_changes move ~step (Problem.ctx_weights_view ctx cls)

(* One annealing phase: minimize [energy] of the objective by moving
   [cls]'s weights, one counted probe per proposal; accepted probes
   move the current point and are offered to the best.  Returns the
   accepted-move count.  Each proposal is one [Anneal_step] event
   ([detail] = phase ordinal, [value] = current temperature). *)
let anneal_phase inc ~detail rng cfg schedule problem ~cls ~energy =
  let n_arcs = Dtr_graph.Graph.arc_count problem.Problem.graph in
  (* The current point's energy is cached and refreshed only on
     acceptance (it was already computed as the candidate's energy
     then). *)
  let e_cur = ref (energy (Problem.objective (Incumbent.current inc))) in
  let e0 = Float.max 1e-9 !e_cur in
  let t = ref (schedule.t0_ratio *. e0) in
  let t_min = !t *. schedule.t_min_ratio in
  let accepted = ref 0 in
  let step = ref 0 in
  while !t > t_min do
    for _ = 1 to schedule.moves_per_temp do
      incr step;
      let prev = Incumbent.current inc in
      let changes = propose rng cfg problem (Incumbent.ctx inc) ~cls ~n_arcs in
      let d = Incumbent.probe inc ~cls ~changes in
      let e_cand = energy (Problem.delta_objective d) in
      let delta = e_cand -. !e_cur in
      if delta <= 0. || Prng.float rng 1.0 < exp (-.delta /. !t) then begin
        Incumbent.accept inc d;
        e_cur := e_cand;
        incr accepted;
        Incumbent.offer inc ~iteration:!step
      end;
      Incumbent.tell inc Trace.Anneal_step ~iteration:!step ~detail ~prev
        ~value:!t
    done;
    t := !t *. schedule.cooling
  done;
  !accepted

let run ?(schedule = default_schedule) ?w0 ?(trace = Trace.disabled) rng cfg
    problem =
  Search_config.validate cfg;
  validate_schedule schedule;
  (* Annealing is sequential and anneals the normal objective: no scan
     engine, and no failure sweeps even in robust mode. *)
  let inc =
    Incumbent.create ~trace
      { cfg with Search_config.robust = None }
      problem (Incumbent.Dtr w0)
  in
  (* Phase 1: anneal W_H against the primary cost, probing on the
     context the start's evaluation built. *)
  let acc1 =
    anneal_phase inc ~detail:0 rng cfg schedule problem ~cls:`H
      ~energy:(fun o -> o.Lexico.primary)
  in
  Incumbent.phase_done inc ~iteration:0 ~detail:0;
  (* Fix the best W_H found, then anneal W_L against Φ_L.  Phase 1
     never moves W_L, so (best W_H, current W_L) is the best's own
     weight pair: return to the best, whose context the run keeps. *)
  Incumbent.return_to_best inc;
  let acc2 =
    anneal_phase inc ~detail:1 rng cfg schedule problem ~cls:`L
      ~energy:(fun o -> o.Lexico.secondary)
  in
  Incumbent.phase_done inc ~iteration:0 ~detail:1;
  {
    best = Incumbent.best inc;
    objective = Incumbent.objective inc;
    evaluations = Incumbent.evaluations inc;
    accepted = acc1 + acc2;
  }
