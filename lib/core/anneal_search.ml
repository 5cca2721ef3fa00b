module Prng = Dtr_util.Prng
module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights

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

(* A run's own evaluations so far: full ones and probes. *)
type counts = { mutable fulls : int; mutable deltas : int }

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
   [cls]'s weights, one probe per proposal against [ctx] (which must
   be synchronized with [current]); accepted probes are committed.
   Every probe is counted in [counts].  Returns the accepted-move
   count.  With an enabled [trace], one [Anneal_step] event is
   recorded per Metropolis proposal ([detail] = phase ordinal, [value]
   = current temperature). *)
let anneal_phase ~trace ~detail ~counts rng cfg schedule problem ctx ~cls
    ~energy ~current ~best =
  let n_arcs = Dtr_graph.Graph.arc_count problem.Problem.graph in
  (* The incumbent's energy is cached and refreshed only on acceptance
     (it was already computed as the candidate's energy then). *)
  let e_cur = ref (energy (Problem.objective !current)) in
  let e0 = Float.max 1e-9 !e_cur in
  let t = ref (schedule.t0_ratio *. e0) in
  let t_min = !t *. schedule.t_min_ratio in
  let accepted = ref 0 in
  let step = ref 0 in
  while !t > t_min do
    for _ = 1 to schedule.moves_per_temp do
      incr step;
      let before = Problem.objective !current in
      let changes = propose rng cfg problem ctx ~cls ~n_arcs in
      counts.deltas <- counts.deltas + 1;
      let d = Problem.eval_delta problem ctx ~cls ~changes in
      let e_cand = energy (Problem.delta_objective d) in
      let delta = e_cand -. !e_cur in
      let accept =
        delta <= 0. || Prng.float rng 1.0 < exp (-.delta /. !t)
      in
      if accept then begin
        current := Problem.commit_delta problem ctx d;
        e_cur := e_cand;
        incr accepted;
        if Lexico.improves (Problem.objective !current) (Problem.objective !best)
        then best := !current
      end
      else Problem.abort_delta ctx d;
      if Trace.enabled trace then
        Trace.emit trace ~kind:Trace.Anneal_step ~iteration:!step ~detail
          ~accepted:accept
          ~before:(Trace.pair before)
          ~after:(Trace.pair (Problem.objective !current))
          ~best:(Trace.pair (Problem.objective !best))
          ~evaluations:(counts.fulls + counts.deltas) ~full:counts.fulls
          ~delta:counts.deltas ~value:!t ()
    done;
    t := !t *. schedule.cooling
  done;
  !accepted

let run ?(schedule = default_schedule) ?w0 ?(trace = Trace.disabled) rng cfg
    problem =
  Search_config.validate cfg;
  validate_schedule schedule;
  let counts = { fulls = 0; deltas = 0 } in
  let phase_done ~detail best =
    if Trace.enabled trace then begin
      let b = Trace.pair (Problem.objective best) in
      Trace.emit trace ~kind:Trace.Phase_done ~iteration:0 ~detail ~before:b
        ~after:b ~best:b ~evaluations:(counts.fulls + counts.deltas)
        ~full:counts.fulls ~delta:counts.deltas ()
    end
  in
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  let m = Dtr_graph.Graph.arc_count problem.Problem.graph in
  let wh0, wl0 =
    match w0 with Some w -> w | None -> (Array.make m mid, Array.make m mid)
  in
  (* Validate caller-supplied starting vectors up front: an
     out-of-range weight used to survive until a scan indexed past a
     value table. *)
  (match w0 with
  | None -> ()
  | Some (wh, wl) ->
      Weights.validate problem.Problem.graph wh;
      Weights.validate problem.Problem.graph wl);
  counts.fulls <- counts.fulls + 1;
  let start, ctx1 = Problem.eval_dtr_ctx problem ~wh:wh0 ~wl:wl0 in
  let current = ref start in
  let best = ref !current in
  (* Phase 1: anneal W_H against the primary cost, probing on the
     context the start's evaluation built. *)
  let acc1 =
    anneal_phase ~trace ~detail:0 ~counts rng cfg schedule problem ctx1
      ~cls:`H
      ~energy:(fun o -> o.Lexico.primary)
      ~current ~best
  in
  phase_done ~detail:0 !best;
  (* Fix the best W_H found, then anneal W_L against Φ_L. *)
  counts.fulls <- counts.fulls + 1;
  let handoff, ctx2 =
    Problem.eval_dtr_ctx problem ~wh:!best.Problem.wh ~wl:!current.Problem.wl
  in
  current := handoff;
  if Lexico.improves (Problem.objective !current) (Problem.objective !best)
  then best := !current;
  let acc2 =
    anneal_phase ~trace ~detail:1 ~counts rng cfg schedule problem ctx2
      ~cls:`L
      ~energy:(fun o -> o.Lexico.secondary)
      ~current ~best
  in
  phase_done ~detail:1 !best;
  {
    best = !best;
    objective = Problem.objective !best;
    evaluations = counts.fulls + counts.deltas;
    accepted = acc1 + acc2;
  }
