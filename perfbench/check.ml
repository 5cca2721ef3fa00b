(* Correctness checks on every search a run makes.  A check is a named
   boolean; an episode fails when any of its checks is false. *)

module Problem = Dtr_core.Problem
module Search_config = Dtr_core.Search_config
module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_objective (a : Lexico.t) (b : Lexico.t) =
  same_float a.Lexico.primary b.Lexico.primary
  && same_float a.Lexico.secondary b.Lexico.secondary

(* The objective a search reports for a solution: the normal cost, or
   in robust mode J = normal + alpha * penalty priced by one sweep
   against a fresh context. *)
let reported_objective problem cfg sol =
  match cfg.Search_config.robust with
  | None -> Problem.objective sol
  | Some r ->
      let ctx = Problem.ctx_of_solution problem sol in
      (Problem.robust_price problem ctx ~alpha:r.Search_config.alpha
         ~top_k:r.Search_config.top_k ~normal:(Problem.objective sol))
        .Problem.rp_objective

let valid_weights g ws =
  try
    List.iter (Weights.validate g) ws;
    true
  with Invalid_argument _ -> false

(* Re-evaluate the returned weights from scratch and require the
   objective to match bitwise (the normal cost, and the robust J where
   the search reports it); require valid weights; require the result
   to be no worse than the start. *)
let episode (w : Workload.t) (inst : Workload.instance) (o : Searcher.outcome) =
  let problem = inst.Workload.problem in
  let cfg = w.Workload.cfg in
  let best = o.Searcher.best in
  let fresh = Problem.eval_dtr problem ~wh:best.Problem.wh ~wl:best.Problem.wl in
  let start_objective = reported_objective problem cfg inst.Workload.start in
  [
    ( "reevaluation_matches",
      same_objective (Problem.objective fresh) (Problem.objective best)
      && same_objective (reported_objective problem cfg fresh)
           o.Searcher.objective );
    ( "weights_valid",
      valid_weights problem.Problem.graph [ best.Problem.wh; best.Problem.wl ]
    );
    ( "no_worse_than_start",
      Lexico.compare o.Searcher.objective start_objective <= 0 );
  ]

(* The traced and untraced runs of one episode must agree exactly. *)
let traced_agrees (a : Searcher.outcome) (b : Searcher.outcome) =
  [
    ( "traced_matches_untraced",
      same_objective a.Searcher.objective b.Searcher.objective
      && a.Searcher.iterations = b.Searcher.iterations
      && a.Searcher.improvements = b.Searcher.improvements
      && a.Searcher.evaluations = b.Searcher.evaluations
      && a.Searcher.memo_hits = b.Searcher.memo_hits
      && a.Searcher.memo_misses = b.Searcher.memo_misses );
  ]

let passed checks = List.for_all snd checks
