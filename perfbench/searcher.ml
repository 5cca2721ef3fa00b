(* One capped search of a workload, timed from outside through the
   public progress hook.

   [search_s] is the wall time of the [Dtr_search.run] call.  [ttq_s] is the wall time from the same start until the
   best-so-far objective reported by [on_progress] enters — and stays
   within — 1 % of the run's final best-so-far objective on both
   lexicographic components (a component whose final value is 0 must
   reach 0). *)

module Problem = Dtr_core.Problem
module Dtr_search = Dtr_core.Dtr_search
module Trace = Dtr_core.Trace
module Lexico = Dtr_cost.Lexico
module Prng = Dtr_util.Prng

type outcome = {
  objective : Lexico.t;  (** report objective (the robust J when robust) *)
  best : Problem.solution;
  iterations : int;  (** [on_progress] calls *)
  improvements : int;
  evaluations : int;
  memo_hits : int;
  memo_misses : int;
  search_s : float;
  ttq_s : float;
}

let ttq_margin = 0.01

let close_to ~final x =
  if final = 0. then x = 0.
  else Float.abs (x -. final) <= ttq_margin *. Float.abs final

(* Earliest progress time after which the best-so-far never leaves the
   margin around its final value. *)
let time_to_quality times bests n =
  if n = 0 then 0.
  else begin
    let final = bests.(n - 1) in
    let ok (b : Lexico.t) =
      close_to ~final:final.Lexico.primary b.Lexico.primary
      && close_to ~final:final.Lexico.secondary b.Lexico.secondary
    in
    let i = ref (n - 1) in
    while !i > 0 && ok bests.(!i - 1) do
      decr i
    done;
    times.(!i)
  end

let run ?(trace = Trace.disabled) (w : Workload.t) (inst : Workload.instance) =
  let cfg =
    if Trace.enabled trace then
      { w.Workload.cfg with Dtr_core.Search_config.trace_probes = false }
    else w.Workload.cfg
  in
  let cap =
    (2 * cfg.Dtr_core.Search_config.n_iters) + cfg.Dtr_core.Search_config.k_iters
  in
  let times = Array.make cap 0. and bests = Array.make cap Lexico.zero in
  let n = ref 0 in
  let rng = Prng.create inst.Workload.search_seed in
  let t0 = Unix.gettimeofday () in
  let observe best =
    if !n < cap then begin
      times.(!n) <- Unix.gettimeofday () -. t0;
      bests.(!n) <- best;
      incr n
    end
  in
  let problem = inst.Workload.problem in
  let r =
    Dtr_search.run ~w0:inst.Workload.w0
      ~on_progress:(fun p -> observe p.Dtr_search.best_objective)
      ~trace rng cfg problem
  in
  {
    objective = r.Dtr_search.objective;
    best = r.Dtr_search.best;
    iterations = !n;
    improvements = r.Dtr_search.improvements;
    evaluations = r.Dtr_search.evaluations;
    memo_hits = r.Dtr_search.memo_hits;
    memo_misses = r.Dtr_search.memo_misses;
    search_s = Unix.gettimeofday () -. t0;
    ttq_s = time_to_quality times bests !n;
  }
