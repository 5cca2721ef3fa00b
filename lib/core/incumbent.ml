module Vmemo = Dtr_util.Vmemo
module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights
module Metrics = Dtr_util.Metrics

let m_restores =
  Metrics.counter
    ~help:"Contexts synced from a run's kept best context (hand-offs and returns to the best)."
    "dtr_eval_restores_total"

type t = {
  problem : Problem.t;
  robust : Search_config.robust option;
  diversify_after : int;
  trace : Trace.t;
  probe_trace : Trace.t;
  scan_engine : Scan.t option;
  memo : Scan.summary Vmemo.t;
      (* per-run memo of evaluated settings; scans consult it in
         candidate order, so hits and misses are jobs-invariant *)
  mutable current : Problem.solution;
  mutable ctx : Problem.ctx;
      (* kept in step with [current]: a full evaluation hands over the
         context it built, and a return to [best] syncs [best_ctx] into
         it *)
  best_ctx : Problem.ctx;
      (* a clone of [ctx] kept in step with [best]: synced from [ctx] at
         every new best, so a return to the best is blits only *)
  mutable best : Problem.solution;
  mutable best_j : Lexico.t;
      (* J = normal + alpha * penalty in robust mode; else the best's
         normal objective, so reports read it unconditionally *)
  mutable prior : Problem.robust_price option;
      (* robust mode: the run's last sweep.  Its cut links, found by
         reachability at the start, do not depend on the weights, so
         every later sweep prices primary-first with them; its class-0
         pass is reused while W_H has not moved. *)
  mutable best_prior : Problem.robust_price option;
      (* robust mode: the best's own sweep, kept beside [best_ctx]; a
         return to the best makes it the run's prior again *)
  mutable improvements : int;
  mutable stall : int;
  mutable fulls : int;
  mutable deltas : int;
      (* full evaluations and probes of the run; the engine counts the
         scan candidates *)
}

type start =
  | Str of int array option
  | Dtr of (int array * int array) option

let current t = t.current
let ctx t = t.ctx
let best t = t.best
let objective t = t.best_j
let improvements t = t.improvements
let stalled t = t.stall >= t.diversify_after
let memo_hits t = Vmemo.hits t.memo
let memo_misses t = Vmemo.misses t.memo

let counts t =
  let scanned =
    match t.scan_engine with None -> 0 | Some s -> Scan.evaluations s
  in
  let delta = t.deltas + scanned in
  (t.fulls + delta, t.fulls, delta)

let evaluations t =
  let e, _, _ = counts t in
  e

(* Every event carries the run's counts at emission. *)
let emit ?accepted ?value t kind ~iteration ~detail ~before ~after ~best =
  let e, f, d = counts t in
  Trace.emit t.trace ~kind ~iteration ~detail ?accepted ~before ~after ~best
    ~evaluations:e ~full:f ~delta:d ~memo_hits:(memo_hits t)
    ~memo_misses:(memo_misses t) ?value ()

let tell ?value t kind ~iteration ~detail ~prev =
  if Trace.enabled t.trace then
    emit ?value t kind ~iteration ~detail ~accepted:(not (prev == t.current))
      ~before:(Trace.pair (Problem.objective prev))
      ~after:(Trace.pair (Problem.objective t.current))
      ~best:(Trace.pair (Problem.objective t.best))

let phase_done t ~iteration ~detail =
  if Trace.enabled t.trace then begin
    let b = Trace.pair (Problem.objective t.best) in
    emit t Trace.Phase_done ~iteration ~detail ~before:b ~after:b ~best:b
  end

(* The current point becomes the best, and the kept context follows. *)
let new_best t j =
  t.best <- t.current;
  t.best_j <- j;
  Problem.sync_ctx ~src:t.ctx ~dst:t.best_ctx

(* Sweep the current point; it becomes the best when its J improves
   on the best's (always, for the start point, which has no prior). *)
let sweep t (r : Search_config.robust) ~iteration ~force =
  let normal = Problem.objective t.current in
  let alpha = r.Search_config.alpha and top_k = r.Search_config.top_k in
  let rp =
    match t.prior with
    | None -> Problem.robust_start t.problem t.ctx ~alpha ~top_k ~normal
    | Some prior -> Problem.robust_price ~prior t.problem t.ctx ~alpha ~top_k ~normal
  in
  t.prior <- Some rp;
  let improved = force || Lexico.improves rp.Problem.rp_objective t.best_j in
  if improved then begin
    new_best t rp.Problem.rp_objective;
    t.best_prior <- t.prior
  end;
  if Trace.enabled t.trace then
    emit t Trace.Robust_sweep ~iteration ~detail:rp.Problem.rp_infinite
      ~accepted:improved ~before:(Trace.pair normal)
      ~after:(Trace.pair rp.Problem.rp_objective)
      ~best:(Trace.pair t.best_j)
      ~value:rp.Problem.rp_penalty.Lexico.primary;
  improved

(* The acceptance rule: whether the current point became the best. *)
let improve t ~iteration ~moved =
  match t.robust with
  | None ->
      let improved =
        Lexico.improves (Problem.objective t.current) t.best_j
      in
      if improved then new_best t (Problem.objective t.current);
      improved
  | Some r ->
      moved
      && Lexico.improves (Problem.objective t.current) t.best_j
      && sweep t r ~iteration ~force:false

let consider t ~iteration ~prev =
  if improve t ~iteration ~moved:(not (prev == t.current)) then begin
    t.improvements <- t.improvements + 1;
    t.stall <- 0
  end
  else t.stall <- t.stall + 1

let offer t ~iteration = ignore (improve t ~iteration ~moved:true : bool)

let create ?scan ?(trace = Trace.disabled) cfg problem start =
  let g = problem.Problem.graph in
  let mid () = Weights.uniform g Weights.mid_weight in
  let current, ctx =
    match start with
    | Str (Some w) ->
        Weights.validate g w;
        Problem.eval_str_ctx problem ~w
    | Str None -> Problem.eval_str_ctx problem ~w:(mid ())
    | Dtr (Some (wh, wl)) ->
        Weights.validate g wh;
        Weights.validate g wl;
        Problem.eval_dtr_ctx problem ~wh ~wl
    | Dtr None -> Problem.eval_dtr_ctx problem ~wh:(mid ()) ~wl:(mid ())
  in
  let t =
    {
      problem;
      robust = cfg.Search_config.robust;
      diversify_after = cfg.Search_config.diversify_after;
      trace;
      probe_trace =
        (if cfg.Search_config.trace_probes then
           Trace.sample cfg.Search_config.trace_sample trace
         else Trace.disabled);
      scan_engine = scan;
      memo = Vmemo.create ();
      current;
      ctx;
      best_ctx = Problem.clone_ctx problem ctx;
      best = current;
      best_j = Problem.objective current;
      prior = None;
      best_prior = None;
      improvements = 0;
      stall = 0;
      fulls = 1;
      deltas = 0;
    }
  in
  (* Price the start so the robust best is comparable from iteration
     one. *)
  (match t.robust with
  | None -> ()
  | Some r -> ignore (sweep t r ~iteration:0 ~force:true : bool));
  t

let scan t ~cls ~changes_of n =
  match t.scan_engine with
  | None -> invalid_arg "Incumbent.scan: the run has no scan engine"
  | Some s ->
      Scan.evaluate s t.ctx ~memo:t.memo ~trace:t.probe_trace ~cls ~changes_of
        n

let commit t ~cls ~changes =
  match t.scan_engine with
  | None -> invalid_arg "Incumbent.commit: the run has no scan engine"
  | Some s -> t.current <- Scan.commit s t.ctx ~cls ~changes

let probe t ~cls ~changes =
  t.deltas <- t.deltas + 1;
  Problem.eval_delta t.problem t.ctx ~cls ~changes

let accept t d = t.current <- Problem.commit_delta t.problem t.ctx d

let jump t ~cls ~changes =
  accept t (probe t ~cls ~changes);
  t.stall <- 0

let restart t ~wh ~wl =
  t.fulls <- t.fulls + 1;
  let sol, ctx = Problem.eval_dtr_ctx t.problem ~wh ~wl in
  t.current <- sol;
  t.ctx <- ctx;
  t.stall <- 0

let return_to_best t =
  Metrics.incr_counter m_restores;
  Problem.sync_ctx ~src:t.best_ctx ~dst:t.ctx;
  t.current <- t.best;
  t.prior <- t.best_prior;
  t.stall <- 0
