module Prng = Dtr_util.Prng
module Vmemo = Dtr_util.Vmemo
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
}

(* Evaluate the neighborhood — one change list per candidate, against
   [sol]'s [cls] weights — through the scan engine (parallel over
   clones when configured, memo-short-circuited when a memo is given)
   against [ctx] (which must be synchronized with [sol]), then replay
   the sequential argmin fold over the returned summaries and commit
   the best strict improvement — identical comparison order, and
   identical results for every scan-jobs value. *)
let best_delta_of scan ?memo ?trace ctx sol ~cls ~candidates =
  let changes = Array.of_list candidates in
  let summaries =
    Scan.evaluate scan ctx ?memo ?trace ~cls
      ~changes_of:(fun i -> changes.(i))
      (Array.length changes)
  in
  let best_obj = ref (Problem.objective sol) in
  let best = ref (-1) in
  Array.iteri
    (fun i (s : Scan.summary) ->
      if Lexico.improves s.Scan.objective !best_obj then begin
        best_obj := s.Scan.objective;
        best := i
      end)
    summaries;
  if !best < 0 then sol else Scan.commit scan ctx ~cls ~changes:changes.(!best)

(* Candidates of a full value scan of one heavy-tail-ranked arc (the
   Fortz–Thorup move; used with probability scan_probability), as
   change lists against [w].  [ht] lets the full search hoist the
   sampler table out of its loops (deterministic in (tau, n), so
   hoisting is bitwise-neutral). *)
let scan_candidates ?ht rng cfg ~ranking w =
  let n = Array.length ranking in
  let ht =
    match ht with
    | Some t ->
        if Dtr_util.Dist.heavy_tail_size t <> n then
          invalid_arg "Dtr_search.scan_candidates: sampler size mismatch";
        t
    | None -> Dtr_util.Dist.heavy_tail ~tau:cfg.Search_config.tau ~n
  in
  let arc = ranking.(Dtr_util.Dist.heavy_tail_sample ht rng - 1) in
  let acc = ref [] in
  for v = Weights.min_weight to Weights.max_weight do
    if v <> w.(arc) then acc := Neighborhood.changes w [ (arc, v) ] :: !acc
  done;
  !acc

(* Candidates of the literal Algorithm-2 neighborhood: m two-arc moves
   (one weight up, one down) built from the candidate windows. *)
let move_candidates ?ht rng cfg ~ranking w =
  let a, b =
    Neighborhood.candidate_sets ?ht rng ~tau:cfg.Search_config.tau
      ~m:cfg.Search_config.m_neighbors ~ranking
  in
  List.map
    (fun move ->
      let step = Prng.int_incl rng 1 cfg.Search_config.max_step in
      Neighborhood.move_changes move ~step w)
    (Neighborhood.moves rng ~a ~b)

let neighbor_candidates ?ht_arc ?ht_cand rng cfg ~ranking w =
  if Prng.float rng 1.0 < cfg.Search_config.scan_probability then
    scan_candidates ?ht:ht_arc rng cfg ~ranking w
  else move_candidates ?ht:ht_cand rng cfg ~ranking w

(* Arc rankings come from the live context's cost rows
   (Problem.ctx_arc_cmp_h/_l: the paper's per-link lexicographic
   costs), without allocating m cost records per pass.  With
   [rcache], the ranking is a cached sorted permutation repaired
   incrementally from the arcs the last commits touched
   (Ranking.arcs — bitwise the full sort) instead of an O(m log m)
   re-sort per pass. *)
let ranking_of ?rcache ~cmp ctx n_arcs =
  match rcache with
  | Some r -> Ranking.arcs r ctx ~cmp n_arcs
  | None -> Neighborhood.rank_by_cost ~cmp n_arcs

let find_h_ctx scan ?memo ?trace ?rcache ?ht_arc ?ht_cand rng cfg problem ctx
    sol =
  let ranking =
    ranking_of ?rcache ~cmp:(Problem.ctx_arc_cmp_h problem ctx) ctx
      (Dtr_graph.Graph.arc_count problem.Problem.graph)
  in
  let candidates =
    neighbor_candidates ?ht_arc ?ht_cand rng cfg ~ranking sol.Problem.wh
  in
  best_delta_of scan ?memo ?trace ctx sol ~cls:`H ~candidates

let find_l_ctx scan ?memo ?trace ?rcache ?ht_arc ?ht_cand rng cfg problem ctx
    sol =
  let ranking =
    ranking_of ?rcache ~cmp:(Problem.ctx_arc_cmp_l problem ctx) ctx
      (Dtr_graph.Graph.arc_count problem.Problem.graph)
  in
  let candidates =
    neighbor_candidates ?ht_arc ?ht_cand rng cfg ~ranking sol.Problem.wl
  in
  best_delta_of scan ?memo ?trace ctx sol ~cls:`L ~candidates

(* One-shot wrappers for callers holding just a solution (the full
   search threads a long-lived engine and context through the passes
   instead).  Sequential and unmemoized: one pass has no revisits to
   exploit, and spinning a pool up per pass would cost more than the
   scan. *)
let find_h rng cfg problem sol =
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  find_h_ctx scan rng cfg problem (Problem.ctx_of_solution problem sol) sol

let find_l rng cfg problem sol =
  Scan.with_engine ~jobs:1 problem @@ fun scan ->
  find_l_ctx scan rng cfg problem (Problem.ctx_of_solution problem sol) sol

let default_w0 problem =
  let mid = (Weights.min_weight + Weights.max_weight) / 2 in
  let m = Dtr_graph.Graph.arc_count problem.Problem.graph in
  (Array.make m mid, Array.make m mid)

let run ?w0 ?stop ?on_progress ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  let probe_trace =
    if cfg.Search_config.trace_probes then
      Trace.sample cfg.Search_config.trace_sample trace
    else Trace.disabled
  in
  let improvements = ref 0 in
  let wh0, wl0 = match w0 with Some w -> w | None -> default_w0 problem in
  (* Caller-supplied starting points are validated here rather than
     trusted: an out-of-range weight used to survive until the value
     scan indexed past its table. *)
  (match w0 with
  | None -> ()
  | Some (wh, wl) ->
      Weights.validate problem.Problem.graph wh;
      Weights.validate problem.Problem.graph wl);
  (* Loop-invariant heavy-tail sampler tables, hoisted out of the
     FindH/FindL passes: one over all m arcs (value scans), one over
     the candidate-window support (two-arc moves).  Both depend only on
     (tau, n), so sharing them across iterations is bitwise-neutral. *)
  let n_arcs = Dtr_graph.Graph.arc_count problem.Problem.graph in
  let ht_arc = Dtr_util.Dist.heavy_tail ~tau:cfg.Search_config.tau ~n:n_arcs in
  let ht_cand =
    Dtr_util.Dist.heavy_tail ~tau:cfg.Search_config.tau
      ~n:(n_arcs - min cfg.Search_config.m_neighbors n_arcs + 1)
  in
  (* One ranking cache per cost ordering: FindH ranks by Φ_H rows,
     FindL by Φ_L rows, and each repairs against the same context's
     commit log independently. *)
  let rcache_h = Ranking.create () in
  let rcache_l = Ranking.create () in
  let stopped = ref false in
  let poll_stop () =
    match stop with
    | None -> ()
    | Some f -> if f () then stopped := true
  in
  Scan.with_engine ~jobs:cfg.Search_config.scan_jobs problem @@ fun scan ->
  (* Per-run memo shared by all three routines: FindH and FindL
     candidates key on the full (W_H, W_L) pair, so revisits across
     phases and diversification jumps hit too. *)
  let memo = Vmemo.create () in
  (* The run counts its own evaluations: full ones and its
     diversification deltas here, scan candidates in the engine. *)
  let fulls = ref 0 and deltas = ref 0 in
  let counts () =
    let delta = !deltas + Scan.evaluations scan in
    (!fulls + delta, !fulls, delta)
  in
  incr fulls;
  let start, ctx0 = Problem.eval_dtr_ctx problem ~wh:wh0 ~wl:wl0 in
  let current = ref start in
  (* Long-lived incremental context, kept synchronized with [current]:
     a full evaluation (the start, the routine-2 hand-off and the
     refinement restarts) hands over the context it built, and the
     refinement's return to [best] rebuilds one from the solution. *)
  let ctx = ref ctx0 in
  let best = ref !current in
  let robust = cfg.Search_config.robust in
  (* The robust best's objective J = normal + alpha * penalty; in
     normal mode it mirrors the best's normal objective, so the report
     and phase summaries can read it unconditionally. *)
  let best_j = ref (Problem.objective !best) in
  let stall = ref 0 in
  let notify phase iteration =
    match on_progress with
    | None -> ()
    | Some f ->
        f { phase; iteration; best_objective = Problem.objective !best }
  in
  let phase_objectives = ref [] in
  (* One iteration-level event, emitted after the acceptance decision;
     every field but the timestamp is a pure function of the
     trajectory (see Trace).  [detail] is the routine ordinal. *)
  let tell kind ~iteration ~detail ~before ~prev =
    if Trace.enabled trace then begin
      let e, f, d = counts () in
      Trace.emit trace ~kind ~iteration ~detail
        ~accepted:(not (prev == !current))
        ~before:(Trace.pair before)
        ~after:(Trace.pair (Problem.objective !current))
        ~best:(Trace.pair (Problem.objective !best))
        ~evaluations:e ~full:f ~delta:d ~memo_hits:(Vmemo.hits memo)
        ~memo_misses:(Vmemo.misses memo) ()
    end
  in
  let phase_done ~iteration ~detail =
    if Trace.enabled trace then begin
      let e, f, d = counts () in
      let b = Trace.pair (Problem.objective !best) in
      Trace.emit trace ~kind:Trace.Phase_done ~iteration ~detail ~before:b
        ~after:b ~best:b ~evaluations:e ~full:f ~delta:d
        ~memo_hits:(Vmemo.hits memo) ~memo_misses:(Vmemo.misses memo) ()
    end
  in
  let tell_sweep ~iteration ~detail ~normal ~(rp : Problem.robust_price)
      ~accepted =
    if Trace.enabled trace then begin
      let e, f, d = counts () in
      Trace.emit trace ~kind:Trace.Robust_sweep ~iteration ~detail
        ~accepted ~before:(Trace.pair normal)
        ~after:(Trace.pair rp.Problem.rp_objective) ~best:(Trace.pair !best_j)
        ~evaluations:e ~full:f ~delta:d ~memo_hits:(Vmemo.hits memo)
        ~memo_misses:(Vmemo.misses memo)
        ~value:rp.Problem.rp_penalty.Lexico.primary ()
    end
  in
  (* Robust-mode incumbent update, shared by all three routines.  A
     candidate is swept only when its normal cost beats the robust
     best: J >= normal componentwise, so nothing better can hide
     behind a worse normal cost, and sweeps grow rarer as the robust
     best tightens.  [moved] skips candidates the pass left in place;
     [count] distinguishes loop sites (improvement/stall bookkeeping)
     from the inter-routine reconciliation, which keeps none. *)
  let consider_best ~iteration ~detail ~moved ~count =
    let on_improve () =
      if count then begin
        incr improvements;
        stall := 0
      end
    in
    let on_reject () = if count then incr stall in
    match robust with
    | None ->
        if Lexico.improves (Problem.objective !current) (Problem.objective !best)
        then begin
          best := !current;
          best_j := Problem.objective !best;
          on_improve ()
        end
        else on_reject ()
    | Some r ->
        let normal = Problem.objective !current in
        if moved && Lexico.improves normal !best_j then begin
          let rp =
            Problem.robust_price problem !ctx ~alpha:r.Search_config.alpha
              ~top_k:r.Search_config.top_k ~normal
          in
          let improved = Lexico.improves rp.Problem.rp_objective !best_j in
          if improved then begin
            best := !current;
            best_j := rp.Problem.rp_objective
          end;
          tell_sweep ~iteration ~detail ~normal ~rp ~accepted:improved;
          if improved then on_improve () else on_reject ()
        end
        else on_reject ()
  in
  (* Price the starting point so the robust best is comparable from
     iteration one. *)
  (match robust with
  | None -> ()
  | Some r ->
      let normal = Problem.objective !current in
      let rp =
        Problem.robust_price problem !ctx ~alpha:r.Search_config.alpha
          ~top_k:r.Search_config.top_k ~normal
      in
      best_j := rp.Problem.rp_objective;
      tell_sweep ~iteration:0 ~detail:0 ~normal ~rp ~accepted:true);

  (* Routine 1: optimize W_H with W_L frozen.  [stop] is polled after
     every completed iteration (so at least one always runs); once it
     fires, the remaining iterations of every routine are skipped while
     the inter-routine reconciliations — and the report — still
     execute. *)
  stall := 0;
  for iteration = 1 to cfg.Search_config.n_iters do
    if not !stopped then begin
      let before = Problem.objective !current in
      let prev = !current in
      current :=
        find_h_ctx scan ~memo ~trace:probe_trace ~rcache:rcache_h ~ht_arc
          ~ht_cand rng cfg problem !ctx !current;
      consider_best ~iteration ~detail:0 ~moved:(not (prev == !current))
        ~count:true;
      tell Trace.Find_h ~iteration ~detail:0 ~before ~prev;
      if !stall >= cfg.Search_config.diversify_after then begin
        let before = Problem.objective !current in
        let wh =
          Weights.perturb rng ~fraction:cfg.Search_config.g1 !current.Problem.wh
        in
        let changes = Problem.weight_changes !current.Problem.wh wh in
        incr deltas;
        let d = Problem.eval_delta problem !ctx ~cls:`H ~changes in
        let prev = !current in
        current := Problem.commit_delta problem !ctx d;
        stall := 0;
        tell Trace.Diversify ~iteration ~detail:0 ~before ~prev
      end;
      notify Optimize_h iteration;
      poll_stop ()
    end
  done;
  phase_objectives := (Optimize_h, !best_j) :: !phase_objectives;
  phase_done ~iteration:cfg.Search_config.n_iters ~detail:0;

  (* Routine 2: freeze the best W_H, optimize W_L. *)
  incr fulls;
  (let sol, c =
     Problem.eval_dtr_ctx problem ~wh:!best.Problem.wh ~wl:!current.Problem.wl
   in
   current := sol;
   ctx := c);
  consider_best ~iteration:0 ~detail:1 ~moved:true ~count:false;
  stall := 0;
  for iteration = 1 to cfg.Search_config.n_iters do
    if not !stopped then begin
      let before = Problem.objective !current in
      let prev = !current in
      current :=
        find_l_ctx scan ~memo ~trace:probe_trace ~rcache:rcache_l ~ht_arc
          ~ht_cand rng cfg problem !ctx !current;
      consider_best ~iteration ~detail:1 ~moved:(not (prev == !current))
        ~count:true;
      tell Trace.Find_l ~iteration ~detail:1 ~before ~prev;
      if !stall >= cfg.Search_config.diversify_after then begin
        let before = Problem.objective !current in
        let wl =
          Weights.perturb rng ~fraction:cfg.Search_config.g2 !current.Problem.wl
        in
        let changes = Problem.weight_changes !current.Problem.wl wl in
        incr deltas;
        let d = Problem.eval_delta problem !ctx ~cls:`L ~changes in
        let prev = !current in
        current := Problem.commit_delta problem !ctx d;
        stall := 0;
        tell Trace.Diversify ~iteration ~detail:1 ~before ~prev
      end;
      notify Optimize_l iteration;
      poll_stop ()
    end
  done;
  phase_objectives := (Optimize_l, !best_j) :: !phase_objectives;
  phase_done ~iteration:cfg.Search_config.n_iters ~detail:1;

  (* Routine 3: joint refinement around the incumbent. *)
  current := !best;
  ctx := Problem.ctx_of_solution problem !current;
  stall := 0;
  for iteration = 1 to cfg.Search_config.k_iters do
    if not !stopped then begin
      let before_h = Problem.objective !current in
      let prev_h = !current in
      current :=
        find_h_ctx scan ~memo ~trace:probe_trace ~rcache:rcache_h ~ht_arc
          ~ht_cand rng cfg problem !ctx !current;
      tell Trace.Find_h ~iteration ~detail:2 ~before:before_h ~prev:prev_h;
      let before_l = Problem.objective !current in
      let prev_l = !current in
      current :=
        find_l_ctx scan ~memo ~trace:probe_trace ~rcache:rcache_l ~ht_arc
          ~ht_cand rng cfg problem !ctx !current;
      consider_best ~iteration ~detail:2
        ~moved:(not (prev_h == !current) || not (prev_l == !current))
        ~count:true;
      tell Trace.Find_l ~iteration ~detail:2 ~before:before_l ~prev:prev_l;
      if !stall >= cfg.Search_config.diversify_after then begin
        (* Restart from the incumbent, slightly perturbed on both sides. *)
        let before = Problem.objective !current in
        let wh =
          Weights.perturb rng ~fraction:cfg.Search_config.g3 !best.Problem.wh
        in
        let wl =
          Weights.perturb rng ~fraction:cfg.Search_config.g3 !best.Problem.wl
        in
        let prev = !current in
        incr fulls;
        let sol, c = Problem.eval_dtr_ctx problem ~wh ~wl in
        current := sol;
        ctx := c;
        stall := 0;
        tell Trace.Diversify ~iteration ~detail:2 ~before ~prev
      end;
      notify Refine iteration;
      poll_stop ()
    end
  done;
  phase_objectives := (Refine, !best_j) :: !phase_objectives;
  phase_done ~iteration:cfg.Search_config.k_iters ~detail:2;

  let evaluations, _, _ = counts () in
  {
    best = !best;
    objective = !best_j;
    evaluations;
    improvements = !improvements;
    memo_hits = Vmemo.hits memo;
    memo_misses = Vmemo.misses memo;
    phase_objectives = List.rev !phase_objectives;
  }
