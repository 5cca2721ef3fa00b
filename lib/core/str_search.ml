module Prng = Dtr_util.Prng
module Dist = Dtr_util.Dist
module Lexico = Dtr_cost.Lexico
module Objective = Dtr_routing.Objective
module Weights = Dtr_routing.Weights
module Evaluate = Dtr_routing.Evaluate

type archive_point = { phi_h : float; phi_l : float; w : int array }

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  evaluations : int;
  improvements : int;
  memo_hits : int;
  memo_misses : int;
  stopped : bool;
  archive : archive_point list;
}

let default_iters cfg =
  (* Evaluation-budget parity with Algorithm 1 — and then doubled.
     Algorithm 1 spends (2N + K) passes of m evaluations each, while
     one single-weight-change iteration scans (max_weight - min_weight)
     candidate values; the extra factor of 2 over-provisions the STR
     baseline (it takes fewer, larger steps, so it needs more of them),
     which makes the reported STR/DTR gaps conservative. *)
  let dtr_evals =
    ((2 * cfg.Search_config.n_iters) + cfg.Search_config.k_iters)
    * Search_config.m
  in
  let scan = Weights.max_weight - Weights.min_weight in
  max 1 (2 * dtr_evals / scan)

(* Bounded Pareto archive over (phi_h, phi_l); dominated points are
   discarded, so it stays small in practice.  The size is tracked so
   an insert never walks the list just to count it, and an overflow
   evicts the worst-phi_l point with one fold instead of a sort. *)
let archive_max = 512

type archive = { pts : archive_point list; size : int }

let archive_empty = { pts = []; size = 0 }

(* [w] is a thunk: the weight vector is materialized only when the
   point actually enters the archive.  Dominance is decided from the
   (phi_h, phi_l) pair alone, so laziness cannot change the archive's
   contents — it only skips the O(m) copy for the (vast majority of)
   dominated candidates. *)
let archive_insert ar ~phi_h ~phi_l ~w =
  let dominated_by a = a.phi_h <= phi_h && a.phi_l <= phi_l in
  if List.exists dominated_by ar.pts then ar
  else begin
    let removed = ref 0 in
    let survivors =
      List.filter
        (fun a ->
          if phi_h <= a.phi_h && phi_l <= a.phi_l then begin
            incr removed;
            false
          end
          else true)
        ar.pts
    in
    let pts = { phi_h; phi_l; w = w () } :: survivors in
    let size = ar.size - !removed + 1 in
    if size > archive_max then begin
      (* Evict the first-in-list point of maximal phi_l — the same
         victim the previous stable descending sort dropped. *)
      let _, worst, _ =
        List.fold_left
          (fun (i, wi, wv) a ->
            if a.phi_l > wv then (i + 1, i, a.phi_l) else (i + 1, wi, wv))
          (0, -1, Float.neg_infinity)
          pts
      in
      { pts = List.filteri (fun i _ -> i <> worst) pts; size = size - 1 }
    end
    else { pts; size }
  end

(* Rank arcs straight from the live context's cost rows
   (Problem.ctx_arc_cmp_h) instead of materializing m Lexico records
   from the solution every iteration; the ordering is identical.  The
   ranking itself comes from the [Ranking] cache — repaired from the
   arcs whose cost entries moved since the last call, instead of a
   full O(m log m) re-sort — and [ht] is the heavy-tail table over all
   m arcs, hoisted out of the loop (it depends only on (tau, m)). *)
let pick_arc rng ~rcache ~ht ctx problem =
  let n = Dtr_graph.Graph.arc_count problem.Problem.graph in
  if Prng.bool rng then Prng.int rng n
  else begin
    let ranking =
      Ranking.arcs rcache ctx ~cmp:(Problem.ctx_arc_cmp_h problem ctx) n
    in
    ranking.(Dist.heavy_tail_sample ht rng - 1)
  end

let run ?w0 ?iters ?stop ?(trace = Trace.disabled) rng cfg problem =
  Search_config.validate cfg;
  let iters = match iters with Some i -> i | None -> default_iters cfg in
  if iters < 1 then invalid_arg "Str_search.run: iters must be positive";
  let track_archive = problem.Problem.model = Objective.Load in
  let archive = ref archive_empty in
  (* Under the load model the objective is ⟨Φ_H, Φ_L⟩ itself, so no
     evaluation rows are built. *)
  let observe sol =
    if track_archive then begin
      let o = Problem.objective sol in
      archive :=
        archive_insert !archive ~phi_h:o.Lexico.primary ~phi_l:o.Lexico.secondary
          ~w:(fun () -> sol.Problem.wh)
    end
  in
  Scan.with_engine ~jobs:cfg.Search_config.scan_jobs problem @@ fun scan ->
  let inc = Incumbent.create ~scan ~trace cfg problem (Incumbent.Str w0) in
  observe (Incumbent.current inc);
  let n_vals = Weights.max_weight - Weights.min_weight in
  let vals = Array.make n_vals 0 in
  (* Loop-invariant tables: the rank sampler depends only on (tau, m)
     and the ranking cache is repaired across commits — neither is
     rebuilt per iteration. *)
  let ht =
    Dist.heavy_tail ~tau:cfg.Search_config.tau
      ~n:(Dtr_graph.Graph.arc_count problem.Problem.graph)
  in
  let rcache = Ranking.create () in
  (* [stop] is polled only while an iteration remains, so once it fires
     the run skips at least one. *)
  let stopped = ref false in
  let should_stop () =
    (match stop with Some f when f () -> stopped := true | _ -> ());
    !stopped
  in
  let iteration = ref 0 in
  while !iteration < iters && not (!iteration > 0 && should_stop ()) do
    incr iteration;
    let iteration = !iteration in
    let arc = pick_arc rng ~rcache ~ht (Incumbent.ctx inc) problem in
    let prev = Incumbent.current inc in
    let w = prev.Problem.wh in
    (* The candidate values for this arc: every in-range weight except
       the current one, ascending — the same order the sequential scan
       visited them in. *)
    let pos = ref 0 in
    for v = Weights.min_weight to Weights.max_weight do
      if v <> w.(arc) then begin
        vals.(!pos) <- v;
        incr pos
      end
    done;
    let summaries =
      Incumbent.scan inc ~cls:`H
        ~changes_of:(fun i -> [ (arc, vals.(i)) ])
        n_vals
    in
    (if track_archive then
       Array.iteri
         (fun i (s : Scan.summary) ->
           archive :=
             archive_insert !archive ~phi_h:s.Scan.phi_h ~phi_l:s.Scan.phi_l
               ~w:(fun () ->
                 let w' = Array.copy w in
                 w'.(arc) <- vals.(i);
                 w'))
         summaries);
    (* Replay the sequential argmin fold over the summaries (first
       strict improvement wins — identical tie-break), then compare the
       winner with the current point. *)
    let best_i = ref (-1) in
    Array.iteri
      (fun i (s : Scan.summary) ->
        if !best_i < 0 then best_i := i
        else if
          Lexico.improves s.Scan.objective summaries.(!best_i).Scan.objective
        then best_i := i)
      summaries;
    (if !best_i >= 0 then
       let s = summaries.(!best_i) in
       if Lexico.improves s.Scan.objective (Problem.objective prev) then
         Incumbent.commit inc ~cls:`H ~changes:[ (arc, vals.(!best_i)) ]);
    Incumbent.consider inc ~iteration ~prev;
    Incumbent.tell inc Trace.Str_scan ~iteration ~detail:arc ~prev;
    if Incumbent.stalled inc then begin
      let prev = Incumbent.current inc in
      let w = prev.Problem.wh in
      let w' = Weights.perturb rng ~fraction:Search_config.g1 w in
      Incumbent.jump inc ~cls:`H ~changes:(Problem.weight_changes w w');
      observe (Incumbent.current inc);
      (* A perturbation can land on a point better than the best; offer
         it, uncounted, like DTR's hand-off. *)
      Incumbent.offer inc ~iteration;
      Incumbent.tell inc Trace.Diversify ~iteration ~detail:(-1) ~prev
    end
  done;
  {
    best = Incumbent.best inc;
    objective = Incumbent.objective inc;
    evaluations = Incumbent.evaluations inc;
    improvements = Incumbent.improvements inc;
    memo_hits = Incumbent.memo_hits inc;
    memo_misses = Incumbent.memo_misses inc;
    stopped = !stopped;
    archive =
      List.sort (fun a b -> Float.compare a.phi_h b.phi_h) (!archive).pts;
  }

let relaxed_best report ~epsilon =
  if epsilon < 0. then invalid_arg "Str_search.relaxed_best: negative epsilon";
  match report.archive with
  | [] -> None
  | archive ->
      let star_h =
        List.fold_left (fun acc a -> Float.min acc a.phi_h) Float.infinity
          archive
      in
      let bound = (1. +. epsilon) *. star_h in
      List.fold_left
        (fun acc a ->
          if a.phi_h <= bound then
            match acc with
            | None -> Some a
            | Some b -> if a.phi_l < b.phi_l then Some a else acc
          else acc)
        None archive
