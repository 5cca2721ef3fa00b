module Prng = Dtr_util.Prng
module Pool = Dtr_util.Pool
module Lexico = Dtr_cost.Lexico
module Weights = Dtr_routing.Weights

type algo = Str | Dtr | Anneal

type restart = {
  index : int;
  objective : Lexico.t;
  solution : Problem.solution;
}

type report = {
  best : Problem.solution;
  objective : Lexico.t;
  best_index : int;
  restarts : restart array;
  evaluations : int;
}

let run ?pool ?(jobs = 1) ?(trace = Trace.disabled) ~restarts ~algo rng cfg
    problem =
  if restarts < 1 then invalid_arg "Multistart.run: restarts must be >= 1";
  Search_config.validate cfg;
  (* All per-restart streams are split off the master before dispatch,
     in restart order: the streams are a function of the master seed
     alone, never of worker scheduling. *)
  let rngs = Array.make restarts rng in
  for i = 0 to restarts - 1 do
    rngs.(i) <- Prng.split rng
  done;
  (* Each restart records into its own private ring on whichever domain
     runs it; the rings are replayed into [trace] in restart order
     below, so the merged trace never depends on worker scheduling. *)
  let rings =
    Array.init restarts (fun _ ->
        if Trace.enabled trace then Trace.ring () else Trace.disabled)
  in
  (* A restart returns its result and its search's evaluation count.
     Its objective is the one its search reports: J in robust mode. *)
  let run_one index =
    let rng = rngs.(index) in
    let trace = rings.(index) in
    (* Restart 0 starts from the searches' mid-range default, every
       other restart from weights drawn from its own stream. *)
    let start draw = if index = 0 then None else Some (draw ()) in
    let random () = Weights.random rng problem.Problem.graph in
    let random_pair () =
      let wh = random () in
      let wl = random () in
      (wh, wl)
    in
    let solution, objective, evaluations =
      match algo with
      | Str ->
          let r = Str_search.run ?w0:(start random) ~trace rng cfg problem in
          (r.Str_search.best, r.Str_search.objective, r.Str_search.evaluations)
      | Dtr ->
          let w0 = start random_pair in
          let r = Dtr_search.run ?w0 ~trace rng cfg problem in
          (r.Dtr_search.best, r.Dtr_search.objective, r.Dtr_search.evaluations)
      | Anneal ->
          let w0 = start random_pair in
          let r = Anneal_search.run ?w0 ~trace rng cfg problem in
          ( r.Anneal_search.best,
            r.Anneal_search.objective,
            r.Anneal_search.evaluations )
    in
    ({ index; objective; solution }, evaluations)
  in
  let outcomes =
    match pool with
    | Some p -> Pool.map p restarts ~f:run_one
    | None -> Pool.run ~jobs restarts ~f:run_one
  in
  let restart_results = Array.map fst outcomes in
  (if Trace.enabled trace then
     let best_obj = ref restart_results.(0).objective in
     Array.iteri
       (fun i (r : restart) ->
         Trace.replay rings.(i) ~into:trace ~restart:i;
         let improved = i = 0 || Lexico.compare r.objective !best_obj < 0 in
         if improved then best_obj := r.objective;
         Trace.emit trace ~kind:Trace.Restart_done ~restart:i ~iteration:0
           ~detail:i ~accepted:improved
           ~after:(Trace.pair r.objective)
           ~best:(Trace.pair !best_obj) ())
       restart_results);
  (* Exact comparison (no tolerance): the winner must be a pure
     function of the restart results; ties go to the lower index
     because the fold scans in index order and only replaces on a
     strict improvement. *)
  let best =
    Array.fold_left
      (fun (acc : restart) (r : restart) ->
        if Lexico.compare r.objective acc.objective < 0 then r else acc)
      restart_results.(0) restart_results
  in
  {
    best = best.solution;
    objective = best.objective;
    best_index = best.index;
    restarts = restart_results;
    evaluations = Array.fold_left (fun acc (_, e) -> acc + e) 0 outcomes;
  }
