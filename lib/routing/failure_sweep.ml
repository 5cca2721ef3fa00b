module Graph = Dtr_graph.Graph
module Lexico = Dtr_cost.Lexico
module Pool = Dtr_util.Pool
module Metrics = Dtr_util.Metrics

let m_sweeps =
  Metrics.counter ~help:"Single-link failure sweeps."
    "dtr_failure_sweeps_total"

let m_evals =
  Metrics.counter ~help:"Link failures priced across all sweeps."
    "dtr_failure_evals_total"

let m_infinite =
  Metrics.counter
    ~help:"Link failures priced as infinite (severed positive demand)."
    "dtr_failure_infinite_total"

type outcome = { cost : Lexico.t; unreachable_pairs : int }

let is_finite o = o.unreachable_pairs = 0

let price ~model ~th ctx f =
  let unreachable_pairs = Eval_ctx.failure_unreachable f in
  if unreachable_pairs > 0 then begin
    Metrics.incr_counter m_infinite;
    { cost = Lexico.infinity; unreachable_pairs }
  end
  else begin
    let phi = Eval_ctx.failure_phi f in
    let cost =
      match model with
      | Objective.Load -> Lexico.make ~primary:phi.(0) ~secondary:phi.(1)
      | Objective.Sla params ->
          (* Λ straight from the failure's arena views, in the
             context's own SLA scratch.  Failed arcs keep a (cheap,
             unread) delay entry that no surviving DAG walks. *)
          let lambda =
            Evaluate.sla_lambda (Eval_ctx.sla_scratch ctx) params
              (Eval_ctx.graph ctx) ~th
              ~dags_h:(Eval_ctx.failure_dags ctx f 0)
              ~phi_h_per_arc:(Eval_ctx.failure_phi_row f 0)
          in
          Lexico.make ~primary:lambda ~secondary:phi.(1)
    in
    { cost; unreachable_pairs = 0 }
  end

let eval_link ~model ~th ~links ctx i =
  Metrics.incr_counter m_evals;
  let a, b = links.(i) in
  let arcs = if a = b then [ a ] else [ a; b ] in
  price ~model ~th ctx (Eval_ctx.fail_probe ctx ~arcs)

let sweep ?pool ?(model = Objective.Load) ~th ctx =
  if Eval_ctx.class_count ctx <> 2 then
    invalid_arg "Failure_sweep.sweep: need a 2-class context";
  Metrics.incr_counter m_sweeps;
  let links = Graph.undirected_link_pairs (Eval_ctx.graph ctx) in
  let k = Array.length links in
  match pool with
  | Some p when Pool.jobs p > 1 ->
      (* Contiguous chunks, one clone per task: a failure probe reads
         the shared rows and writes only its own context's SPF
         workspace and probe arena, so clones make concurrent probes
         race-free; results are reassembled in link order, identical
         to the sequential sweep. *)
      let jobs = Pool.jobs p in
      let chunks =
        Pool.map p jobs ~f:(fun j ->
            let lo = j * k / jobs and hi = (j + 1) * k / jobs in
            let c = if hi - lo > 0 then Eval_ctx.clone ctx else ctx in
            let out =
              Array.make (hi - lo) { cost = Lexico.zero; unreachable_pairs = 0 }
            in
            for i = 0 to hi - lo - 1 do
              out.(i) <- eval_link ~model ~th ~links c (lo + i)
            done;
            out)
      in
      Array.concat (Array.to_list chunks)
  | _ ->
      (* Explicit ascending loop: Array.init's order is unspecified. *)
      let out = Array.make k { cost = Lexico.zero; unreachable_pairs = 0 } in
      for i = 0 to k - 1 do
        out.(i) <- eval_link ~model ~th ~links ctx i
      done;
      out

(* ------------------------------------------------------------------ *)
(* Robust penalty: aggregate a sweep into one Lexico term. *)

let scale f (l : Lexico.t) =
  Lexico.make ~primary:(f *. l.Lexico.primary)
    ~secondary:(f *. l.Lexico.secondary)

(* Mean of the k worst finite outcomes.  Infinite (disconnecting)
   outcomes are excluded: single-link reachability is weight-
   independent, so they price every weight setting identically and
   would only drown the finite signal the search can actually move. *)
let penalty ?(top_k = 1) outcomes =
  if top_k < 1 then invalid_arg "Failure_sweep.penalty: top_k must be >= 1";
  let finite =
    Array.of_list
      (List.filter is_finite (Array.to_list outcomes) |> List.map (fun o -> o.cost))
  in
  Array.sort (fun a b -> Lexico.compare b a) finite;
  let k = min top_k (Array.length finite) in
  if k = 0 then Lexico.zero
  else begin
    let acc = ref Lexico.zero in
    for i = 0 to k - 1 do
      acc := Lexico.add !acc finite.(i)
    done;
    scale (1. /. float_of_int k) !acc
  end

let infinite_count outcomes =
  Array.fold_left (fun n o -> if is_finite o then n else n + 1) 0 outcomes
