module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Objective = Dtr_routing.Objective
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx
module Lexico = Dtr_cost.Lexico

type t = {
  graph : Graph.t;
  th : Matrix.t;
  tl : Matrix.t;
  model : Objective.model;
  dest_mode : Eval_ctx.dest_mode;
      (* always [Demand]; read by perfbench's probe replay alone *)
}

let create ~graph ~th ~tl ~model =
  let n = Graph.node_count graph in
  if Matrix.size th <> n || Matrix.size tl <> n then
    invalid_arg "Problem.create: matrix size mismatch";
  if not (Graph.is_strongly_connected graph) then
    invalid_arg "Problem.create: graph must be strongly connected";
  { graph; th; tl; model; dest_mode = Eval_ctx.Demand }

type solution = {
  wh : int array;
  wl : int array;
  result : Objective.result;
}

let objective s = s.result.Objective.objective

(* Work counters for [--metrics] and the benchmark: process-wide and
   off by default.  A search run counts its own evaluations (its
   report's [evaluations]) where it makes them. *)

module Metrics = Dtr_util.Metrics

let m_full =
  Metrics.counter ~help:"Full (from-scratch) objective evaluations."
    "dtr_eval_full_total"

let m_delta =
  Metrics.counter ~help:"Incremental (delta) objective evaluations."
    "dtr_eval_delta_total"

let m_lambda_reused =
  Metrics.counter
    ~help:"SLA-model probes of W_H that moved no class-0 flow and kept the context's Λ."
    "dtr_sla_lambda_reused_total"

(* ------------------------------------------------------------------ *)
(* Evaluation.

   One engine, {!Eval_ctx}, evaluates every weight setting and every
   candidate, with class 0 = H and class 1 = L (for STR both classes
   alias one weight vector, so one probe moves both).  [eval_dtr] and
   [eval_str] build a context from scratch and materialize it (the
   [_ctx] variants hand the context over too); a [ctx] keeps one live
   for the search loops, which price candidates as probes against it.
   Under the SLA model Λ comes from the high-priority DAGs and Φ_H row
   — the context's, or a probe's own when it moves W_H — through the
   one delay fold behind Evaluate.sla_of and Evaluate.sla_lambda. *)

(* A context's current state as a solution.  O(arcs): the solution
   snapshots the context's arrays, which later commits replace rather
   than mutate; the routing stays in the context.  [sla] is the
   state's SLA costing under the SLA model. *)
let materialize t ec ~sla =
  let wh = Eval_ctx.weights ec 0 in
  let wl = if Eval_ctx.shares_group ec 0 1 then wh else Eval_ctx.weights ec 1 in
  { wh; wl; result = Objective.of_eval t.model (Eval_ctx.to_evaluate ec) ~sla }

(* A from-scratch evaluation hands over the context it built, so a
   search starts probing on it instead of rebuilding one from the
   solution. *)
let evaluate t ~weights =
  Metrics.incr_counter m_full;
  let ec = Eval_ctx.create t.graph ~weights ~matrices:[| t.th; t.tl |] in
  (materialize t ec ~sla:(fun params -> Eval_ctx.sla params ~th:t.th ec), ec)

let is_str s = s.wh == s.wl

type cls = [ `H | `L ]

module Vhash = Dtr_util.Vhash

type ctx = {
  ec : Eval_ctx.t;
  mutable c_sla : Evaluate.sla option;
      (* delay/penalty evaluation of the context's current high-priority
         routing; a commit that moves W_H drops it, and the
         materialization after the commit recomputes it *)
}

let ctx_of_ec ec s = { ec; c_sla = s.result.Objective.sla }

(* A solution carries numbers only, so its context is routed again
   from its weights: one SPF sweep per group, on its core. *)
let ctx_of_solution t s =
  let weights = if is_str s then [| s.wh; s.wh |] else [| s.wh; s.wl |] in
  ctx_of_ec (Eval_ctx.create t.graph ~weights ~matrices:[| t.th; t.tl |]) s

(* Physically equal vectors would form one weight group; a DTR setting
   keeps two even when the caller passes one array twice. *)
let eval_dtr_ctx t ~wh ~wl =
  let wl = if wl == wh then Array.copy wl else wl in
  let s, ec = evaluate t ~weights:[| wh; wl |] in
  (s, ctx_of_ec ec s)

let eval_str_ctx t ~w =
  let s, ec = evaluate t ~weights:[| w; w |] in
  (s, ctx_of_ec ec s)

let eval_dtr t ~wh ~wl = fst (eval_dtr_ctx t ~wh ~wl)

let eval_str t ~w = fst (eval_str_ctx t ~w)

let ctx_is_str ctx = Eval_ctx.shares_group ctx.ec 0 1

let ctx_weights ctx cls =
  Eval_ctx.weights ctx.ec (match cls with `H -> 0 | `L -> 1)

let ctx_weights_view ctx cls =
  Eval_ctx.weights_view ctx.ec (match cls with `H -> 0 | `L -> 1)

let ctx_cost_rows ctx =
  (Eval_ctx.phi_per_arc ctx.ec 0, Eval_ctx.phi_per_arc ctx.ec 1)

let ctx_dags ctx = (Eval_ctx.dags ctx.ec 0, Eval_ctx.dags ctx.ec 1)

(* Both class vectors, each hashed under its own cls tag (for STR both
   classes view one vector, hashed twice under cls 0 and 1). *)
let ctx_base_key ctx =
  Vhash.vector ~cls:0 (Eval_ctx.weights_view ctx.ec 0)
  lxor Vhash.vector ~cls:1 (Eval_ctx.weights_view ctx.ec 1)

let clone_ctx _t ctx = { ctx with ec = Eval_ctx.clone ctx.ec }

let sync_ctx ~src ~dst =
  Eval_ctx.sync ~src:src.ec ~dst:dst.ec;
  dst.c_sla <- src.c_sla

let ctx_sla params t ctx =
  match ctx.c_sla with
  | Some sla -> sla
  | None ->
      let sla = Eval_ctx.sla params ~th:t.th ctx.ec in
      ctx.c_sla <- Some sla;
      sla

let ctx_solution t ctx = materialize t ctx.ec ~sla:(fun params -> ctx_sla params t ctx)

let weight_changes base w' =
  if Array.length base <> Array.length w' then
    invalid_arg "Problem.weight_changes: length mismatch";
  let acc = ref [] in
  for i = Array.length base - 1 downto 0 do
    if base.(i) <> w'.(i) then acc := (i, w'.(i)) :: !acc
  done;
  !acc

type delta = {
  d_probe : Eval_ctx.weight Eval_ctx.probe;
  d_moves_sla : bool;
      (* the candidate moves class-0 flow under the SLA model, so
         committing it invalidates the context's Λ costing *)
  d_objective : Lexico.t;
  d_phi_h : float;
  d_phi_l : float;
}

let delta_objective d = d.d_objective

let delta_phi_h d = d.d_phi_h

let delta_phi_l d = d.d_phi_l

let eval_delta ?(count = true) t ctx ~cls ~changes =
  if count then Metrics.incr_counter m_delta;
  let klass = match cls with `H -> 0 | `L -> 1 in
  let p = Eval_ctx.probe ctx.ec ~klass ~changes in
  let phi = Eval_ctx.probe_phi p in
  (* Under SLA a candidate that moves the H routing may move every H
     path delay: its Λ is walked over the probe's own class-0 views (Λ
     only; a commit recomputes the full costing from the installed
     state, bitwise alike).  W_L cannot affect the H routing, and a W_H
     probe that keeps every class-0 flow leaves each pair's walk the
     same next-hop sets and delays: then Λ, and the whole costing, is
     the context's. *)
  let d_moves_sla =
    match t.model with
    | Objective.Sla _ when ctx_is_str ctx || cls = `H ->
        let kept = Eval_ctx.probe_keeps_flows ctx.ec p 0 in
        if kept then Metrics.incr_counter m_lambda_reused;
        not kept
    | Objective.Sla _ | Objective.Load -> false
  in
  let primary =
    match t.model with
    | Objective.Sla params when not d_moves_sla ->
        (ctx_sla params t ctx).Evaluate.lambda
    | model -> Eval_ctx.probe_primary ~model ~th:t.th ctx.ec p
  in
  {
    d_probe = p;
    d_moves_sla;
    d_objective = Lexico.make ~primary ~secondary:phi.(1);
    d_phi_h = phi.(0);
    d_phi_l = phi.(1);
  }

(* Arc rankings for neighborhood construction, read from the live
   context's rows (shared, replaced-not-mutated on commit) instead of
   materializing m Lexico link costs per iteration.  The order is
   Lexico.compare's without a tolerance: Float.compare on the
   primary, then the secondary. *)

let ctx_arc_cmp_h t ctx =
  let phi_l = Eval_ctx.phi_per_arc ctx.ec 1 in
  match t.model with
  | Objective.Load ->
      let phi_h = Eval_ctx.phi_per_arc ctx.ec 0 in
      fun a b ->
        let c = Float.compare phi_h.(a) phi_h.(b) in
        if c <> 0 then c else Float.compare phi_l.(a) phi_l.(b)
  | Objective.Sla params ->
      let delay = (ctx_sla params t ctx).Evaluate.arc_delay in
      fun a b ->
        let c = Float.compare delay.(a) delay.(b) in
        if c <> 0 then c else Float.compare phi_l.(a) phi_l.(b)

let ctx_arc_cmp_l _t ctx =
  let phi_l = Eval_ctx.phi_per_arc ctx.ec 1 in
  fun a b -> Float.compare phi_l.(a) phi_l.(b)

let commit_delta t ctx d =
  Eval_ctx.commit ctx.ec d.d_probe;
  if d.d_moves_sla then ctx.c_sla <- None;
  ctx_solution t ctx

let abort_delta _ _ = ()

(* ------------------------------------------------------------------ *)
(* Failure-robust pricing: one single-link sweep against the context's
   current weights, aggregated into the robust objective
   J = normal + alpha * penalty.  The sweep runs sequentially on the
   calling domain.  A sweep is most of a robust search's cost, bounded
   three ways: the search loops sweep only candidates whose normal cost
   beats the robust best (J >= normal), a sweep given the run's last
   price prices most failures for the high-priority class alone
   (Failure_sweep.robust_penalty), and none at all while class 0's
   weights are the last price's.  A run's first price finds its cut
   links by reachability and prices primary-first too; without a prior
   [robust_price] is the full sweep, the reference the primary-first
   ones are held to. *)

module Failure_sweep = Dtr_routing.Failure_sweep

type robust_price = {
  rp_objective : Lexico.t;  (* J = normal + alpha * penalty *)
  rp_penalty : Lexico.t;  (* mean of the top_k worst finite failures *)
  rp_infinite : int;  (* failures priced as infinite (severed demand) *)
  rp_cut : bool array;  (* per link: its failure severs demand *)
  rp_primaries : float array;  (* per link: its failure's primary, nan if cut *)
  rp_wh : int array;  (* class 0's weights, which alone set rp_primaries *)
}

let failure_outcomes t ctx = Failure_sweep.sweep ~model:t.model ~th:t.th ctx.ec

let same_weights a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 Int.equal a b)

let priced ctx ~alpha ~normal (penalty, cut, primaries) =
  {
    rp_objective = Lexico.add normal (Lexico.scale alpha penalty);
    rp_penalty = penalty;
    rp_infinite = Array.fold_left (fun n c -> if c then n + 1 else n) 0 cut;
    rp_cut = cut;
    rp_primaries = primaries;
    rp_wh = Eval_ctx.weights_view ctx.ec 0;
  }

let primary_first ?primaries t ctx ~top_k ~cut =
  let penalty, primaries =
    Failure_sweep.robust_penalty ~model:t.model ~th:t.th ~top_k ~cut ?primaries
      ctx.ec
  in
  (penalty, cut, primaries)

(* A failure's class-0 primary reads only class 0's weight group, its
   demand and the raw capacities, so a prior's pass holds while class
   0's weights equal the prior's, however the context got there. *)
let robust_price ?prior t ctx ~alpha ~top_k ~normal =
  priced ctx ~alpha ~normal
    (match prior with
    | Some p ->
        let primaries =
          if same_weights (Eval_ctx.weights_view ctx.ec 0) p.rp_wh then
            Some p.rp_primaries
          else None
        in
        primary_first ?primaries t ctx ~top_k ~cut:p.rp_cut
    | None ->
        let outcomes = failure_outcomes t ctx in
        ( Failure_sweep.penalty ~top_k outcomes,
          Failure_sweep.cut_links outcomes,
          Failure_sweep.primaries outcomes ))

(* The cut links a full sweep would find are the links whose failure
   leaves positive demand without a path, which reachability alone
   decides. *)
let robust_start t ctx ~alpha ~top_k ~normal =
  priced ctx ~alpha ~normal
    (primary_first t ctx ~top_k ~cut:(Eval_ctx.severing_links ctx.ec))
