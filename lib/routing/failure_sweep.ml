module Graph = Dtr_graph.Graph
module Lexico = Dtr_cost.Lexico
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

let m_reused =
  Metrics.counter
    ~help:"Robust sweeps that reused an earlier sweep's class-0 pass."
    "dtr_failure_reused_total"

type outcome = { cost : Lexico.t; unreachable_pairs : int }

let is_finite o = o.unreachable_pairs = 0

let price ~model ~th ctx p =
  let unreachable_pairs = Eval_ctx.probe_unreachable p in
  if unreachable_pairs > 0 then begin
    Metrics.incr_counter m_infinite;
    { cost = Lexico.infinity; unreachable_pairs }
  end
  else
    let primary = Eval_ctx.probe_primary ~model ~th ctx p in
    {
      cost = Lexico.make ~primary ~secondary:(Eval_ctx.probe_phi p).(1);
      unreachable_pairs = 0;
    }

let link_arcs links i =
  let a, b = links.(i) in
  if a = b then [ a ] else [ a; b ]

let eval_link ~model ~th ~links ctx i =
  Metrics.incr_counter m_evals;
  price ~model ~th ctx (Eval_ctx.fail_probe ctx ~arcs:(link_arcs links i))

let sweep ?(model = Objective.Load) ~th ctx =
  if Eval_ctx.class_count ctx <> 2 then
    invalid_arg "Failure_sweep.sweep: need a 2-class context";
  Metrics.incr_counter m_sweeps;
  let links = Graph.undirected_link_pairs (Eval_ctx.graph ctx) in
  let k = Array.length links in
  (* Explicit ascending loop: Array.init's order is unspecified. *)
  let out = Array.make k { cost = Lexico.zero; unreachable_pairs = 0 } in
  for i = 0 to k - 1 do
    out.(i) <- eval_link ~model ~th ~links ctx i
  done;
  out

(* ------------------------------------------------------------------ *)
(* Robust penalty: aggregate a sweep into one Lexico term. *)

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
    Lexico.scale (1. /. float_of_int k) !acc
  end

let infinite_count outcomes =
  Array.fold_left (fun n o -> if is_finite o then n else n + 1) 0 outcomes

(* ------------------------------------------------------------------ *)
(* Primary-first robust penalty.

   [penalty] ranks outcomes by Lexico.compare, primary first, so an
   outcome whose primary is below the k-th largest primary has k
   outcomes strictly above it and never enters the top k.  Pricing
   every survivable failure's primary from a class-0 probe, then only
   the failures that reach the k-th largest primary in full, hands
   [penalty] the same top k and so the same sum, bitwise.  Cut links
   are priced infinite without a probe: which links sever demand is a
   property of the graph and the demand, not of the weights.  The
   class-0 pass reads only class 0's weight group, so a caller that
   kept the pass of an earlier sweep at the same class-0 weights hands
   it back and no class-0 probe runs. *)

let cut_links outcomes = Array.map (fun o -> not (is_finite o)) outcomes

let primaries outcomes =
  Array.map (fun o -> if is_finite o then o.cost.Lexico.primary else Float.nan) outcomes

(* The index of the [k]-th largest of [primaries] outside [cut], under
   [Float.compare] and counting ties (of the smallest when fewer are
   left), or -1 when every link is cut.  In place: each round finds the
   largest primary below the last round's and how many links hold it. *)
let kth_largest primaries ~cut k =
  let rec round bound taken =
    let best = ref (-1) and count = ref 0 in
    for i = 0 to Array.length primaries - 1 do
      if
        (not cut.(i))
        && (bound < 0 || Float.compare primaries.(i) primaries.(bound) < 0)
      then begin
        let c = if !best < 0 then 1 else Float.compare primaries.(i) primaries.(!best) in
        if c > 0 then begin
          best := i;
          count := 1
        end
        else if c = 0 then incr count
      end
    done;
    if !best < 0 then bound
    else if taken + !count >= k then !best
    else round !best (taken + !count)
  in
  round (-1) 0

let robust_penalty ?(model = Objective.Load) ~th ~top_k ~cut ?primaries ctx =
  if Eval_ctx.class_count ctx <> 2 then
    invalid_arg "Failure_sweep.robust_penalty: need a 2-class context";
  if top_k < 1 then
    invalid_arg "Failure_sweep.robust_penalty: top_k must be >= 1";
  let links = Graph.undirected_link_pairs (Eval_ctx.graph ctx) in
  let n = Array.length links in
  if Array.length cut <> n then
    invalid_arg "Failure_sweep.robust_penalty: cut set of another graph";
  let not_cut i =
    invalid_arg
      (Printf.sprintf "Failure_sweep.robust_penalty: link %d severs demand \
                       but is not in the cut set" i)
  in
  Metrics.incr_counter m_sweeps;
  Metrics.add m_evals n;
  Array.iter (fun c -> if c then Metrics.incr_counter m_infinite) cut;
  let primaries =
    match primaries with
    | Some p ->
        if Array.length p <> n then
          invalid_arg "Failure_sweep.robust_penalty: primaries of another graph";
        Metrics.incr_counter m_reused;
        p
    | None ->
        (* A link whose arcs carry no committed class-0 load keeps the
           context's own primary: behind the flow screen its class-0
           probe defers every destination and re-projects nothing. *)
        let loads = Eval_ctx.loads ctx 0 and screened = not (Eval_ctx.zero_shares ctx) in
        let own = lazy (Eval_ctx.primary ~model ~th ctx) in
        let p = Array.make n Float.nan in
        for i = 0 to n - 1 do
          if not cut.(i) then begin
            let a, b = links.(i) in
            p.(i) <-
              (if screened && loads.(a) = 0. && loads.(b) = 0. then Lazy.force own
               else begin
                 let f = Eval_ctx.fail_probe ~classes:1 ctx ~arcs:(link_arcs links i) in
                 if Eval_ctx.probe_unreachable f > 0 then not_cut i;
                 Eval_ctx.probe_primary ~model ~th ctx f
               end)
          end
        done;
        p
  in
  match kth_largest primaries ~cut top_k with
  | -1 -> (Lexico.zero, primaries)
  | at ->
      let kth = primaries.(at) in
      let worst = ref [] in
      for i = n - 1 downto 0 do
        if (not cut.(i)) && Float.compare primaries.(i) kth >= 0 then begin
          let o =
            price ~model ~th ctx (Eval_ctx.fail_probe ctx ~arcs:(link_arcs links i))
          in
          if not (is_finite o) then not_cut i;
          let full = o.cost.Lexico.primary in
          if not (Int64.equal (Int64.bits_of_float full) (Int64.bits_of_float primaries.(i)))
          then
            failwith
              (Printf.sprintf
                 "Failure_sweep.robust_penalty: link %d's full probe prices \
                  the primary %h, its class-0 pass %h"
                 i full primaries.(i));
          worst := o :: !worst
        end
      done;
      (penalty ~top_k (Array.of_list !worst), primaries)
