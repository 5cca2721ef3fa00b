(* The paper's objectives priced from scratch, and the per-link
   lexicographic costs Algorithm 2 sorts on, materialized as records
   (the searches read them from the live context instead). *)

module Lexico = Dtr_cost.Lexico
module Evaluate = Dtr_routing.Evaluate
module Objective = Dtr_routing.Objective

(** Full evaluation of a weight setting ({!Ref_evaluate.evaluate})
    costed under the model, Λ priced over its own all-destination
    high-priority DAGs ({!Ref_evaluate.sla}); [wh == wl] is the STR
    case. *)
let evaluate model g ~wh ~wl ~th ~tl =
  let eval, dags_h, _ = Ref_evaluate.evaluate_routed g ~wh ~wl ~th ~tl in
  Objective.of_eval model eval ~sla:(fun params ->
      Ref_evaluate.sla params g ~th ~dags_h ~phi_h_per_arc:eval.Evaluate.phi_h_per_arc)

(** Per-arc lexicographic link costs for FindH:
    [⟨Φ_{H,l}, Φ_{L,l}⟩] under [Load], [⟨D_l, Φ_{L,l}⟩] under
    [Sla] (paper §4). *)
let link_costs_h model (r : Objective.result) =
  let eval = r.Objective.eval in
  match model with
  | Objective.Load ->
      Array.init
        (Array.length eval.Evaluate.phi_h_per_arc)
        (fun i ->
          Lexico.make ~primary:eval.Evaluate.phi_h_per_arc.(i)
            ~secondary:eval.Evaluate.phi_l_per_arc.(i))
  | Objective.Sla _ -> (
      match r.Objective.sla with
      | None -> invalid_arg "Objective.link_costs_h: missing SLA evaluation"
      | Some sla ->
          Array.init
            (Array.length sla.Evaluate.arc_delay)
            (fun i ->
              Lexico.make ~primary:sla.Evaluate.arc_delay.(i)
                ~secondary:eval.Evaluate.phi_l_per_arc.(i)))

(** Per-arc costs for FindL: [Φ_{L,l}] (low-priority weights cannot
    affect the high-priority class). *)
let link_costs_l (r : Objective.result) =
  Array.copy r.Objective.eval.Evaluate.phi_l_per_arc
