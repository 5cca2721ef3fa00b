(** The paper's two optimization objectives: a lexicographic cost
    read from a two-class view of an evaluation context
    ({!Eval_ctx.to_evaluate}), plus, under the delay model, the SLA
    costing of the same state, which the context prices from its own
    routing ({!Eval_ctx.sla}).  Every weight setting is evaluated on
    {!Eval_ctx}, directly or through [Problem]. *)

type model =
  | Load  (** [A = ⟨Φ_H, Φ_L⟩] — Eq. (2) *)
  | Sla of Dtr_cost.Sla.params  (** [S = ⟨Λ, Φ_L⟩] — Eq. (5) *)

type result = {
  objective : Dtr_cost.Lexico.t;
      (** [⟨Φ_H, Φ_L⟩] or [⟨Λ, Φ_L⟩] depending on the model *)
  eval : Evaluate.t;
  sla : Evaluate.sla option;  (** present iff the model is [Sla _] *)
}

val of_eval :
  model -> Evaluate.t -> sla:(Dtr_cost.Sla.params -> Evaluate.sla) -> result
(** Assemble the objective from a two-class evaluation (typically
    [Eval_ctx.to_evaluate ctx]).  Under [Sla params], [sla params] is
    the SLA costing of the same state (typically
    [Eval_ctx.sla params ~th ctx], or a costing already known for it),
    called once and kept in the result; under [Load] it is not
    called. *)

val model_name : model -> string
