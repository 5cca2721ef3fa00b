(** The paper's two optimization objectives: a lexicographic cost
    read from a two-class view of an evaluation context
    ({!Eval_ctx.to_evaluate}), plus the SLA view under the delay
    model.  Every weight setting is evaluated on {!Eval_ctx}, directly
    or through [Problem]. *)

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
  model ->
  Evaluate.t ->
  th:Dtr_traffic.Matrix.t ->
  ?sla:Evaluate.sla ->
  unit ->
  result
(** Assemble the objective from a two-class evaluation (typically
    [Eval_ctx.to_evaluate ctx]).  Passing [?sla] (when the
    high-priority routing is unchanged from a previous evaluation)
    skips recomputing delays and penalties. *)

val model_name : model -> string
