(** The paper's two optimization objectives: a lexicographic cost
    read from a two-class view of an evaluation context
    ({!Eval_ctx.evaluation}), plus, under the delay model, the SLA
    costing of the same state, which the context prices from its own
    routing ({!Eval_ctx.sla}).  Every weight setting is evaluated on
    {!Eval_ctx}, directly or through [Problem]. *)

type model =
  | Load  (** [A = ⟨Φ_H, Φ_L⟩] — Eq. (2) *)
  | Sla of Dtr_cost.Sla.params  (** [S = ⟨Λ, Φ_L⟩] — Eq. (5) *)

type rows
(** A result's evaluation rows ({!eval}), built when first read. *)

type result = {
  objective : Dtr_cost.Lexico.t;
      (** [⟨Φ_H, Φ_L⟩] or [⟨Λ, Φ_L⟩] depending on the model *)
  rows : rows;
  sla : Evaluate.sla option;  (** present iff the model is [Sla _] *)
}

val eval : result -> Evaluate.t
(** The two-class evaluation the objective was read from: built on
    the first call and kept, so every call returns the same record.
    Domain-safe: two domains reading at once may both build it, and
    the first one kept is returned to both. *)

val of_rows :
  model ->
  phi_h:float ->
  phi_l:float ->
  (unit -> Evaluate.t) ->
  sla:(Dtr_cost.Sla.params -> Evaluate.sla) ->
  result
(** [of_rows model ~phi_h ~phi_l rows ~sla] assembles the objective
    from a state's [Φ_H] and [Φ_L] alone; [rows ()] builds the state's
    two-class evaluation (typically [Eval_ctx.evaluation ctx]), whose
    [phi_h] and [phi_l] must be these, when {!eval} first asks for it
    — never, for a result nobody reads the rows of.  Under
    [Sla params], [sla params] is the SLA costing of the same state
    (typically [Eval_ctx.sla params ~th ctx], or a costing already
    known for it), called once and kept in the result; under [Load]
    it is not called. *)

val of_eval :
  model -> Evaluate.t -> sla:(Dtr_cost.Sla.params -> Evaluate.sla) -> result
(** {!of_rows} of an evaluation already built (typically
    [Eval_ctx.to_evaluate ctx]), which {!eval} returns. *)

val model_name : model -> string
