module Lexico = Dtr_cost.Lexico

type model = Load | Sla of Dtr_cost.Sla.params

type result = {
  objective : Lexico.t;
  eval : Evaluate.t;
  sla : Evaluate.sla option;
}

let of_eval model eval ~sla =
  match model with
  | Load ->
      {
        objective =
          Lexico.make ~primary:eval.Evaluate.phi_h ~secondary:eval.Evaluate.phi_l;
        eval;
        sla = None;
      }
  | Sla params ->
      let sla = sla params in
      {
        objective =
          Lexico.make ~primary:sla.Evaluate.lambda ~secondary:eval.Evaluate.phi_l;
        eval;
        sla = Some sla;
      }

let model_name = function Load -> "load" | Sla _ -> "sla"
