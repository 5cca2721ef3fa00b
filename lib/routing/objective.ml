module Lexico = Dtr_cost.Lexico

type model = Load | Sla of Dtr_cost.Sla.params

type result = {
  objective : Lexico.t;
  eval : Evaluate.t;
  sla : Evaluate.sla option;
}

let of_eval model eval ~th ?sla () =
  match model with
  | Load ->
      {
        objective =
          Lexico.make ~primary:eval.Evaluate.phi_h ~secondary:eval.Evaluate.phi_l;
        eval;
        sla = None;
      }
  | Sla params ->
      let sla =
        match sla with
        | Some s -> s
        | None -> Evaluate.evaluate_sla params eval ~th
      in
      {
        objective =
          Lexico.make ~primary:sla.Evaluate.lambda ~secondary:eval.Evaluate.phi_l;
        eval;
        sla = Some sla;
      }

let model_name = function Load -> "load" | Sla _ -> "sla"
