module Lexico = Dtr_cost.Lexico

type model = Load | Sla of Dtr_cost.Sla.params

(* A result's evaluation rows: built by [build] when first read and
   kept.  Two domains reading at once may both build them, bitwise
   alike; the first kept is the one every read returns. *)
type rows = { build : unit -> Evaluate.t; built : Evaluate.t option Atomic.t }

type result = {
  objective : Lexico.t;
  rows : rows;
  sla : Evaluate.sla option;
}

let eval r =
  match Atomic.get r.rows.built with
  | Some e -> e
  | None ->
      let e = r.rows.build () in
      if Atomic.compare_and_set r.rows.built None (Some e) then e
      else Option.get (Atomic.get r.rows.built)

let of_rows model ~phi_h ~phi_l rows ~sla =
  let rows = { build = rows; built = Atomic.make None } in
  match model with
  | Load -> { objective = Lexico.make ~primary:phi_h ~secondary:phi_l; rows; sla = None }
  | Sla params ->
      let sla = sla params in
      {
        objective = Lexico.make ~primary:sla.Evaluate.lambda ~secondary:phi_l;
        rows;
        sla = Some sla;
      }

let of_eval model eval ~sla =
  let r =
    of_rows model ~phi_h:eval.Evaluate.phi_h ~phi_l:eval.Evaluate.phi_l
      (fun () -> eval) ~sla
  in
  Atomic.set r.rows.built (Some eval);
  r

let model_name = function Load -> "load" | Sla _ -> "sla"
