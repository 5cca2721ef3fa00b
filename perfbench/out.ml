(* Named metrics with units, and their JSON rendering. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let count name n = metric name "count" (float_of_int n)

(* Every digit as measured; non-finite values (an empty ratio) render
   as 0 so the output stays valid JSON. *)
let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (number m.value) m.unit_)
         ms)
  ^ "}"

let checks_json checks =
  "{"
  ^ String.concat ", "
      (List.map (fun (name, ok) -> Printf.sprintf "%S: %b" name ok) checks)
  ^ "}"

let ratio num den = if den = 0. then 0. else num /. den

let median a = if Array.length a = 0 then 0. else Dtr_util.Stats.median a

let mean a = Dtr_util.Stats.mean a

(* Of positive values; robust to the odd episode stuck far above the
   rest, which an arithmetic mean of costs is not. *)
let geometric_mean a =
  if Array.length a = 0 then 0.
  else exp (mean (Array.map log a))

let percentile a p =
  if Array.length a = 0 then 0. else Dtr_util.Stats.percentile a p
