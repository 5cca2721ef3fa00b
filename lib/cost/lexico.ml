type t = { primary : float; secondary : float }

let make ~primary ~secondary = { primary; secondary }

let primaries_equal rel_tol x y =
  match rel_tol with
  | None -> x = y
  | Some tol ->
      let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
      Float.abs (x -. y) <= tol *. scale

let compare ?rel_tol a b =
  if primaries_equal rel_tol a.primary b.primary then
    Stdlib.compare a.secondary b.secondary
  else Stdlib.compare a.primary b.primary

let lt ?rel_tol a b = Stdlib.( < ) (compare ?rel_tol a b) 0

let ( < ) a b = lt a b

(* Primary costs within this relative tolerance are ties, letting the
   lexicographic tie-break (the secondary cost) fire: at low load
   exponentially many weight settings attain the optimal primary cost
   and differ only in low-priority cost, but accumulated floating-point
   sums of the primary differ in the last bits. *)
let improves a b = lt ~rel_tol:1e-9 a b

let min ?rel_tol a b = if lt ?rel_tol b a then b else a

let add a b =
  { primary = a.primary +. b.primary; secondary = a.secondary +. b.secondary }

let scale f t = { primary = f *. t.primary; secondary = f *. t.secondary }

let zero = { primary = 0.; secondary = 0. }

let infinity = { primary = Float.infinity; secondary = Float.infinity }

let to_joint ~alpha t =
  if Stdlib.( < ) alpha 0. then invalid_arg "Lexico.to_joint: negative alpha";
  (alpha *. t.primary) +. t.secondary

let compare_vectors a b =
  if Array.length a <> Array.length b then
    invalid_arg "Lexico.compare_vectors: length mismatch";
  let rec go i =
    if i = Array.length a then 0
    else begin
      let c = Float.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

let pp ppf t = Format.fprintf ppf "(%.6g, %.6g)" t.primary t.secondary
