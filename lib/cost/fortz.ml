(* Slopes and intercept factors of Eq. (1): piece i is
   slope.(i) * load - intercept.(i) * capacity. *)
let slopes = [| 1.; 3.; 10.; 70.; 500.; 5000. |]

let intercepts = [| 0.; 2. /. 3.; 16. /. 3.; 178. /. 3.; 1468. /. 3.; 16318. /. 3. |]

let breakpoints = [| 1. /. 3.; 2. /. 3.; 0.9; 1.0; 1.1 |]

(* [not (x >= 0.)] holds for a negative x and for NaN alike: a NaN
   load would otherwise lose every comparison below and cost 0. *)
let phi ~load ~capacity =
  if not (load >= 0.) then invalid_arg "Fortz.phi: negative load";
  if not (capacity >= 0.) then invalid_arg "Fortz.phi: negative capacity";
  let best = ref 0. in
  for i = 0 to Array.length slopes - 1 do
    let v = (slopes.(i) *. load) -. (intercepts.(i) *. capacity) in
    if v > !best then best := v
  done;
  !best

let segment ~utilization =
  let i = ref 0 in
  while !i < Array.length breakpoints && utilization > breakpoints.(!i) do
    incr i
  done;
  !i

let phi_uncapacitated u = phi ~load:u ~capacity:1.
