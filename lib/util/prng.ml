type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: David Stafford's mix13 variant, the reference
   construction from Steele, Lea & Flood (OOPSLA 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to 62 bits so the conversion to int is non-negative, then use
     modulo; the bias is negligible for the bounds used here (< 2^31). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod n

let int_incl t lo hi =
  if hi < lo then invalid_arg "Prng.int_incl: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0, 1), scaled. *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. x

let uniform t a b =
  if b < a then invalid_arg "Prng.uniform: empty range";
  a +. float t (b -. a)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher–Yates over an index array. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
