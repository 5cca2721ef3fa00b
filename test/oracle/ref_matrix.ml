(* The dense traffic matrix: a row-major n² float array, every entry
   stored, zeros included.  Matrix's column store must enumerate what
   this one does, bit for bit, under the same operations. *)

type t = { n : int; data : float array }

let create n = { n; data = Array.make (n * n) 0. }

let size m = m.n

let get m s t = m.data.((s * m.n) + t)

let set m s t v =
  if s = t then invalid_arg "Ref_matrix.set: diagonal must stay zero";
  if not (Float.is_finite v && v >= 0.) then invalid_arg "Ref_matrix.set: bad demand";
  m.data.((s * m.n) + t) <- v

let add m s t v = set m s t (get m s t +. v)

(* A fold over every entry, zeros included. *)
let total m = Array.fold_left ( +. ) 0. m.data

let scale m f = { m with data = Array.map (fun v -> if v = 0. then 0. else v *. f) m.data }

let copy m = { m with data = Array.copy m.data }

let iter m f =
  for s = 0 to m.n - 1 do
    for t = 0 to m.n - 1 do
      let v = get m s t in
      if v > 0. then f s t v
    done
  done

let iter_col m t f =
  for s = 0 to m.n - 1 do
    let v = get m s t in
    if v > 0. then f s v
  done

let pairs m =
  let acc = ref [] in
  iter m (fun s t v -> acc := (s, t, v) :: !acc);
  List.rev !acc

let pair_count m =
  let c = ref 0 in
  iter m (fun _ _ _ -> incr c);
  !c
