(* Two representations behind one interface: the original dense
   row-major float array (every existing code path, unchanged), and a
   column-major sparse store for real-ISP scale matrices — a 10k-node
   dense matrix is 800 MB of mostly-zero floats, while PoP-gravity
   demand touches a few thousand pairs.  Columns (per-destination
   tables) are the natural axis: load projection consumes demand one
   destination at a time ({!iter_col}).

   Every enumeration is emitted in sorted row-major order regardless
   of representation, so outputs stay deterministic and independent of
   hash-table internals.  A sparse matrix sorts its entries once, on
   its first enumeration, and every later one reads the sorted arrays
   until a [set] drops them. *)

(* A sparse matrix's entries, sorted: row-major in [src]/[dst]/[value],
   and each destination column's in ascending source order in
   [col_src]/[col_value].  Never mutated once built, so copies share
   them. *)
type sorted = {
  src : int array;
  dst : int array;
  value : float array;
  col_src : int array array;
  col_value : float array array;
}

type repr =
  | Dense of float array  (* n * n, row-major *)
  | Sparse of (int, float) Hashtbl.t array * sorted option Atomic.t
      (* cols.(t) : src -> demand, and the sorted entries once an
         enumeration has built them.  Domains may enumerate one matrix
         at once: each reads the cache atomically, and one that finds
         none builds and publishes its own, equal to any other's. *)

type t = { n : int; repr : repr }

let create n =
  if n <= 0 then invalid_arg "Matrix.create: size must be positive";
  { n; repr = Dense (Array.make (n * n) 0.) }

let create_sparse n =
  if n <= 0 then invalid_arg "Matrix.create_sparse: size must be positive";
  { n; repr = Sparse (Array.init n (fun _ -> Hashtbl.create 8), Atomic.make None) }

let is_sparse m = match m.repr with Dense _ -> false | Sparse _ -> true

let size m = m.n

let check m s t =
  if s < 0 || s >= m.n || t < 0 || t >= m.n then
    invalid_arg "Matrix: index out of range"

let get m s t =
  check m s t;
  match m.repr with
  | Dense data -> data.((s * m.n) + t)
  | Sparse (cols, _) -> (
      match Hashtbl.find_opt cols.(t) s with Some v -> v | None -> 0.)

(* Every stored demand is finite and non-negative, so a sparse store
   holds exactly the positive entries the enumerations visit. *)
let set m s t v =
  check m s t;
  if s = t then invalid_arg "Matrix.set: diagonal must stay zero";
  if not (Float.is_finite v) then invalid_arg "Matrix.set: demand must be finite";
  if v < 0. then invalid_arg "Matrix.set: negative demand";
  match m.repr with
  | Dense data -> data.((s * m.n) + t) <- v
  | Sparse (cols, sorted) ->
      if v = 0. then Hashtbl.remove cols.(t) s else Hashtbl.replace cols.(t) s v;
      Atomic.set sorted None

let add m s t v = set m s t (get m s t +. v)

(* Each column's sources sorted ascending, then the row-major arrays by
   a counting sort on the source: visiting the columns in ascending
   order appends each row's entries in ascending destination.  Empty
   columns, most of a large network's, share one empty array. *)
let sort_entries n cols =
  let col_src =
    Array.map
      (fun col ->
        if Hashtbl.length col = 0 then [||]
        else begin
          let srcs = Array.make (Hashtbl.length col) 0 and i = ref 0 in
          Hashtbl.iter
            (fun s _ ->
              srcs.(!i) <- s;
              incr i)
            col;
          Array.sort Int.compare srcs;
          srcs
        end)
      cols
  in
  let col_value =
    Array.mapi
      (fun t srcs -> if Array.length srcs = 0 then [||] else Array.map (Hashtbl.find cols.(t)) srcs)
      col_src
  in
  let next = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun s -> next.(s + 1) <- next.(s + 1) + 1)) col_src;
  for s = 1 to n do
    next.(s) <- next.(s) + next.(s - 1)
  done;
  let entries = next.(n) in
  let src = Array.make entries 0 and dst = Array.make entries 0 in
  let value = Array.make entries 0. in
  Array.iteri
    (fun t srcs ->
      Array.iteri
        (fun i s ->
          let j = next.(s) in
          next.(s) <- j + 1;
          src.(j) <- s;
          dst.(j) <- t;
          value.(j) <- col_value.(t).(i))
        srcs)
    col_src;
  { src; dst; value; col_src; col_value }

let sorted m cols cache =
  match Atomic.get cache with
  | Some s -> s
  | None ->
      let s = sort_entries m.n cols in
      Atomic.set cache (Some s);
      s

let total m =
  match m.repr with
  | Dense data -> Array.fold_left ( +. ) 0. data
  | Sparse (cols, cache) ->
      (* Row-major accumulation over positive entries: the same partial
         sums a dense fold over the padded array would produce (adding
         zeros is exact). *)
      Array.fold_left ( +. ) 0. (sorted m cols cache).value

(* A scaled demand is held to [set]'s rule (a zero stays zero), and a
   sparse store drops the entries that scale to zero.  When [m]'s
   entries are sorted already and none scales to zero, the scaled
   matrix holds the same entries in the same order: it takes [m]'s
   positions ([src], [dst], [col_src]) with the values scaled, instead
   of sorting its entries again. *)
let scale m f =
  if f < 0. then invalid_arg "Matrix.scale: negative factor";
  let scaled v =
    if v = 0. then 0.
    else begin
      let x = v *. f in
      if not (Float.is_finite x) then invalid_arg "Matrix.scale: demand must stay finite";
      x
    end
  in
  match m.repr with
  | Dense data -> { n = m.n; repr = Dense (Array.map scaled data) }
  | Sparse (cols, cache) ->
      let kept = ref true in
      let cols =
        Array.map
          (fun col ->
            let c = Hashtbl.create (Hashtbl.length col) in
            Hashtbl.iter
              (fun s v ->
                let x = scaled v in
                if x > 0. then Hashtbl.replace c s x else kept := false)
              col;
            c)
          cols
      in
      let sorted =
        match Atomic.get cache with
        | Some e when !kept ->
            let scale_all vs = if Array.length vs = 0 then vs else Array.map scaled vs in
            Some
              {
                e with
                value = Array.map scaled e.value;
                col_value = Array.map scale_all e.col_value;
              }
        | _ -> None
      in
      { n = m.n; repr = Sparse (cols, Atomic.make sorted) }

let copy m =
  match m.repr with
  | Dense data -> { n = m.n; repr = Dense (Array.copy data) }
  | Sparse (cols, cache) ->
      { n = m.n; repr = Sparse (Array.map Hashtbl.copy cols, Atomic.make (Atomic.get cache)) }

let iter m f =
  match m.repr with
  | Dense data ->
      for s = 0 to m.n - 1 do
        for t = 0 to m.n - 1 do
          let v = data.((s * m.n) + t) in
          if v > 0. then f s t v
        done
      done
  | Sparse (cols, cache) ->
      let e = sorted m cols cache in
      for i = 0 to Array.length e.src - 1 do
        f e.src.(i) e.dst.(i) e.value.(i)
      done

let iter_col m t f =
  if t < 0 || t >= m.n then invalid_arg "Matrix.iter_col: index out of range";
  match m.repr with
  | Dense data ->
      for s = 0 to m.n - 1 do
        let v = data.((s * m.n) + t) in
        if v > 0. then f s v
      done
  | Sparse (cols, cache) ->
      let e = sorted m cols cache in
      let srcs = e.col_src.(t) and values = e.col_value.(t) in
      for i = 0 to Array.length srcs - 1 do
        f srcs.(i) values.(i)
      done

let pairs m =
  let acc = ref [] in
  iter m (fun s t v -> acc := (s, t, v) :: !acc);
  List.rev !acc

let pair_count m =
  match m.repr with
  | Dense _ ->
      let c = ref 0 in
      iter m (fun _ _ _ -> incr c);
      !c
  | Sparse (cols, cache) -> Array.length (sorted m cols cache).src

(* Pointwise over all off-diagonal pairs (including zeros — [f] may
   map 0,0 somewhere else).  O(n^2) even for sparse operands, so keep
   it off the large-scale hot paths; the result uses the left
   operand's representation. *)
let map2 a b f =
  if a.n <> b.n then invalid_arg "Matrix.map2: size mismatch";
  let r = if is_sparse a then create_sparse a.n else create a.n in
  for s = 0 to a.n - 1 do
    for t = 0 to a.n - 1 do
      if s <> t then begin
        let v = f (get a s t) (get b s t) in
        if v < 0. then invalid_arg "Matrix.map2: negative result";
        if v <> 0. || not (is_sparse a) then set r s t v
      end
    done
  done;
  r

let equal ?(eps = 1e-9) a b =
  a.n = b.n
  && begin
       let ok = ref true in
       for s = 0 to a.n - 1 do
         for t = 0 to a.n - 1 do
           if Float.abs (get a s t -. get b s t) > eps then ok := false
         done
       done;
       !ok
     end
