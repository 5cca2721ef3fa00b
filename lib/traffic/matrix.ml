(* One store for every matrix shape: each destination column keeps its
   positive demands as two parallel arrays, sources ascending and their
   demands — a 10k-node dense matrix would be 800 MB of mostly-zero
   floats, while PoP-gravity demand touches a few thousand pairs.
   Columns are the natural axis: load projection consumes demand one
   destination at a time ({!iter_col}).  A writer that goes row by row
   (the all-pairs gravity model, a large preset's high class) hands
   each column its sources in ascending order, so its [set]s are
   appends.

   The row-major enumerations read the entries gathered once, by a
   counting sort over the columns, until a [set] drops the gather. *)

(* The entries in row-major order.  Never mutated once gathered, so
   copies share it. *)
type rows = { src : int array; dst : int array; value : float array }

type t = {
  n : int;
  len : int array;  (* column t's entry count *)
  col_src : int array array;  (* column t's sources, ascending, in [0, len.(t)) *)
  col_value : float array array;  (* and their demands *)
  rows : rows option Atomic.t;
      (* The gather, once an enumeration has built it.  Domains may
         enumerate one matrix at once: each reads it atomically, and
         one that finds none builds and publishes its own, equal to any
         other's. *)
}

let create n =
  if n <= 0 then invalid_arg "Matrix.create: size must be positive";
  {
    n;
    len = Array.make n 0;
    col_src = Array.make n [||];
    col_value = Array.make n [||];
    rows = Atomic.make None;
  }

let size m = m.n

let check m s t =
  if s < 0 || s >= m.n || t < 0 || t >= m.n then
    invalid_arg "Matrix: index out of range"

(* Where source [s] stands in column [t]: the first entry whose source
   is not below [s], the column's length when every one is (as for a
   source written in order). *)
let position m t s =
  let k = m.len.(t) and srcs = m.col_src.(t) in
  if k = 0 || srcs.(k - 1) < s then k
  else begin
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if srcs.(mid) < s then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let get m s t =
  check m s t;
  let i = position m t s in
  if i < m.len.(t) && m.col_src.(t).(i) = s then m.col_value.(t).(i) else 0.

(* Every stored demand is finite and positive: a zero removes the
   entry, so the columns hold exactly the entries the enumerations
   visit. *)
let set m s t v =
  check m s t;
  if s = t then invalid_arg "Matrix.set: diagonal must stay zero";
  if not (Float.is_finite v) then invalid_arg "Matrix.set: demand must be finite";
  if v < 0. then invalid_arg "Matrix.set: negative demand";
  let k = m.len.(t) and i = position m t s in
  let srcs = m.col_src.(t) and values = m.col_value.(t) in
  if i < k && srcs.(i) = s then begin
    if v > 0. then values.(i) <- v
    else begin
      Array.blit srcs (i + 1) srcs i (k - i - 1);
      Array.blit values (i + 1) values i (k - i - 1);
      m.len.(t) <- k - 1
    end
  end
  else if v > 0. then begin
    (* Doubling from 16 entries: a column of the paper's 16-50-node
       all-pairs matrices takes one or two allocations. *)
    if k = Array.length srcs then begin
      let grown = max 16 (2 * k) in
      m.col_src.(t) <- Array.make grown 0;
      m.col_value.(t) <- Array.make grown 0.;
      Array.blit srcs 0 m.col_src.(t) 0 i;
      Array.blit values 0 m.col_value.(t) 0 i
    end;
    if i < k then begin
      Array.blit srcs i m.col_src.(t) (i + 1) (k - i);
      Array.blit values i m.col_value.(t) (i + 1) (k - i)
    end;
    m.col_src.(t).(i) <- s;
    m.col_value.(t).(i) <- v;
    m.len.(t) <- k + 1
  end;
  (* Only a gathered matrix pays the atomic write: a generator's
     appends leave the gather absent. *)
  if Option.is_some (Atomic.get m.rows) then Atomic.set m.rows None

let add m s t v = set m s t (get m s t +. v)

(* A counting sort on the source: visiting the columns in ascending
   order appends each row's entries in ascending destination. *)
let gather m =
  let next = Array.make (m.n + 1) 0 in
  for t = 0 to m.n - 1 do
    let srcs = m.col_src.(t) in
    for i = 0 to m.len.(t) - 1 do
      next.(srcs.(i) + 1) <- next.(srcs.(i) + 1) + 1
    done
  done;
  for s = 1 to m.n do
    next.(s) <- next.(s) + next.(s - 1)
  done;
  let entries = next.(m.n) in
  let src = Array.make entries 0 and dst = Array.make entries 0 in
  let value = Array.make entries 0. in
  for t = 0 to m.n - 1 do
    let srcs = m.col_src.(t) and values = m.col_value.(t) in
    for i = 0 to m.len.(t) - 1 do
      let s = srcs.(i) in
      let j = next.(s) in
      next.(s) <- j + 1;
      src.(j) <- s;
      dst.(j) <- t;
      value.(j) <- values.(i)
    done
  done;
  { src; dst; value }

let rows m =
  match Atomic.get m.rows with
  | Some r -> r
  | None ->
      let r = gather m in
      Atomic.set m.rows (Some r);
      r

(* Row-major accumulation over the positive entries: the partial sums
   of a fold over all n² entries, zeros included (adding zero is
   exact). *)
let total m = Array.fold_left ( +. ) 0. (rows m).value

(* Fresh columns of [m]'s entries through [f], trimmed to their
   lengths, dropping the entries [f] maps to zero; and whether none
   was dropped. *)
let map_columns m f =
  let len = Array.make m.n 0 in
  let col_src = Array.make m.n [||] and col_value = Array.make m.n [||] in
  let kept = ref true in
  for t = 0 to m.n - 1 do
    let k = m.len.(t) in
    if k > 0 then begin
      let srcs = Array.make k 0 and values = Array.make k 0. and j = ref 0 in
      for i = 0 to k - 1 do
        let x = f m.col_value.(t).(i) in
        if x > 0. then begin
          srcs.(!j) <- m.col_src.(t).(i);
          values.(!j) <- x;
          incr j
        end
        else kept := false
      done;
      len.(t) <- !j;
      col_src.(t) <- srcs;
      col_value.(t) <- values
    end
  done;
  ({ n = m.n; len; col_src; col_value; rows = Atomic.make None }, !kept)

(* A scaled demand is held to [set]'s rule, and an entry that scales to
   zero is dropped.  When [m]'s entries are gathered already and none
   scales to zero, the scaled matrix holds the same entries in the same
   order: it takes [m]'s gather with the values scaled, instead of
   gathering again. *)
let scale m f =
  if f < 0. then invalid_arg "Matrix.scale: negative factor";
  let scaled v =
    let x = v *. f in
    if not (Float.is_finite x) then invalid_arg "Matrix.scale: demand must stay finite";
    x
  in
  let r, kept = map_columns m scaled in
  (match Atomic.get m.rows with
  | Some e when kept -> Atomic.set r.rows (Some { e with value = Array.map scaled e.value })
  | _ -> ());
  r

let copy m =
  let r, _ = map_columns m Fun.id in
  Atomic.set r.rows (Atomic.get m.rows);
  r

let iter m f =
  let r = rows m in
  for i = 0 to Array.length r.src - 1 do
    f r.src.(i) r.dst.(i) r.value.(i)
  done

let iter_col m t f =
  if t < 0 || t >= m.n then invalid_arg "Matrix.iter_col: index out of range";
  let srcs = m.col_src.(t) and values = m.col_value.(t) in
  for i = 0 to m.len.(t) - 1 do
    f srcs.(i) values.(i)
  done

let pairs m =
  let acc = ref [] in
  iter m (fun s t v -> acc := (s, t, v) :: !acc);
  List.rev !acc

let pair_count m = Array.length (rows m).src

(* Pointwise over all off-diagonal pairs (including zeros — [f] may
   map 0,0 somewhere else).  O(n² log n), so keep it off the
   large-scale hot paths. *)
let map2 a b f =
  if a.n <> b.n then invalid_arg "Matrix.map2: size mismatch";
  let r = create a.n in
  for s = 0 to a.n - 1 do
    for t = 0 to a.n - 1 do
      if s <> t then begin
        let v = f (get a s t) (get b s t) in
        if v < 0. then invalid_arg "Matrix.map2: negative result";
        set r s t v
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
