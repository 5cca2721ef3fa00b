(* Cached cost-sorted arc rankings, repaired incrementally across
   context commits.

   The search loops want arcs "sorted into decreasing cost order, ties
   broken by arc id" (Neighborhood.rank_by_cost) once per iteration —
   an O(m log m) full sort that dominates at the 1k-10k tier, even
   though a commit moves the cost rows of only a handful of arcs, and
   most arcs of a large network carry no demand at all.  This cache
   keeps the previous sorted order and the (Φ_H, Φ_L) core rows it was
   sorted under (Problem.ctx_core_costs — commits replace rows, never
   mutate them, so the held pair is a snapshot), extracts exactly the
   arcs whose entries differ from the context's current rows, re-sorts
   that small set under the fresh comparator and merges it back.

   Zero-cost tail.  An arc off both cores, or on one with both entries
   +0., costs nothing; under the load-model comparators every such arc
   ties with every other at the bottom.  So a ranking picks one as its
   reference [zero] and splits the arcs by the comparator against it:
   those above it are the live arcs, sorted; those that tie with it
   form the tail, which the sort would leave in id order, so they are
   appended in id order without sorting.  When an arc ranks below
   [zero] — a zero-cost arc is not minimal, as under the SLA delay
   order, where an idle arc's delay is its own propagation delay — the
   split does not hold and the ranking is sorted whole.  A repair
   compares only the arcs whose entries moved against [zero], merges
   the live ones back into the live run, and rewrites the tail only
   when an arc joined or left it.

   Why the repaired array is bitwise-identical to a full re-sort: the
   ordering is a strict total order (ties cannot survive the arc-id
   tiebreak), so the sorted permutation is unique — any procedure that
   produces *a* sorted array produces *the* sorted array.  The
   comparators order an arc by its own entries of the two rows (an SLA
   arc delay is a function of its own arc's Φ_H entry and capacity), so
   arcs whose two entries are bitwise unchanged keep their relative
   order under the new comparator, and the stable partition of the
   cached array is a sorted run; the re-sorted changed arcs form the
   other; merging two sorted runs under the same comparator yields a
   sorted array, hence *the* sorted array.  Likewise every unchanged
   arc keeps its place above or tied with an unchanged [zero], and
   every arc above [zero] ranks before every arc tied with it, which
   all tie with each other. *)

type t = {
  mutable owner : Problem.ctx option;  (* cache validity: physical identity *)
  mutable rows : (int array * float array) * (int array * float array);
      (* the (Φ_H, Φ_L) core rows [ids] is sorted under *)
  mutable zero : int;  (* the tail's reference arc, -1 when sorted whole *)
  mutable live : int array;  (* split: the arcs above [zero], sorted, first [nlive] *)
  mutable nlive : int;
  mutable is_live : bool array;  (* split: per arc, whether it is in [live] *)
  mutable ids : int array;  (* the cached sorted ranking *)
  mutable flags : bool array;  (* scratch, arc-count sized, all-false *)
  mutable scratch : int array;
      (* merge output: as long as the live run's merge needs in a split,
         arc-count sized when sorted whole *)
}

let create () =
  {
    owner = None;
    rows = (([||], [||]), ([||], [||]));
    zero = -1;
    live = [||];
    nlive = 0;
    is_live = [||];
    ids = [||];
    flags = [||];
    scratch = [||];
  }

(* The exact comparator of Neighborhood.rank_by_cost: decreasing cost,
   increasing arc id on ties — a strict total order. *)
let order ~cmp a b =
  let c = cmp b a in
  if c <> 0 then c else compare a b

(* Flag (and collect onto [acc]) the not yet flagged arcs whose entry
   differs bitwise between two snapshots of a core row, whose arcs are
   [arcs] in the graph's ids.  A row no commit replaced is the same
   array and is skipped in O(1). *)
let mark flags acc arcs (before : float array) after =
  if before == after then acc
  else begin
    let acc = ref acc in
    for j = 0 to Array.length before - 1 do
      if Int64.bits_of_float before.(j) <> Int64.bits_of_float after.(j) then begin
        let a = arcs.(j) in
        if not flags.(a) then begin
          flags.(a) <- true;
          acc := a :: !acc
        end
      end
    done;
    !acc
  end

(* The arcs whose entries moved between the cached rows and [rows],
   flagged. *)
let moved t ((ah, h), (al, l)) =
  let (_, h0), (_, l0) = t.rows in
  Array.of_list (mark t.flags (mark t.flags [] ah h0 h) al l0 l)

(* The first arc with no nonzero entry in [rows] (-1 if none): off
   both cores, or with both entries +0. *)
let zero_arc flags ((ah, h), (al, l)) n_arcs =
  let set v arcs row =
    Array.iteri (fun j x -> if x <> 0. then flags.(arcs.(j)) <- v) row
  in
  set true ah h;
  set true al l;
  let z = ref 0 in
  while !z < n_arcs && flags.(!z) do
    incr z
  done;
  set false ah h;
  set false al l;
  if !z < n_arcs then !z else -1

(* Merge the sorted [fresh] arcs into the first [n] of [old], skipping
   the flagged ones, into [out]; returns the merged length. *)
let merge ~cmp flags old n fresh out =
  let count = Array.length fresh in
  let oi = ref 0 and ti = ref 0 and wi = ref 0 in
  let skip () =
    while !oi < n && flags.(old.(!oi)) do
      incr oi
    done
  in
  skip ();
  while !oi < n || !ti < count do
    if !ti >= count || (!oi < n && order ~cmp old.(!oi) fresh.(!ti) <= 0) then begin
      out.(!wi) <- old.(!oi);
      incr oi;
      skip ()
    end
    else begin
      out.(!wi) <- fresh.(!ti);
      incr ti
    end;
    incr wi
  done;
  !wi

(* The ranking of a split: the live run, then every other arc in id
   order. *)
let write_tail t n_arcs =
  Array.blit t.live 0 t.ids 0 t.nlive;
  let w = ref t.nlive in
  for a = 0 to n_arcs - 1 do
    if not t.is_live.(a) then begin
      t.ids.(!w) <- a;
      incr w
    end
  done

(* Split the arcs at the zero-cost arc [z]: false, leaving no arc
   live, when one ranks below it. *)
let split t ~cmp n_arcs z =
  (* The live arcs are collected at the front of [ids], which
     [write_tail] then overwrites. *)
  let n = ref 0 and a = ref 0 and below = ref false in
  while (not !below) && !a < n_arcs do
    let x = !a in
    if x <> z then begin
      let c = cmp x z in
      if c < 0 then below := true
      else if c > 0 then begin
        t.ids.(!n) <- x;
        t.is_live.(x) <- true;
        incr n
      end
    end;
    incr a
  done;
  if !below then begin
    for i = 0 to !n - 1 do
      t.is_live.(t.ids.(i)) <- false
    done;
    false
  end
  else begin
    t.live <- Array.sub t.ids 0 !n;
    Array.stable_sort (order ~cmp) t.live;
    t.nlive <- !n;
    t.zero <- z;
    write_tail t n_arcs;
    true
  end

(* A ranking from scratch: split at a zero-cost arc when the order
   allows, else sorted whole. *)
let rank t ~cmp ~rows n_arcs =
  if Array.length t.flags <> n_arcs then begin
    t.flags <- Array.make n_arcs false;
    t.is_live <- Array.make n_arcs false;
    t.ids <- Array.make n_arcs 0
  end
  else if t.zero >= 0 then begin
    for i = 0 to t.nlive - 1 do
      t.is_live.(t.live.(i)) <- false
    done;
    t.nlive <- 0;
    t.zero <- -1
  end;
  let z = zero_arc t.flags rows n_arcs in
  if not (z >= 0 && split t ~cmp n_arcs z) then begin
    t.zero <- -1;
    t.ids <- Neighborhood.rank_by_cost ~cmp n_arcs
  end

let repair_whole t ~cmp touched n_arcs =
  let flags = t.flags in
  if Array.length t.scratch <> n_arcs then t.scratch <- Array.make n_arcs 0;
  Array.sort (order ~cmp) touched;
  ignore (merge ~cmp flags t.ids n_arcs touched t.scratch : int);
  (* Swap: the old ids array becomes the next repair's scratch. *)
  let old = t.ids in
  t.ids <- t.scratch;
  t.scratch <- old

(* Re-split the moved arcs against [zero]; false when one ranks below
   it, and the ranking must start over. *)
let repair_split t ~cmp touched n_arcs =
  let z = t.zero in
  (not t.flags.(z))
  && Array.for_all (fun a -> cmp a z >= 0) touched
  &&
  let joined = ref false and fresh = ref [] in
  Array.iter
    (fun a ->
      let live = cmp a z > 0 in
      if live <> t.is_live.(a) then begin
        joined := true;
        t.is_live.(a) <- live
      end;
      if live then fresh := a :: !fresh)
    touched;
  let fresh = Array.of_list !fresh in
  Array.sort (order ~cmp) fresh;
  let need = min n_arcs (t.nlive + Array.length fresh) in
  if Array.length t.scratch < need then t.scratch <- Array.make need 0;
  t.nlive <- merge ~cmp t.flags t.live t.nlive fresh t.scratch;
  let old = t.live in
  t.live <- t.scratch;
  t.scratch <- old;
  if !joined then write_tail t n_arcs else Array.blit t.live 0 t.ids 0 t.nlive;
  true

let arcs t ctx ~cmp n_arcs =
  let rows = Problem.ctx_core_costs ctx in
  (match t.owner with
  | Some owner when owner == ctx && Array.length t.flags = n_arcs ->
      (* The moved arcs stay flagged through the merge (as the
         membership test) and are cleared at the end, restoring the
         all-false invariant. *)
      let touched = moved t rows in
      if Array.length touched > 0 then begin
        let repaired =
          if t.zero < 0 then begin
            repair_whole t ~cmp touched n_arcs;
            true
          end
          else repair_split t ~cmp touched n_arcs
        in
        Array.iter (fun a -> t.flags.(a) <- false) touched;
        if not repaired then rank t ~cmp ~rows n_arcs
      end
  | _ ->
      t.owner <- Some ctx;
      rank t ~cmp ~rows n_arcs);
  t.rows <- rows;
  t.ids
