(* Cached cost-sorted arc rankings, repaired incrementally across
   context commits.

   The search loops want arcs "sorted into decreasing cost order, ties
   broken by arc id" (Neighborhood.rank_by_cost) once per iteration —
   an O(m log m) full sort that dominates at the 1k-10k tier, even
   though a commit moves the cost rows of only a handful of arcs.  This
   cache keeps the previous sorted order and the (Φ_H, Φ_L) rows it was
   sorted under (Problem.ctx_cost_rows — commits replace rows, never
   mutate them, so the held pair is a snapshot), extracts exactly the
   arcs whose entries differ from the context's current rows, re-sorts
   that small set under the fresh comparator and merges it back in
   O(m).

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
   sorted array, hence *the* sorted array. *)

type t = {
  mutable owner : Problem.ctx option;  (* cache validity: physical identity *)
  mutable rows : float array * float array;
      (* the (Φ_H, Φ_L) rows [ids] is sorted under *)
  mutable ids : int array;  (* the cached sorted ranking *)
  mutable flags : bool array;  (* scratch, arc-count sized, all-false *)
  mutable scratch : int array;  (* merge output, arc-count sized *)
}

let create () =
  {
    owner = None;
    rows = ([||], [||]);
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
   differs bitwise between two snapshots of a row.  A row no commit
   replaced is the same array and is skipped in O(1). *)
let mark flags acc (before : float array) after =
  if before == after then acc
  else begin
    let acc = ref acc in
    for a = 0 to Array.length before - 1 do
      if
        (not flags.(a))
        && Int64.bits_of_float before.(a) <> Int64.bits_of_float after.(a)
      then begin
        flags.(a) <- true;
        acc := a :: !acc
      end
    done;
    !acc
  end

let repair t ~cmp ~rows:(h, l) n_arcs =
  (* Changed ids via the scratch flag row; the flags stay set through
     the merge (as the membership test) and are cleared at the end,
     restoring the all-false invariant. *)
  let flags = t.flags in
  let h0, l0 = t.rows in
  let touched = Array.of_list (mark flags (mark flags [] h0 h) l0 l) in
  let count = Array.length touched in
  if count > 0 then begin
    Array.sort (order ~cmp) touched;
    let old_ids = t.ids in
    let out = t.scratch in
    let oi = ref 0 and ti = ref 0 and wi = ref 0 in
    (* Skip changed entries inside the cached run as they are passed:
       what remains of old_ids is the unchanged sorted run. *)
    while !wi < n_arcs do
      while !oi < n_arcs && flags.(old_ids.(!oi)) do
        incr oi
      done;
      if !oi >= n_arcs then begin
        out.(!wi) <- touched.(!ti);
        incr ti;
        incr wi
      end
      else if !ti >= count then begin
        out.(!wi) <- old_ids.(!oi);
        incr oi;
        incr wi
      end
      else if order ~cmp old_ids.(!oi) touched.(!ti) <= 0 then begin
        out.(!wi) <- old_ids.(!oi);
        incr oi;
        incr wi
      end
      else begin
        out.(!wi) <- touched.(!ti);
        incr ti;
        incr wi
      end
    done;
    Array.iter (fun a -> flags.(a) <- false) touched;
    (* Swap: the old ids array becomes the next repair's scratch. *)
    t.ids <- out;
    t.scratch <- old_ids
  end

let arcs t ctx ~cmp n_arcs =
  let rows = Problem.ctx_cost_rows ctx in
  (match t.owner with
  | Some owner when owner == ctx && Array.length t.ids = n_arcs ->
      repair t ~cmp ~rows n_arcs
  | _ ->
      t.owner <- Some ctx;
      t.ids <- Neighborhood.rank_by_cost ~cmp n_arcs;
      if Array.length t.flags <> n_arcs then begin
        t.flags <- Array.make n_arcs false;
        t.scratch <- Array.make n_arcs 0
      end);
  t.rows <- rows;
  t.ids
