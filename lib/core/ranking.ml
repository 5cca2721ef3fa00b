(* Cached cost-sorted arc rankings, repaired incrementally across
   context commits.

   The search loops want arcs "sorted into decreasing cost order, ties
   broken by arc id" (Neighborhood.rank_by_cost) once per iteration —
   an O(m log m) full sort that dominates at the 1k-10k tier, even
   though a commit moves the cost rows of only a handful of arcs
   (Eval_ctx.probe_touched).  This cache keeps the previous sorted
   order, asks the context which arcs moved since
   (Problem.ctx_changes_since), extracts exactly those, re-sorts the
   small set under the fresh comparator and merges it back in O(m).

   Why the repaired array is bitwise-identical to a full re-sort: the
   ordering is a strict total order (ties cannot survive the arc-id
   tiebreak), so the sorted permutation is unique — any procedure that
   produces *a* sorted array produces *the* sorted array.  Untouched
   arcs' cost rows are unchanged (commits patch per-arc quantities only
   at touched indices and replace rows rather than mutate them; an SLA
   arc delay is a function of its own arc's Φ_H entry alone), so
   their relative order under the new comparator equals their cached
   order and the stable partition of the cached array is a sorted run;
   the re-sorted touched arcs form the other; merging two sorted runs
   under the same comparator yields a sorted array, hence *the* sorted
   array. *)

type t = {
  mutable owner : Problem.ctx option;  (* cache validity: physical identity *)
  mutable version : int;  (* Problem.ctx_version the cache reflects *)
  mutable ids : int array;  (* the cached sorted ranking *)
  mutable flags : bool array;  (* scratch, arc-count sized, all-false *)
  mutable scratch : int array;  (* merge output, arc-count sized *)
}

let create () =
  { owner = None; version = 0; ids = [||]; flags = [||]; scratch = [||] }

(* The exact comparator of Neighborhood.rank_by_cost: decreasing cost,
   increasing arc id on ties — a strict total order. *)
let order ~cmp a b =
  let c = cmp b a in
  if c <> 0 then c else compare a b

let repair t ~cmp ~changed n_arcs =
  (* Unique touched ids via the scratch flag row; the flags stay set
     through the merge (as the membership test) and are cleared at the
     end, restoring the all-false invariant. *)
  let flags = t.flags in
  let uniq = ref [] in
  let count = ref 0 in
  Array.iter
    (fun a ->
      if not flags.(a) then begin
        flags.(a) <- true;
        uniq := a :: !uniq;
        incr count
      end)
    changed;
  if !count > 0 then begin
    let touched = Array.make !count 0 in
    let k = ref 0 in
    List.iter
      (fun a ->
        touched.(!k) <- a;
        incr k)
      !uniq;
    Array.sort (order ~cmp) touched;
    let old_ids = t.ids in
    let out = t.scratch in
    let oi = ref 0 and ti = ref 0 and wi = ref 0 in
    (* Skip touched entries inside the cached run as they are passed:
       what remains of old_ids is the untouched sorted run. *)
    while !wi < n_arcs do
      while !oi < n_arcs && flags.(old_ids.(!oi)) do
        incr oi
      done;
      if !oi >= n_arcs then begin
        out.(!wi) <- touched.(!ti);
        incr ti;
        incr wi
      end
      else if !ti >= !count then begin
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
  let fresh () =
    t.owner <- Some ctx;
    t.version <- Problem.ctx_version ctx;
    t.ids <- Neighborhood.rank_by_cost ~cmp n_arcs;
    if Array.length t.flags <> n_arcs then begin
      t.flags <- Array.make n_arcs false;
      t.scratch <- Array.make n_arcs 0
    end;
    t.ids
  in
  match t.owner with
  | Some owner when owner == ctx && Array.length t.ids = n_arcs -> (
      let v = Problem.ctx_version ctx in
      if v = t.version then t.ids
      else
        match Problem.ctx_changes_since ctx ~since:t.version with
        | None -> fresh ()
        | Some changed ->
            repair t ~cmp ~changed n_arcs;
            t.version <- v;
            t.ids)
  | _ -> fresh ()
