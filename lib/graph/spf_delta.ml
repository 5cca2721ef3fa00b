type change = { arc : int; before : int; after : int }

module Metrics = Dtr_util.Metrics
module Bucket_queue = Dtr_util.Bucket_queue

let m_updates =
  Metrics.counter ~help:"Delta-SPF update calls (one per probe per group)."
    "dtr_spf_delta_updates_total"

let m_rebuilds =
  Metrics.counter
    ~help:"Dirty destinations whose distance labels moved in a delta-SPF repair."
    "dtr_spf_delta_rebuilds_total"

let m_patches =
  Metrics.counter
    ~help:"Dirty destinations whose delta-SPF repair moved next-hop sets only."
    "dtr_spf_delta_patches_total"

let m_settled =
  Metrics.counter ~help:"Distance labels re-settled by delta-SPF repairs."
    "dtr_spf_delta_settled_total"

let m_dirty =
  Metrics.histogram
    ~help:"Dirty destinations (repaired dags) per delta-SPF update."
    "dtr_spf_delta_dirty"

type workspace = Dijkstra.workspace

let workspace () = Dijkstra.workspace ()

let unreachable = Dijkstra.unreachable

let suppressed = Dijkstra.suppressed

(* One effective change with its arc's endpoints resolved. *)
type edit = { id : int; u : int; v : int; before : int; after : int }

(* An arc of weight [w] whose head is labelled [head] lies on a
   shortest path from its tail, labelled [tail]. *)
let tight w ~head ~tail =
  w <> suppressed && head <> unreachable && w + head = tail

(* The O(1) screen, from the previous labels alone: can the change
   alter this destination's dag at all?  A drop matters only if the
   arc's new cost reaches [u]'s old label (equality merely adds the arc
   to [u]'s next hops); a raise only if the arc was tight.  A
   suppression ([after = Dijkstra.suppressed]) is a raise and never
   enters the arithmetic; a restoration ([before] suppressed) is a drop
   whose [u] may have been unreachable.  A destination passing every
   change is clean; any other one differs from [prev] after the batch
   (a moved label, a lost tight arc or a gained one). *)
let touches dist e =
  let dv = dist.(e.v) and du = dist.(e.u) in
  if e.after < e.before then dv <> unreachable && e.after + dv <= du
  else tight e.before ~head:dv ~tail:du

(* Reachable nodes with distance [da] and id [a] precede those with
   [db] and [b] in [order_desc]. *)
let precedes ~da a ~db b = (da : int) > db || (da = db && (a : int) < b)

(* Where one repair writes its result.  On entry [lab] holds the old
   labels and [next] the old next-hop spine ([src_next], except at the
   [logged] positions of [log]); the kernel repairs both in place and
   merges a changed order into a buffer of [orders] of the exact
   length.  A pure {!update} gives every repair fresh buffers
   ([keep = false]).  A {!scratch} slot ([keep = true]) keeps them: the
   kernel logs every [next] position it overwrites and keeps its order
   buffers, and the slot undoes the log before its next repair, so a
   repair costs no allocation beyond the next-hop sets it recomputes. *)
type buf = {
  mutable lab : int array;
  mutable next : int array array;
  mutable src_next : int array array;
  log : int array;
  mutable logged : int;
  mutable orders : int array list;
  keep : bool;
}

let order_buffer buf len =
  let rec find = function
    | o :: rest -> if Array.length o = len then o else find rest
    | [] ->
        let o = Array.make len 0 in
        if buf.keep then buf.orders <- o :: buf.orders;
        o
  in
  find buf.orders

(* The order under the new labels [dist]: [old] (sorted under the old
   labels [d]) without the [moved] nodes, merged with those of them
   that are still reachable.  [moved] comes in non-increasing label
   order (the reverse of the re-settle order), so an insertion sort
   only has ties to fix.  [ins] is scratch of at least [moved]'s
   length. *)
let merge_order buf ~ins ~d ~dist old moved =
  let count = ref 0 in
  List.iter
    (fun x ->
      if dist.(x) <> unreachable then begin
        ins.(!count) <- x;
        incr count
      end)
    moved;
  let count = !count in
  for k = 1 to count - 1 do
    let x = ins.(k) in
    let j = ref k in
    while !j > 0 && precedes ~da:dist.(x) x ~db:dist.(ins.(!j - 1)) ins.(!j - 1) do
      ins.(!j) <- ins.(!j - 1);
      decr j
    done;
    ins.(!j) <- x
  done;
  let gone =
    List.fold_left (fun acc x -> if d.(x) <> unreachable then acc + 1 else acc) 0 moved
  in
  let order = order_buffer buf (Array.length old - gone + count) in
  let i = ref 0 and j = ref 0 in
  for k = 0 to Array.length order - 1 do
    while !i < Array.length old && dist.(old.(!i)) <> d.(old.(!i)) do
      incr i
    done;
    if
      !j < count
      && (!i >= Array.length old
         || precedes ~da:dist.(ins.(!j)) ins.(!j) ~db:dist.(old.(!i)) old.(!i))
    then begin
      order.(k) <- ins.(!j);
      incr j
    end
    else begin
      order.(k) <- old.(!i);
      incr i
    end
  done;
  order

(* Bounded repair of one destination's dag under the whole batch
   (Ramalingam–Reps, over incoming arcs), in place in [buf]:

   1. mark the nodes whose every old shortest path uses a raised (or
      suppressed) arc — they lose their label;
   2. seed each marked node from its unmarked out-neighbours, and the
      tail of each dropped arc from the arc's head;
   3. re-settle from those seeds with a bucket-queue Dijkstra whose
      labels start at the old (upper-bound) values, so it stops where
      labels stop moving.

   Only nodes whose label moved, their in-neighbours and the changed
   arcs' tails can change their next-hop set; the rest of the spine is
   the old one, and the moved nodes are merged into the old order.
   The result is structurally the dag {!Spf.to_destination} builds; it
   shares the old labels and order when no label moved, and otherwise
   [buf]'s. *)
let repair g ~weights ~edits ~settles ~ins (settled, q) dag buf =
  let t = dag.Spf.dst and d = dag.Spf.dist and old_next = dag.Spf.next_arcs in
  let lab = buf.lab in
  let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
  let out_off = Graph.out_offsets g and out_ids = Graph.out_arc_ids g in
  let srcs = Graph.srcs g and dsts = Graph.dsts g in
  let rec edit_index id i =
    if i = Array.length edits then -1
    else if edits.(i).id = id then i
    else edit_index id (i + 1)
  in
  let old_weight id =
    let i = edit_index id 0 in
    if i < 0 then weights.(id) else edits.(i).before
  in
  let raised id =
    let i = edit_index id 0 in
    i >= 0 && edits.(i).after > edits.(i).before
  in
  (* 1. A node is marked once every arc of its old next-hop set is
     raised or leads to a marked node; marking re-examines the tails
     of the node's old tight in-arcs. *)
  let marked = ref [] and pending = ref [] in
  let examine x =
    if
      lab.(x) <> unreachable
      && Array.for_all
           (fun id -> raised id || lab.(dsts.(id)) = unreachable)
           old_next.(x)
    then begin
      lab.(x) <- unreachable;
      marked := x :: !marked;
      pending := x :: !pending
    end
  in
  Array.iter
    (fun e ->
      if e.after > e.before && tight e.before ~head:d.(e.v) ~tail:d.(e.u) then
        examine e.u)
    edits;
  let rec propagate () =
    match !pending with
    | [] -> ()
    | x :: rest ->
        pending := rest;
        for k = in_off.(x) to in_off.(x + 1) - 1 do
          let id = in_ids.(k) in
          let z = srcs.(id) in
          if lab.(z) <> unreachable && tight (old_weight id) ~head:d.(x) ~tail:d.(z)
          then examine z
        done;
        propagate ()
  in
  propagate ();
  (* 2. Seeds; every label stays an upper bound on the new distance. *)
  let push x l =
    lab.(x) <- l;
    Bucket_queue.add q ~prio:l x
  in
  List.iter
    (fun x ->
      let best = ref unreachable in
      for k = out_off.(x) to out_off.(x + 1) - 1 do
        let id = out_ids.(k) in
        let w = weights.(id) and l = lab.(dsts.(id)) in
        if w <> suppressed && l <> unreachable && w + l < !best then best := w + l
      done;
      if !best <> unreachable then push x !best)
    !marked;
  Array.iter
    (fun e ->
      let l = lab.(e.v) in
      if e.after < e.before && l <> unreachable && e.after + l < lab.(e.u) then
        push e.u (e.after + l))
    edits;
  (* 3. Re-settle. *)
  let moved = ref [] in
  let continue = ref true in
  while !continue do
    match Bucket_queue.pop_min q with
    | None -> continue := false
    | Some (_, x) ->
        if not settled.(x) then begin
          settled.(x) <- true;
          incr settles;
          let lx = lab.(x) in
          if lx <> d.(x) then moved := x :: !moved;
          for k = in_off.(x) to in_off.(x + 1) - 1 do
            let id = in_ids.(k) in
            let z = srcs.(id) and w = weights.(id) in
            if w <> suppressed && (not settled.(z)) && lx + w < lab.(z) then
              push z (lx + w)
          done
        end
  done;
  (* Marked nodes no seed reached are now unreachable. *)
  List.iter (fun x -> if not settled.(x) then moved := x :: !moved) !marked;
  let moved = !moved in
  let dist = match moved with [] -> d | _ -> lab in
  let next_arcs = buf.next in
  let refresh x =
    if next_arcs.(x) == old_next.(x) then begin
      let set =
        if x = t || dist.(x) = unreachable then [||]
        else Spf.node_next_arcs g ~weights ~dist x
      in
      if set != old_next.(x) then begin
        next_arcs.(x) <- set;
        if buf.keep then begin
          buf.log.(buf.logged) <- x;
          buf.logged <- buf.logged + 1
        end
      end
    end
  in
  Array.iter (fun e -> refresh e.u) edits;
  List.iter
    (fun x ->
      refresh x;
      (* An in-neighbour's set changes through this arc only if the arc
         was or is tight. *)
      for k = in_off.(x) to in_off.(x + 1) - 1 do
        let id = in_ids.(k) in
        let z = srcs.(id) in
        if
          tight (old_weight id) ~head:d.(x) ~tail:d.(z)
          || tight weights.(id) ~head:dist.(x) ~tail:dist.(z)
        then refresh z
      done)
    moved;
  let order_desc =
    match moved with
    | [] -> dag.Spf.order_desc
    | _ -> merge_order buf ~ins ~d ~dist dag.Spf.order_desc moved
  in
  { Spf.dst = t; dist; next_arcs; order_desc }

let validate g ~weights ~prev ~changes =
  if Array.length weights <> Graph.arc_count g then
    invalid_arg "Spf_delta.update: weights length mismatch";
  if Array.length prev <> Graph.node_count g then
    invalid_arg "Spf_delta.update: prev dags length mismatch";
  List.iter
    (fun c ->
      if c.arc < 0 || c.arc >= Graph.arc_count g then
        invalid_arg "Spf_delta.update: arc id out of range";
      if c.before <= 0 || c.after <= 0 then
        invalid_arg "Spf_delta.update: weights must be positive";
      if weights.(c.arc) <> c.after then
        invalid_arg "Spf_delta.update: weights/changes disagree")
    changes

let edits_of g ~weights ~prev ?active changes =
  validate g ~weights ~prev ~changes;
  (match active with
  | Some a when Array.length a <> Graph.node_count g ->
      invalid_arg "Spf_delta.update: active length mismatch"
  | _ -> ());
  List.filter_map
    (fun (c : change) ->
      if c.before = c.after then None
      else
        Some
          {
            id = c.arc;
            u = Graph.src g c.arc;
            v = Graph.dst g c.arc;
            before = c.before;
            after = c.after;
          })
    changes
  |> Array.of_list

let dirty_at ?active edits dag t =
  (match active with None -> true | Some a -> a.(t))
  &&
  let dist = dag.Spf.dist in
  let rec any i = i < Array.length edits && (touches dist edits.(i) || any (i + 1)) in
  any 0

let record ~dirty ~relabeled ~settles =
  if Metrics.enabled () then begin
    Metrics.incr_counter m_updates;
    Metrics.add m_rebuilds relabeled;
    Metrics.add m_patches (dirty - relabeled);
    Metrics.add m_settled settles;
    Metrics.observe m_dirty (float_of_int dirty)
  end

let update ?ws ?active g ~weights ~prev ~changes =
  let edits = edits_of g ~weights ~prev ?active changes in
  if Array.length edits = 0 then (prev, [])
  else begin
    let ws = match ws with Some w -> w | None -> workspace () in
    let n = Graph.node_count g in
    let dags = Array.copy prev in
    let ins = Array.make n 0 in
    let dirty = ref [] and relabeled = ref 0 and settles = ref 0 in
    for t = n - 1 downto 0 do
      let dag = prev.(t) in
      if dirty_at ?active edits dag t then begin
        let buf =
          {
            lab = Array.copy dag.Spf.dist;
            next = Array.copy dag.Spf.next_arcs;
            src_next = dag.Spf.next_arcs;
            log = [||];
            logged = 0;
            orders = [];
            keep = false;
          }
        in
        let next =
          repair g ~weights ~edits ~settles ~ins
            (Dijkstra.repair_scratch ws n) dag buf
        in
        if next.Spf.dist != dag.Spf.dist then incr relabeled;
        dags.(t) <- next;
        dirty := t :: !dirty
      end
    done;
    record ~dirty:(List.length !dirty) ~relabeled:!relabeled ~settles:!settles;
    (dags, !dirty)
  end

(* ------------------------------------------------------------------ *)
(* Scratch updates: the same screen and kernel, writing into buffers a
   caller reuses across updates instead of fresh arrays.

   [view] mirrors [view_src] (the [prev] of the last update) outside
   the last update's dirty slots, so an update against the same [prev]
   only undoes those; any other [prev] is blitted in whole.  Each
   destination repairs in a slot of its own ([slot_of], created on its
   first repair): the slot's labels are copied in (a plain int loop),
   and its next-hop spine, which mirrors the spine it was last given,
   only needs its logged writes undone while the destination's dag is
   unchanged — a full blit of a pointer array pays the write barrier
   per element.  The pool holds at most one slot (3n words) per
   destination ever repaired, no more than the dags themselves. *)

type scratch = {
  mutable view : Spf.dag array;
  mutable view_src : Spf.dag array;
  mutable dirty : int array;
  mutable ndirty : int;
  mutable slot_of : buf option array;
  mutable ins : int array;
}

let scratch () =
  { view = [||]; view_src = [||]; dirty = [||]; ndirty = 0; slot_of = [||]; ins = [||] }

(* Destination [t]'s slot, its spine equal to [dag]'s and its labels a
   copy of [dag]'s. *)
let claim s n t dag =
  let b =
    match s.slot_of.(t) with
    | Some b -> b
    | None ->
        let b =
          {
            lab = Array.make n 0;
            next = Array.make n [||];
            src_next = [||];
            log = Array.make n 0;
            logged = 0;
            orders = [];
            keep = true;
          }
        in
        s.slot_of.(t) <- Some b;
        b
  in
  let old_next = dag.Spf.next_arcs in
  if b.src_next == old_next then
    for k = 0 to b.logged - 1 do
      let x = b.log.(k) in
      b.next.(x) <- old_next.(x)
    done
  else begin
    Array.blit old_next 0 b.next 0 n;
    b.src_next <- old_next
  end;
  b.logged <- 0;
  let d = dag.Spf.dist and lab = b.lab in
  for x = 0 to n - 1 do
    Array.unsafe_set lab x (Array.unsafe_get d x)
  done;
  b

let update_scratch s ~ws ?active g ~weights ~prev ~changes =
  let edits = edits_of g ~weights ~prev ?active changes in
  let n = Graph.node_count g in
  if Array.length s.view <> n then begin
    s.view <- Array.copy prev;
    s.view_src <- prev;
    s.dirty <- Array.make n 0;
    s.slot_of <- Array.make n None;
    s.ins <- Array.make n 0;
    s.ndirty <- 0
  end
  else if s.view_src != prev then begin
    Array.blit prev 0 s.view 0 n;
    s.view_src <- prev
  end
  else
    for k = 0 to s.ndirty - 1 do
      let t = s.dirty.(k) in
      s.view.(t) <- prev.(t)
    done;
  s.ndirty <- 0;
  if Array.length edits > 0 then begin
    let relabeled = ref 0 and settles = ref 0 in
    for t = 0 to n - 1 do
      let dag = prev.(t) in
      if dirty_at ?active edits dag t then begin
        let buf = claim s n t dag in
        let next =
          repair g ~weights ~edits ~settles ~ins:s.ins
            (Dijkstra.repair_scratch ws n) dag buf
        in
        if next.Spf.dist != dag.Spf.dist then incr relabeled;
        s.view.(t) <- next;
        s.dirty.(s.ndirty) <- t;
        s.ndirty <- s.ndirty + 1
      end
    done;
    record ~dirty:s.ndirty ~relabeled:!relabeled ~settles:!settles
  end

let scratch_dags s = s.view

let scratch_dirty s = s.ndirty

let scratch_dirty_at s i = s.dirty.(i)
