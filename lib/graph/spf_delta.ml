type change = { arc : int; before : int; after : int }

module Metrics = Dtr_util.Metrics

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

let unreachable = Dijkstra.unreachable

let suppressed = Dijkstra.suppressed

(* One effective change with its arc's endpoints resolved. *)
type edit = { id : int; u : int; v : int; before : int; after : int }

(* An arc of weight [w] whose head is labelled [head] lies on a
   shortest path from its tail, labelled [tail]. *)
let[@inline] tight w ~head ~tail =
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
let[@inline] label_test dist ~u ~v ~before ~after =
  let dv = dist.(v) and du = dist.(u) in
  if after < before then dv <> unreachable && after + dv <= du
  else tight before ~head:dv ~tail:du

let rec touches_any dist edits i =
  i < Array.length edits
  && (let e = edits.(i) in
      label_test dist ~u:e.u ~v:e.v ~before:e.before ~after:e.after
      || touches_any dist edits (i + 1))

(* Reachable nodes with distance [da] and id [a] precede those with
   [db] and [b] in [order_desc]. *)
let[@inline] precedes ~da a ~db b = (da : int) > db || (da = db && (a : int) < b)

(* ------------------------------------------------------------------ *)
(* The repair kernel's working state, reused from repair to repair and
   sized for one graph: int stacks of the marked nodes (which double as
   the marking worklist) and of the moved ones, a binary min-heap of
   packed [(label lsl shift) lor node] keys, per-node stamps that
   flag the nodes the current repair has settled or has recomputed the
   next-hop set of (a new repair takes a new stamp instead of clearing
   them), and per-arc stamps of the batch's edits with their old
   weights.  Nothing here is allocated per repair. *)
type kernel = {
  marked : int array;
  mutable nmarked : int;
  moved : int array;
  mutable nmoved : int;
  mutable heap : int array;
  mutable hsize : int;
  shift : int;  (* bits of a node id in a heap key *)
  label_bits : int;  (* bits a label may use above them *)
  settled : int array;
  seen : int array;
  mutable stamp : int;
  ins : int array;  (* merge scratch *)
  mutable settles : int;  (* labels settled since the caller last reset it *)
  mutable sets_moved : bool;  (* the last repair replaced a next-hop set *)
  edit_at : int array;  (* per arc: the [batch] stamp of the last batch editing it *)
  edit_before : int array;  (* per arc: its weight before that batch *)
  mutable batch : int;
}

let kernel ~n ~m =
  let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
  let shift = bits (n - 1) in
  {
    marked = Array.make n 0;
    nmarked = 0;
    moved = Array.make n 0;
    nmoved = 0;
    heap = Array.make (max n 16) 0;
    hsize = 0;
    shift;
    label_bits = Sys.int_size - 1 - shift;
    settled = Array.make n 0;
    seen = Array.make n 0;
    stamp = 0;
    ins = Array.make n 0;
    settles = 0;
    sets_moved = false;
    edit_at = Array.make m 0;
    edit_before = Array.make m 0;
    batch = 0;
  }

(* Stamp the batch the kernel repairs under into its per-arc rows, so
   the marking and refresh loops look an arc's edit up in O(1) instead
   of scanning the batch.  Stamped last to first, so an arc listed
   twice keeps its first edit, as a scan would find it. *)
let stamp_batch k edits =
  k.batch <- k.batch + 1;
  for i = Array.length edits - 1 downto 0 do
    let e = edits.(i) in
    k.edit_at.(e.id) <- k.batch;
    k.edit_before.(e.id) <- e.before
  done

(* Arc [id]'s weight before the stamped batch; the batch's [weights]
   hold each edit's new weight. *)
let[@inline] old_weight k weights id =
  if k.edit_at.(id) = k.batch then k.edit_before.(id) else weights.(id)

let[@inline] raised k weights id =
  k.edit_at.(id) = k.batch && weights.(id) > k.edit_before.(id)

let heap_push k key =
  if k.hsize = Array.length k.heap then begin
    let h = Array.make (2 * k.hsize) 0 in
    Array.blit k.heap 0 h 0 k.hsize;
    k.heap <- h
  end;
  let h = k.heap in
  let i = ref k.hsize in
  k.hsize <- k.hsize + 1;
  while !i > 0 && h.((!i - 1) / 2) > key do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- key

(* The least key; the heap must not be empty. *)
let heap_pop k =
  let h = k.heap in
  let top = h.(0) in
  let size = k.hsize - 1 in
  k.hsize <- size;
  if size > 0 then begin
    let key = h.(size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      if c >= size then sifting := false
      else begin
        let c = if c + 1 < size && h.(c + 1) < h.(c) then c + 1 else c in
        if h.(c) < key then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- key
  end;
  top

(* Lower [x]'s label to [l] and queue it. *)
let push k lab x l =
  if l lsr k.label_bits <> 0 then
    invalid_arg "Spf_delta.update: distance label out of range";
  lab.(x) <- l;
  heap_push k ((l lsl k.shift) lor x)

(* Mark [x] once it is labelled and every arc of its old next-hop set
   is raised or leads to a marked node. *)
let examine k ~weights ~dsts ~lab old_next x =
  if lab.(x) <> unreachable then begin
    let set = old_next.(x) in
    let i = ref 0 in
    while
      !i < Array.length set
      &&
      let id = set.(!i) in
      raised k weights id || lab.(dsts.(id)) = unreachable
    do
      incr i
    done;
    if !i = Array.length set then begin
      lab.(x) <- unreachable;
      k.marked.(k.nmarked) <- x;
      k.nmarked <- k.nmarked + 1
    end
  end

(* One destination's repair slot, where the kernel writes its result.
   On entry [lab] holds the old labels and [next] the old next-hop
   spine; the kernel repairs both in place, logging every [next]
   position it overwrites ([log]), and merges a changed order into the
   buffer of [orders] of the exact length.  The nodes whose label the
   repair moved are logged too ([lab_log]), so outside both logs the
   slot mirrors [src_next] and [src_dist], and its next repair against
   the same dag undoes just those writes.  A repair costs no
   allocation beyond the next-hop sets it replaces (and an order buffer
   of a length the slot has not held before). *)
type buf = {
  lab : int array;
  next : int array array;
  mutable src_next : int array array;
  log : int array;
  mutable logged : int;
  mutable src_dist : int array;
  lab_log : int array;
  mutable lab_logged : int;
  mutable orders : int array list;
}

let rec order_of_length orders len =
  match orders with
  | [] -> [||]
  | o :: rest -> if Array.length o = len then o else order_of_length rest len

let order_buffer buf len =
  let o = order_of_length buf.orders len in
  if Array.length o = len then o
  else begin
    let o = Array.make len 0 in
    buf.orders <- o :: buf.orders;
    o
  end

(* The first position in [lo, hi) of [old] (sorted by label desc under
   [d]) whose label is at most [l]; [hi] if none. *)
let rec first_at_most old d l lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    if d.(old.(mid)) <= l then first_at_most old d l lo mid
    else first_at_most old d l (mid + 1) hi
  end

(* [dst.(at + i) <- src.(from + i)] for [i < len]: a plain int loop,
   since a blit into an array in the major heap pays the write barrier
   per element. *)
let copy_ints (src : int array) from (dst : int array) at len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (at + i) (Array.unsafe_get src (from + i))
  done

(* The order under the new labels [dist]: [old] (sorted under the old
   labels [d]) without the moved nodes, merged with those of them that
   are still reachable.  The moved stack starts with the re-settled
   nodes in settle order — ascending (label, id), the heap's key order
   — so walking it back label group by label group, each group forward,
   lists them in the order's (label desc, id asc) without a sort.
   Entries of [old] labelled above or below every label a moved node
   had or has keep their places, counted from the front or the back, so
   only the entries between are merged. *)
let merge_order k buf ~d ~dist old =
  let moved = k.moved and ins = k.ins in
  let count = ref 0 and gone = ref 0 in
  let top = ref (-1) and bottom = ref unreachable in
  for i = 0 to k.nmoved - 1 do
    let l = d.(moved.(i)) in
    if l <> unreachable then begin
      incr gone;
      if l > !top then top := l;
      if l < !bottom then bottom := l
    end
  done;
  let hi = ref (k.nmoved - 1) in
  while !hi >= 0 do
    let l = dist.(moved.(!hi)) in
    if l = unreachable then decr hi
    else begin
      if l > !top then top := l;
      if l < !bottom then bottom := l;
      let lo = ref !hi in
      while !lo > 0 && dist.(moved.(!lo - 1)) = l do
        decr lo
      done;
      for i = !lo to !hi do
        ins.(!count) <- moved.(i);
        incr count
      done;
      hi := !lo - 1
    end
  done;
  let count = !count and n_old = Array.length old in
  let len = n_old - !gone + count in
  let order = order_buffer buf len in
  let front = first_at_most old d !top 0 n_old in
  let back = first_at_most old d (!bottom - 1) front n_old in
  copy_ints old 0 order 0 front;
  copy_ints old back order (len - (n_old - back)) (n_old - back);
  (* The next node to insert, and its label ([-1] once none is left:
     it precedes nothing).  The indices below are node ids and
     positions within the arrays' lengths. *)
  let j = ref 0 and o = ref front in
  let next = ref (if count > 0 then ins.(0) else 0) in
  let next_l = ref (if count > 0 then dist.(!next) else -1) in
  for i = front to back - 1 do
    let x = Array.unsafe_get old i in
    let l = Array.unsafe_get d x in
    if Array.unsafe_get dist x = l then begin
      while precedes ~da:!next_l !next ~db:l x do
        Array.unsafe_set order !o !next;
        incr o;
        incr j;
        if !j < count then begin
          next := ins.(!j);
          next_l := dist.(!next)
        end
        else next_l := -1
      done;
      Array.unsafe_set order !o x;
      incr o
    end
  done;
  copy_ints ins !j order !o (count - !j);
  order

(* Recompute node [x]'s next-hop set under [dist] (the set
   {!Spf.node_next_arcs} builds, kept as [old] when equal), replacing
   it in [next] and logging the write when it moved.  Each node is
   recomputed once per repair. *)
let refresh k g ~weights ~dist ~t ~old_next buf x =
  if k.seen.(x) <> k.stamp then begin
    k.seen.(x) <- k.stamp;
    let old = old_next.(x) in
    let set =
      if x <> t && dist.(x) <> unreachable then
        Spf.node_next_arcs g ~weights ~dist ~old x
      else if Array.length old = 0 then old
      else [||]
    in
    if set != old then begin
      buf.next.(x) <- set;
      k.sets_moved <- true;
      buf.log.(buf.logged) <- x;
      buf.logged <- buf.logged + 1
    end
  end

(* The same-flow rule, for a repair that replaced no next-hop set: the
   dag keeps its arcs, so every share is the same quotient of the same
   inflow, and a node's inflow is the same sum unless its upstream
   neighbours are added in another order ({!Loads}' walk adds them in
   [order_desc] order).  Neighbours that reach a node over unchanged
   tight arcs move by the node's own label shift, so they keep their
   relative places; only the tail of a changed arc on the dag can move
   among its head's upstream neighbours.  The destination's own inflow
   is never summed. *)
let keeps_flows g ~weights ~edits ~d ~dist t =
  let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
  let srcs = Graph.srcs g in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length edits do
    let e = edits.(!i) in
    incr i;
    let h = e.v and a = e.u in
    if h <> t && tight e.after ~head:dist.(h) ~tail:dist.(a) then begin
      let j = ref in_off.(h) in
      while !ok && !j < in_off.(h + 1) do
        let id = in_ids.(!j) in
        let z = srcs.(id) in
        incr j;
        if
          z <> a
          && tight weights.(id) ~head:dist.(h) ~tail:dist.(z)
          && precedes ~da:d.(z) z ~db:d.(a) a <> precedes ~da:dist.(z) z ~db:dist.(a) a
        then ok := false
      done
    end
  done;
  !ok

(* Bounded repair of one destination's dag under the whole batch
   (Ramalingam–Reps, over incoming arcs), in place in [buf]:

   1. mark the nodes whose every old shortest path uses a raised (or
      suppressed) arc — they lose their label;
   2. seed each marked node from its unmarked out-neighbours, and the
      tail of each dropped arc from the arc's head;
   3. re-settle from those seeds in (label, node) order, with labels
      starting at the old (upper-bound) values, so it stops where labels
      stop moving.

   Only nodes whose label moved, their in-neighbours and the changed
   arcs' tails can change their next-hop set; the rest of the spine is
   the old one, and the moved nodes are merged into the old order.
   The result is structurally the dag {!Spf.to_destination} builds; it
   shares the old labels and order when no label moved, and otherwise
   [buf]'s, and every next-hop set that did not change.  Afterwards
   [k.moved] lists the moved nodes and [k.sets_moved] tells whether a
   set was replaced. *)
let repair g k ~weights ~edits dag buf =
  let t = dag.Spf.dst and d = dag.Spf.dist and old_next = dag.Spf.next_arcs in
  let lab = buf.lab in
  let in_off = Graph.in_offsets g and in_ids = Graph.in_arc_ids g in
  let out_off = Graph.out_offsets g and out_ids = Graph.out_arc_ids g in
  let srcs = Graph.srcs g and dsts = Graph.dsts g in
  k.stamp <- k.stamp + 1;
  k.nmarked <- 0;
  k.nmoved <- 0;
  k.hsize <- 0;
  k.sets_moved <- false;
  let stamp = k.stamp and settled = k.settled in
  (* 1. Marking re-examines the tails of a marked node's old tight
     in-arcs; [marked] is its worklist. *)
  for i = 0 to Array.length edits - 1 do
    let e = edits.(i) in
    if e.after > e.before && tight e.before ~head:d.(e.v) ~tail:d.(e.u) then
      examine k ~weights ~dsts ~lab old_next e.u
  done;
  let i = ref 0 in
  while !i < k.nmarked do
    let x = k.marked.(!i) in
    incr i;
    for j = in_off.(x) to in_off.(x + 1) - 1 do
      let id = in_ids.(j) in
      let z = srcs.(id) in
      if
        lab.(z) <> unreachable
        && tight (old_weight k weights id) ~head:d.(x) ~tail:d.(z)
      then examine k ~weights ~dsts ~lab old_next z
    done
  done;
  (* 2. Seeds; every label stays an upper bound on the new distance. *)
  for i = 0 to k.nmarked - 1 do
    let x = k.marked.(i) in
    let best = ref unreachable in
    for j = out_off.(x) to out_off.(x + 1) - 1 do
      let id = out_ids.(j) in
      let y = dsts.(id) in
      let w = weights.(id) and l = lab.(y) in
      if w <> suppressed && l <> unreachable && w + l < !best then best := w + l
    done;
    if !best <> unreachable then push k lab x !best
  done;
  for i = 0 to Array.length edits - 1 do
    let e = edits.(i) in
    let l = lab.(e.v) in
    if e.after < e.before && l <> unreachable && e.after + l < lab.(e.u) then
      push k lab e.u (e.after + l)
  done;
  (* 3. Re-settle.  A node's first pop carries its final label. *)
  let node_of_key = (1 lsl k.shift) - 1 in
  while k.hsize > 0 do
    let x = heap_pop k land node_of_key in
    if settled.(x) <> stamp then begin
      settled.(x) <- stamp;
      k.settles <- k.settles + 1;
      let lx = lab.(x) in
      if lx <> d.(x) then begin
        k.moved.(k.nmoved) <- x;
        k.nmoved <- k.nmoved + 1
      end;
      for j = in_off.(x) to in_off.(x + 1) - 1 do
        let id = in_ids.(j) in
        let z = srcs.(id) and w = weights.(id) in
        if w <> suppressed && settled.(z) <> stamp && lx + w < lab.(z) then
          push k lab z (lx + w)
      done
    end
  done;
  (* Marked nodes no seed reached are now unreachable. *)
  for i = 0 to k.nmarked - 1 do
    let x = k.marked.(i) in
    if settled.(x) <> stamp then begin
      k.moved.(k.nmoved) <- x;
      k.nmoved <- k.nmoved + 1
    end
  done;
  let dist = if k.nmoved = 0 then d else lab in
  for i = 0 to Array.length edits - 1 do
    refresh k g ~weights ~dist ~t ~old_next buf edits.(i).u
  done;
  for i = 0 to k.nmoved - 1 do
    let x = k.moved.(i) in
    refresh k g ~weights ~dist ~t ~old_next buf x;
    (* An in-neighbour's set changes through this arc only if the arc
       was or is tight. *)
    for j = in_off.(x) to in_off.(x + 1) - 1 do
      let id = in_ids.(j) in
      let z = srcs.(id) in
      if
        tight (old_weight k weights id) ~head:d.(x) ~tail:d.(z)
        || tight weights.(id) ~head:dist.(x) ~tail:dist.(z)
      then refresh k g ~weights ~dist ~t ~old_next buf z
    done
  done;
  let order_desc =
    if k.nmoved = 0 then dag.Spf.order_desc
    else merge_order k buf ~d ~dist dag.Spf.order_desc
  in
  { Spf.dst = t; dist; next_arcs = buf.next; order_desc }

let rec validate_changes g ~weights = function
  | [] -> ()
  | c :: rest ->
      if c.arc < 0 || c.arc >= Graph.arc_count g then
        invalid_arg "Spf_delta.update: arc id out of range";
      if c.before <= 0 || c.after <= 0 then
        invalid_arg "Spf_delta.update: weights must be positive";
      if weights.(c.arc) <> c.after then
        invalid_arg "Spf_delta.update: weights/changes disagree";
      validate_changes g ~weights rest

let edits_of g ~weights ~prev ?active changes =
  if Array.length weights <> Graph.arc_count g then
    invalid_arg "Spf_delta.update: weights length mismatch";
  if Array.length prev <> Graph.node_count g then
    invalid_arg "Spf_delta.update: prev dags length mismatch";
  validate_changes g ~weights changes;
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

let touches g dag (c : change) =
  c.before <> c.after
  && label_test dag.Spf.dist ~u:(Graph.src g c.arc) ~v:(Graph.dst g c.arc)
       ~before:c.before ~after:c.after

let dirty_at active edits dag t =
  (match active with None -> true | Some a -> a.(t))
  && touches_any dag.Spf.dist edits 0

let record ~dirty ~relabeled ~settles =
  if Metrics.enabled () then begin
    Metrics.incr_counter m_updates;
    Metrics.add m_rebuilds relabeled;
    Metrics.add m_patches (dirty - relabeled);
    Metrics.add m_settled settles;
    Metrics.observe m_dirty (float_of_int dirty)
  end

(* ------------------------------------------------------------------ *)
(* Every update runs in a scratch: a caller's, reused across updates,
   or a fresh one that the pure {!update} copies its dags out of.

   [view] mirrors [view_src] (the [prev] of the last update) outside
   the last update's dirty slots, so an update against the same [prev]
   only undoes those; any other [prev] is blitted in whole.  Each
   destination repairs in a slot of its own ([slot_of], created on its
   first repair).  While the destination's dag is unchanged the slot's
   labels and next-hop spine only need the last repair's logged writes
   undone; against a new dag the labels are copied in by a plain int
   loop and the spine blitted (a full blit of a pointer array pays the
   write barrier per element).  The pool holds at most one slot (4n
   words) per destination ever repaired, about as much as the dags
   themselves. *)

type scratch = {
  mutable view : Spf.dag array;
  mutable view_src : Spf.dag array;
  mutable dirty : int array;
  mutable same_flows : bool array;
  mutable ndirty : int;
  mutable slot_of : buf option array;
  mutable kernel : kernel;
}

let scratch () =
  {
    view = [||];
    view_src = [||];
    dirty = [||];
    same_flows = [||];
    ndirty = 0;
    slot_of = [||];
    kernel = kernel ~n:1 ~m:0;
  }

(* Destination [t]'s slot, its spine equal to [dag]'s and its labels
   [dag]'s.  The labels' log is dropped until the repair completes, so
   a repair that raises leaves the slot to be copied in whole. *)
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
            src_dist = [||];
            lab_log = Array.make n 0;
            lab_logged = 0;
            orders = [];
          }
        in
        s.slot_of.(t) <- Some b;
        b
  in
  let old_next = dag.Spf.next_arcs in
  if b.src_next == old_next then
    for i = 0 to b.logged - 1 do
      let x = b.log.(i) in
      b.next.(x) <- old_next.(x)
    done
  else begin
    Array.blit old_next 0 b.next 0 n;
    b.src_next <- old_next
  end;
  b.logged <- 0;
  let d = dag.Spf.dist and lab = b.lab in
  if b.src_dist == d then
    for i = 0 to b.lab_logged - 1 do
      let x = b.lab_log.(i) in
      lab.(x) <- d.(x)
    done
  else
    for x = 0 to n - 1 do
      Array.unsafe_set lab x (Array.unsafe_get d x)
    done;
  b.src_dist <- [||];
  b.lab_logged <- 0;
  b

let update_scratch s ?active g ~weights ~prev ~changes =
  let edits = edits_of g ~weights ~prev ?active changes in
  let n = Graph.node_count g in
  if Array.length s.view <> n then begin
    s.view <- Array.copy prev;
    s.view_src <- prev;
    s.dirty <- Array.make n 0;
    s.same_flows <- Array.make n false;
    s.slot_of <- Array.make n None;
    s.ndirty <- 0
  end
  else if s.view_src != prev then begin
    Array.blit prev 0 s.view 0 n;
    s.view_src <- prev
  end
  else
    for i = 0 to s.ndirty - 1 do
      let t = s.dirty.(i) in
      s.view.(t) <- prev.(t)
    done;
  s.ndirty <- 0;
  if Array.length edits > 0 then begin
    let m = Graph.arc_count g in
    if Array.length s.kernel.settled <> n || Array.length s.kernel.edit_at <> m then
      s.kernel <- kernel ~n ~m;
    let k = s.kernel in
    stamp_batch k edits;
    k.settles <- 0;
    let relabeled = ref 0 in
    for t = 0 to n - 1 do
      let dag = prev.(t) in
      if dirty_at active edits dag t then begin
        let buf = claim s n t dag in
        let next = repair g k ~weights ~edits dag buf in
        (* The slot's labels now differ from [dag]'s at the moved nodes
           only. *)
        Array.blit k.moved 0 buf.lab_log 0 k.nmoved;
        buf.lab_logged <- k.nmoved;
        buf.src_dist <- dag.Spf.dist;
        if next.Spf.dist != dag.Spf.dist then incr relabeled;
        s.view.(t) <- next;
        s.dirty.(s.ndirty) <- t;
        s.same_flows.(s.ndirty) <-
          (not k.sets_moved)
          && keeps_flows g ~weights ~edits ~d:dag.Spf.dist ~dist:next.Spf.dist t;
        s.ndirty <- s.ndirty + 1
      end
    done;
    record ~dirty:s.ndirty ~relabeled:!relabeled ~settles:k.settles
  end

let scratch_dags s = s.view

let scratch_dirty s = s.ndirty

let scratch_dirty_at s i = s.dirty.(i)

let scratch_same_flows_at s i = s.same_flows.(i)

let own cur was = if cur == was then cur else Array.copy cur

(* A repaired dag's labels and order are [prev]'s (immutable) unless
   the repair moved them, and its spine is always the slot's. *)
let scratch_copy s =
  if s.ndirty = 0 then s.view_src
  else begin
    let dags = Array.copy s.view in
    for i = 0 to s.ndirty - 1 do
      let t = s.dirty.(i) in
      let d = dags.(t) and was = s.view_src.(t) in
      dags.(t) <-
        {
          d with
          Spf.dist = own d.Spf.dist was.Spf.dist;
          next_arcs = Array.copy d.Spf.next_arcs;
          order_desc = own d.Spf.order_desc was.Spf.order_desc;
        }
    done;
    dags
  end

let update ?ws:_ ?active g ~weights ~prev ~changes =
  let s = scratch () in
  update_scratch s ?active g ~weights ~prev ~changes;
  (scratch_copy s, List.init s.ndirty (Array.get s.dirty))
