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

(* The order under the new labels [dist]: [old] (sorted under the old
   labels [d]) without the [moved] nodes, merged with those of them
   that are still reachable.  [moved] comes in non-increasing label
   order (the reverse of the re-settle order), so an insertion sort
   only has ties to fix. *)
let merge_order ~d ~dist old moved =
  let ins = Array.of_list (List.filter (fun x -> dist.(x) <> unreachable) moved) in
  for k = 1 to Array.length ins - 1 do
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
  let order = Array.make (Array.length old - gone + Array.length ins) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to Array.length order - 1 do
    while !i < Array.length old && dist.(old.(!i)) <> d.(old.(!i)) do
      incr i
    done;
    if
      !j < Array.length ins
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
   (Ramalingam–Reps, over incoming arcs).  The new label row starts as
   a copy of the old one and is repaired in place:

   1. mark the nodes whose every old shortest path uses a raised (or
      suppressed) arc — they lose their label;
   2. seed each marked node from its unmarked out-neighbours, and the
      tail of each dropped arc from the arc's head;
   3. re-settle from those seeds with a bucket-queue Dijkstra whose
      labels start at the old (upper-bound) values, so it stops where
      labels stop moving.

   Only nodes whose label moved, their in-neighbours and the changed
   arcs' tails can change their next-hop set; the rest of the dag is
   shared, and the moved nodes are merged into the old order.  The
   result is structurally the dag {!Spf.to_destination} builds. *)
let repair g ~weights ~edits ~settles (settled, q) dag =
  let t = dag.Spf.dst and d = dag.Spf.dist and old_next = dag.Spf.next_arcs in
  let lab = Array.copy d in
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
  let next_arcs = Array.copy old_next in
  let refresh x =
    if next_arcs.(x) == old_next.(x) then
      next_arcs.(x) <-
        (if x = t || dist.(x) = unreachable then [||]
         else Spf.node_next_arcs g ~weights ~dist x)
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
    | _ -> merge_order ~d ~dist dag.Spf.order_desc moved
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

let update ?ws ?active g ~weights ~prev ~changes =
  validate g ~weights ~prev ~changes;
  (match active with
  | Some a when Array.length a <> Graph.node_count g ->
      invalid_arg "Spf_delta.update: active length mismatch"
  | _ -> ());
  let edits =
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
  in
  if Array.length edits = 0 then (prev, [])
  else begin
    let ws = match ws with Some w -> w | None -> workspace () in
    let n = Graph.node_count g in
    let dags = Array.copy prev in
    let dirty = ref [] and relabeled = ref 0 and settles = ref 0 in
    let is_active =
      match active with None -> fun _ -> true | Some a -> fun t -> a.(t)
    in
    for t = n - 1 downto 0 do
      let dag = prev.(t) in
      if is_active t && Array.exists (touches dag.Spf.dist) edits then begin
        let next =
          repair g ~weights ~edits ~settles (Dijkstra.repair_scratch ws n) dag
        in
        if next.Spf.dist != dag.Spf.dist then incr relabeled;
        dags.(t) <- next;
        dirty := t :: !dirty
      end
    done;
    if Metrics.enabled () then begin
      let count = List.length !dirty in
      Metrics.incr_counter m_updates;
      Metrics.add m_rebuilds !relabeled;
      Metrics.add m_patches (count - !relabeled);
      Metrics.add m_settled !settles;
      Metrics.observe m_dirty (float_of_int count)
    end;
    (dags, !dirty)
  end
