type dag = {
  dst : int;
  dist : int array;
  next_arcs : int array array;
  order_desc : int array;
}

(* Arc [id] out of [v] lies on a shortest path to the destination. *)
let[@inline] on_path ~weights ~dist ~dsts v id =
  let d = dist.(dsts.(id)) in
  d <> Dijkstra.unreachable
  && weights.(id) <> Dijkstra.suppressed
  && weights.(id) + d = dist.(v)

let node_next_arcs g ~weights ~dist ~old v =
  (* Two passes over the CSR out-segment: count (checking the set
     against [old] on the way), then fill — no intermediate list on
     this very hot path, and no allocation at all when [old] already
     holds the set.  The segment lists arc ids in ascending order, so
     the set does too. *)
  let off = Graph.out_offsets g and ids = Graph.out_arc_ids g in
  let dsts = Graph.dsts g in
  let lo = off.(v) and hi = off.(v + 1) in
  let count = ref 0 and same = ref true in
  for k = lo to hi - 1 do
    let id = ids.(k) in
    if on_path ~weights ~dist ~dsts v id then begin
      if !count >= Array.length old || old.(!count) <> id then same := false;
      incr count
    end
  done;
  if !same && !count = Array.length old then old
  else begin
    let keep = Array.make !count 0 in
    let pos = ref 0 in
    for k = lo to hi - 1 do
      let id = ids.(k) in
      if on_path ~weights ~dist ~dsts v id then begin
        keep.(!pos) <- id;
        incr pos
      end
    done;
    keep
  end

let of_dist g ~weights ~dst ~dist =
  let n = Graph.node_count g in
  let next_arcs =
    Array.init n (fun v ->
        if v = dst || dist.(v) = Dijkstra.unreachable then [||]
        else node_next_arcs g ~weights ~dist ~old:[||] v)
  in
  (* Decreasing distance, ties by increasing node id, by one counting
     pass: [slot.(far - d)] is the next free position for distance [d],
     and ids are placed in ascending order.  O(n + far), the order of
     the Dial sweep that produced [dist]. *)
  let reachable v = v <> dst && dist.(v) <> Dijkstra.unreachable in
  let count = ref 0 and far = ref 0 in
  for v = 0 to n - 1 do
    if reachable v then begin
      incr count;
      if dist.(v) > !far then far := dist.(v)
    end
  done;
  let far = !far in
  let slot = Array.make (far + 1) 0 in
  for v = 0 to n - 1 do
    if reachable v then slot.(far - dist.(v)) <- slot.(far - dist.(v)) + 1
  done;
  let start = ref 0 in
  for b = 0 to far do
    let c = slot.(b) in
    slot.(b) <- !start;
    start := !start + c
  done;
  let order_desc = Array.make !count 0 in
  for v = 0 to n - 1 do
    if reachable v then begin
      let b = far - dist.(v) in
      order_desc.(slot.(b)) <- v;
      slot.(b) <- slot.(b) + 1
    end
  done;
  { dst; dist; next_arcs; order_desc }

let to_destination g ~weights ~dst =
  let dist = Dijkstra.distances_to g ~weights ~dst in
  of_dist g ~weights ~dst ~dist

(* Placeholder for destinations excluded from a subset build: carries
   only the destination id.  Nothing downstream may read its (empty)
   labels — Eval_ctx guarantees that by keeping every excluded
   destination's demand row empty.  Its contexts build on the demand
   core's subgraph, numbered densely, so a placeholder there carries a
   core node's id, and the context's original-id views rebuild it
   under the destination's own id. *)
let placeholder dst = { dst; dist = [||]; next_arcs = [||]; order_desc = [||] }

let is_placeholder dag = Array.length dag.dist = 0

let all_destinations ?ws g ~weights =
  (* Validate the weight vector once for the whole sweep; the
     per-destination O(m) re-scan used to dominate small evaluations.
     The workspace (fresh here when not supplied) reuses the settled
     set and bucket queue across all n runs. *)
  Dijkstra.validate_weights g ~weights;
  let ws = match ws with Some ws -> ws | None -> Dijkstra.workspace () in
  Array.init (Graph.node_count g) (fun dst ->
      let dist = Dijkstra.distances_to_unchecked ~ws g ~weights ~dst in
      of_dist g ~weights ~dst ~dist)

let for_destinations ?ws g ~weights ~active =
  Dijkstra.validate_weights g ~weights;
  let n = Graph.node_count g in
  if Array.length active <> n then
    invalid_arg "Spf.for_destinations: active length mismatch";
  let ws = match ws with Some ws -> ws | None -> Dijkstra.workspace () in
  Array.init n (fun dst ->
      if not active.(dst) then placeholder dst
      else begin
        let dist = Dijkstra.distances_to_unchecked ~ws g ~weights ~dst in
        of_dist g ~weights ~dst ~dist
      end)

let path_count g dag ~src =
  let n = Array.length dag.dist in
  if src < 0 || src >= n then invalid_arg "Spf.path_count: src out of range";
  if dag.dist.(src) = Dijkstra.unreachable then 0.
  else begin
    let counts = Array.make n (-1.) in
    counts.(dag.dst) <- 1.;
    (* order_desc is decreasing in distance; walk it reversed so every
       next-hop (strictly closer to dst) is counted first. *)
    for i = Array.length dag.order_desc - 1 downto 0 do
      let v = dag.order_desc.(i) in
      let acc = ref 0. in
      Array.iter
        (fun id -> acc := !acc +. counts.(Graph.dst g id))
        dag.next_arcs.(v);
      counts.(v) <- !acc
    done;
    counts.(src)
  end

let first_path g dag ~src =
  if dag.dist.(src) = Dijkstra.unreachable then
    invalid_arg "Spf.first_path: unreachable";
  let rec go v acc =
    if v = dag.dst then List.rev acc
    else begin
      let best = ref max_int in
      Array.iter (fun id -> if id < !best then best := id) dag.next_arcs.(v);
      assert (!best <> max_int);
      go (Graph.dst g !best) (!best :: acc)
    end
  in
  go src []
