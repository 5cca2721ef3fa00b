(* CSR-style flat-array graph core.

   Arcs live in four parallel rows indexed by arc id (src, dst,
   capacity, delay); adjacency is offset-indexed into two flat id
   arrays (out_ids / in_ids) instead of a per-node array of arrays.
   Within a node's segment arc ids appear in ascending order — the
   same enumeration order the previous record-based representation
   produced — so everything downstream that depends on iteration
   order (tight-arc lists, load summation) is bit-identical.

   A second per-source index (out_by_dst, sorted by (dst, id) within
   each segment) backs the binary-search find_arc without disturbing
   the canonical enumeration order.

   OCaml float arrays are already unboxed flat buffers, so cap/del
   are the flat per-arc float rows — no Bigarray needed. *)

type arc = { src : int; dst : int; capacity : float; delay : float }

type t = {
  n : int;
  m : int;
  arc_src : int array;  (* m: source node per arc id *)
  arc_dst : int array;  (* m: destination node per arc id *)
  cap : float array;  (* m: capacity per arc id; shared, never mutated *)
  del : float array;  (* m: delay per arc id; shared, never mutated *)
  out_off : int array;  (* n+1: segment offsets into out_ids *)
  out_ids : int array;  (* m: arc ids leaving each node *)
  in_off : int array;  (* n+1: segment offsets into in_ids *)
  in_ids : int array;  (* m: arc ids entering each node *)
  out_by_dst : int array;
      (* out_ids re-sorted by (dst, id) within each source segment,
         for binary-search find_arc *)
  links : (int * int) array;
      (* the physical links, built once: see undirected_link_pairs *)
}

let validate_arc n a =
  if a.src < 0 || a.src >= n then invalid_arg "Graph.build: src out of range";
  if a.dst < 0 || a.dst >= n then invalid_arg "Graph.build: dst out of range";
  if a.src = a.dst then invalid_arg "Graph.build: self-loop";
  if a.capacity <= 0. then invalid_arg "Graph.build: non-positive capacity";
  if a.delay < 0. then invalid_arg "Graph.build: negative delay"

(* Counting sort by endpoint: a stable pass over ascending arc ids, so
   each node's segment lists its arcs in ascending id order. *)
let segment_index n m endpoint =
  let off = Array.make (n + 1) 0 in
  for id = 0 to m - 1 do
    let v = endpoint.(id) in
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Array.make m 0 in
  let pos = Array.sub off 0 n in
  for id = 0 to m - 1 do
    let v = endpoint.(id) in
    ids.(pos.(v)) <- id;
    pos.(v) <- pos.(v) + 1
  done;
  (off, ids)

(* Pair each arc with the lowest-id unpaired reverse twin, in id
   order; an arc without one is a link of its own.  A twin has the
   higher id (an unpaired lower one would have taken this arc when its
   turn came), so the pairs come out sorted. *)
let link_pairs ~m ~arc_src ~arc_dst ~out_off ~out_ids =
  let paired = Array.make m false in
  let pairs = Array.make m (0, 0) and count = ref 0 in
  for id = 0 to m - 1 do
    if not paired.(id) then begin
      paired.(id) <- true;
      let v = arc_dst.(id) in
      let twin = ref id and k = ref out_off.(v) in
      while !twin = id && !k < out_off.(v + 1) do
        let rid = out_ids.(!k) in
        if (not paired.(rid)) && arc_dst.(rid) = arc_src.(id) then twin := rid;
        incr k
      done;
      paired.(!twin) <- true;
      pairs.(!count) <- (id, !twin);
      incr count
    end
  done;
  Array.sub pairs 0 !count

(* The graph of [n] nodes and the (valid) [arcs], indexed by id. *)
let of_arcs ~n arcs =
  let m = Array.length arcs in
  let arc_src = Array.make m 0 and arc_dst = Array.make m 0 in
  let cap = Array.make m 0. and del = Array.make m 0. in
  Array.iteri
    (fun id a ->
      arc_src.(id) <- a.src;
      arc_dst.(id) <- a.dst;
      cap.(id) <- a.capacity;
      del.(id) <- a.delay)
    arcs;
  let out_off, out_ids = segment_index n m arc_src in
  let in_off, in_ids = segment_index n m arc_dst in
  let out_by_dst = Array.copy out_ids in
  for v = 0 to n - 1 do
    let lo = out_off.(v) in
    let len = out_off.(v + 1) - lo in
    if len > 1 then begin
      let seg = Array.sub out_by_dst lo len in
      Array.sort
        (fun a b ->
          let c = compare arc_dst.(a) arc_dst.(b) in
          if c <> 0 then c else compare a b)
        seg;
      Array.blit seg 0 out_by_dst lo len
    end
  done;
  { n; m; arc_src; arc_dst; cap; del; out_off; out_ids; in_off; in_ids;
    out_by_dst; links = link_pairs ~m ~arc_src ~arc_dst ~out_off ~out_ids }

let build ~n arcs =
  if n <= 0 then invalid_arg "Graph.build: need at least one node";
  let arcs = Array.of_list arcs in
  Array.iter (validate_arc n) arcs;
  of_arcs ~n arcs

let node_count t = t.n

let arc_count t = t.m

let arc t id =
  if id < 0 || id >= t.m then invalid_arg "Graph.arc: bad id";
  { src = t.arc_src.(id);
    dst = t.arc_dst.(id);
    capacity = t.cap.(id);
    delay = t.del.(id) }

let arcs t =
  Array.init t.m (fun id ->
      { src = t.arc_src.(id);
        dst = t.arc_dst.(id);
        capacity = t.cap.(id);
        delay = t.del.(id) })

(* O(1) non-allocating per-arc accessors for hot paths. *)
let src t id = t.arc_src.(id)
let dst t id = t.arc_dst.(id)
let capacity t id = t.cap.(id)
let delay t id = t.del.(id)

(* Raw CSR views: shared rows, callers must not mutate. *)
let srcs t = t.arc_src
let dsts t = t.arc_dst
let out_offsets t = t.out_off
let out_arc_ids t = t.out_ids
let in_offsets t = t.in_off
let in_arc_ids t = t.in_ids

let out_arcs t v = Array.sub t.out_ids t.out_off.(v) (t.out_off.(v + 1) - t.out_off.(v))

let in_arcs t v = Array.sub t.in_ids t.in_off.(v) (t.in_off.(v + 1) - t.in_off.(v))

let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)

let in_degree t v = t.in_off.(v + 1) - t.in_off.(v)

(* Leftmost entry with matching dst in the (dst, id)-sorted segment:
   ties sort by ascending id, so this returns the lowest-id arc
   src -> dst, matching the old linear scan's first-match answer. *)
let find_arc t ~src ~dst =
  let lo = ref t.out_off.(src) and hi = ref t.out_off.(src + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.arc_dst.(t.out_by_dst.(mid)) < dst then lo := mid + 1 else hi := mid
  done;
  if !lo < t.out_off.(src + 1) && t.arc_dst.(t.out_by_dst.(!lo)) = dst then
    Some t.out_by_dst.(!lo)
  else None

(* Cached shared rows — no per-call allocation. *)
let capacities t = t.cap

let delays t = t.del

let reachable_count t ~off ~ids ~endpoint start =
  let seen = Array.make t.n false in
  let stack = ref [ start ] in
  seen.(start) <- true;
  let count = ref 0 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        incr count;
        for k = off.(v) to off.(v + 1) - 1 do
          let u = endpoint.(ids.(k)) in
          if not seen.(u) then begin
            seen.(u) <- true;
            stack := u :: !stack
          end
        done
  done;
  !count

let is_strongly_connected t =
  if t.n = 0 then true
  else begin
    let fwd =
      reachable_count t ~off:t.out_off ~ids:t.out_ids ~endpoint:t.arc_dst 0
    in
    let bwd =
      reachable_count t ~off:t.in_off ~ids:t.in_ids ~endpoint:t.arc_src 0
    in
    fwd = t.n && bwd = t.n
  end

(* One iterative lowpoint DFS per component that holds an endpoint,
   rooted at that endpoint, over the undirected multigraph (a node's
   neighbours are its out-arcs' heads, then its in-arcs' tails; the
   edge back to the parent may count toward [low], which never turns
   [low.(c) >= disc.(p)] false).  The parts that a cut vertex [p]
   separates, other than the one holding the root, are exactly the
   subtrees of its children [c] with [low.(c) >= disc.(p)]: such a
   subtree with no endpoint is off-core, and so is everything below
   it.  A component with no endpoint is never entered. *)
let off_core t ~endpoints =
  if Array.length endpoints <> t.n then
    invalid_arg "Graph.off_core: endpoints length mismatch";
  let n = t.n in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let parent = Array.make n (-1) and held = Array.make n 0 in
  let next = Array.make n 0 and preorder = Array.make n 0 in
  let stack = Array.make n 0 in
  let time = ref 0 in
  let visit v p =
    disc.(v) <- !time;
    low.(v) <- !time;
    preorder.(!time) <- v;
    incr time;
    parent.(v) <- p
  in
  for root = 0 to n - 1 do
    if endpoints.(root) && disc.(root) < 0 then begin
      visit root (-1);
      stack.(0) <- root;
      let sp = ref 1 in
      while !sp > 0 do
        let v = stack.(!sp - 1) in
        let i = next.(v) in
        let outs = t.out_off.(v + 1) - t.out_off.(v) in
        if i < outs + t.in_off.(v + 1) - t.in_off.(v) then begin
          next.(v) <- i + 1;
          let w =
            if i < outs then t.arc_dst.(t.out_ids.(t.out_off.(v) + i))
            else t.arc_src.(t.in_ids.(t.in_off.(v) + i - outs))
          in
          if disc.(w) < 0 then begin
            visit w v;
            stack.(!sp) <- w;
            incr sp
          end
          else if disc.(w) < low.(v) then low.(v) <- disc.(w)
        end
        else begin
          decr sp;
          if endpoints.(v) then held.(v) <- held.(v) + 1;
          let p = parent.(v) in
          if p >= 0 then begin
            if low.(v) < low.(p) then low.(p) <- low.(v);
            held.(p) <- held.(p) + held.(v)
          end
        end
      done
    end
  done;
  let off = Array.make n true in
  for i = 0 to !time - 1 do
    let v = preorder.(i) in
    let p = parent.(v) in
    off.(v) <- p >= 0 && (off.(p) || (held.(v) = 0 && low.(v) >= disc.(p)))
  done;
  off

(* Both numberings ascend with the original ids, so the subgraph's
   adjacency segments list its arcs in the order [t]'s list them. *)
let induced t ~keep =
  if Array.length keep <> t.n then invalid_arg "Graph.induced: keep length mismatch";
  let at = Array.make t.n (-1) and c = ref 0 in
  for v = 0 to t.n - 1 do
    if keep.(v) then begin
      at.(v) <- !c;
      incr c
    end
  done;
  let nodes = Array.make !c 0 in
  Array.iteri (fun v i -> if i >= 0 then nodes.(i) <- v) at;
  let kept id = keep.(t.arc_src.(id)) && keep.(t.arc_dst.(id)) in
  let ids = Array.of_list (List.filter kept (List.init t.m Fun.id)) in
  let arcs =
    Array.map
      (fun id ->
        { src = at.(t.arc_src.(id)); dst = at.(t.arc_dst.(id)); capacity = t.cap.(id);
          delay = t.del.(id) })
      ids
  in
  (of_arcs ~n:!c arcs, nodes, ids)

let reverse t =
  let flipped = ref [] in
  for id = t.m - 1 downto 0 do
    flipped :=
      { src = t.arc_dst.(id);
        dst = t.arc_src.(id);
        capacity = t.cap.(id);
        delay = t.del.(id) }
      :: !flipped
  done;
  build ~n:t.n !flipped

let add_symmetric ~capacity ~delay u v acc =
  { src = u; dst = v; capacity; delay }
  :: { src = v; dst = u; capacity; delay }
  :: acc

let undirected_link_pairs t = t.links

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph g {\n";
  for id = 0 to t.m - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %d -> %d [label=\"a%d c=%.0f d=%.1f\"];\n"
         t.arc_src.(id) t.arc_dst.(id) id t.cap.(id) t.del.(id))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
