let unreachable = max_int

(* Arcs carrying this weight are treated as absent.  The sentinel is
   positive (so weight validation passes) but must never enter the
   relaxation arithmetic: [dist + suppressed] wraps negative and would
   win every comparison, so each kernel skips suppressed arcs
   explicitly. *)
let suppressed = max_int

module Metrics = Dtr_util.Metrics

(* Every full single-destination or single-source run counts here,
   with its bucket-queue traffic.  Spf_delta's bounded repairs are not
   full runs and use no bucket queue: they count their re-settled
   labels on their own counter. *)
let m_spf_runs =
  Metrics.counter ~help:"Full single-destination SPF (Dijkstra) runs."
    "dtr_spf_runs_total"

let m_bucket_adds =
  Metrics.counter ~help:"Bucket-queue insertions across all SPF runs."
    "dtr_spf_bucket_adds_total"

let m_bucket_pops =
  Metrics.counter ~help:"Bucket-queue pops across all SPF runs."
    "dtr_spf_bucket_pops_total"

let validate_weights g ~weights =
  if Array.length weights <> Graph.arc_count g then
    invalid_arg "Dijkstra: weights length mismatch";
  Array.iter
    (fun w -> if w <= 0 then invalid_arg "Dijkstra: weights must be positive")
    weights

let validate_node g ~node =
  if node < 0 || node >= Graph.node_count g then
    invalid_arg "Dijkstra: node out of range"

let validate g ~weights ~node =
  validate_weights g ~weights;
  validate_node g ~node

(* Preallocated arena for the per-run scratch state: the settled set
   and the bucket queue are reused across runs (sized lazily from the
   graph), so a sweep over all destinations allocates only the
   distance arrays its dags keep. *)
type workspace = {
  mutable settled : bool array;
  queue : Dtr_util.Bucket_queue.t;
}

let workspace () = { settled = [||]; queue = Dtr_util.Bucket_queue.create () }

let scratch ws n =
  if Array.length ws.settled < n then ws.settled <- Array.make n false
  else Array.fill ws.settled 0 n false;
  Dtr_util.Bucket_queue.clear ws.queue;
  (ws.settled, ws.queue)

(* Dial's algorithm over the flat CSR rows: weights are bounded
   positive integers, so tentative distances are monotone integer
   priorities and a bucket queue settles the whole graph in
   O(m + maxdist) — no comparisons, no boxed float keys, no per-node
   adjacency allocation.  [off]/[ids] are the CSR adjacency for the
   search direction and [endpoint.(id)] the neighbor reached through
   arc [id].  The distance array is fresh (callers keep it); settled
   set and queue come from the workspace when given. *)
let run_flat ?ws n ~off ~ids ~endpoint ~weights ~start =
  (* Hoisted metrics guard: when disabled the loop body pays one
     predicted branch per queue op; totals are added once per run. *)
  let mon = Metrics.enabled () in
  let adds = ref 1 and pops = ref 0 in
  let dist = Array.make n unreachable in
  let settled, q =
    match ws with
    | Some ws -> scratch ws n
    | None -> (Array.make n false, Dtr_util.Bucket_queue.create ())
  in
  dist.(start) <- 0;
  Dtr_util.Bucket_queue.add q ~prio:0 start;
  let continue = ref true in
  while !continue do
    match Dtr_util.Bucket_queue.pop_min q with
    | None -> continue := false
    | Some (_, v) ->
        if mon then incr pops;
        if not settled.(v) then begin
          settled.(v) <- true;
          let dv = dist.(v) in
          for k = off.(v) to off.(v + 1) - 1 do
            let id = ids.(k) in
            let u = endpoint.(id) in
            if (not settled.(u)) && weights.(id) <> suppressed then begin
              let cand = dv + weights.(id) in
              if cand < dist.(u) then begin
                dist.(u) <- cand;
                if mon then incr adds;
                Dtr_util.Bucket_queue.add q ~prio:cand u
              end
            end
          done
        end
  done;
  if mon then begin
    Metrics.incr_counter m_spf_runs;
    Metrics.add m_bucket_adds !adds;
    Metrics.add m_bucket_pops !pops
  end;
  dist

let distances_to_unchecked ?ws g ~weights ~dst =
  validate_node g ~node:dst;
  run_flat ?ws (Graph.node_count g) ~off:(Graph.in_offsets g)
    ~ids:(Graph.in_arc_ids g) ~endpoint:(Graph.srcs g) ~weights ~start:dst

let distances_to g ~weights ~dst =
  validate_weights g ~weights;
  distances_to_unchecked g ~weights ~dst

let distances_from g ~weights ~src =
  validate g ~weights ~node:src;
  run_flat (Graph.node_count g) ~off:(Graph.out_offsets g)
    ~ids:(Graph.out_arc_ids g) ~endpoint:(Graph.dsts g) ~weights ~start:src
