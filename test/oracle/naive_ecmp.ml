(* A two-class evaluator that shares no kernel with the engine: no
   Dijkstra, SPF DAG, load projection, delay walk or evaluation
   context.  It reads only Graph accessors, Matrix entries and the cost
   definitions (Fortz.phi, Sla).

   - Distances: Floyd–Warshall over the arc weights.
   - Loads: for each OD pair on its own, the demand splits evenly at
     every hop over every tight out-arc — an arc (u, v) with
     w(u, v) + d(v, t) = d(u, t).  Parallel arcs are separate next
     hops, as in OSPF's per-hop ECMP.  It does not split per next-hop
     node, nor evenly per path.
   - Costs: Φ_H against full capacities, Φ_L against the residual
     [max(C − H, 0)] (paper §3); Λ sums the Eq. (4) penalty of every
     high-priority pair's expected delay under the same per-hop split,
     with Eq. (3) arc delays from the Φ_H row. *)

module Graph = Dtr_graph.Graph
module Matrix = Dtr_traffic.Matrix
module Fortz = Dtr_cost.Fortz
module Sla = Dtr_cost.Sla

let none = max_int

(** [d.(u).(t)]: least total weight of a path from [u] to [t];
    [max_int] when there is none. *)
let distances g ~weights =
  let n = Graph.node_count g in
  let d = Array.make_matrix n n none in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  for a = 0 to Graph.arc_count g - 1 do
    let u = Graph.src g a and v = Graph.dst g a in
    d.(u).(v) <- min d.(u).(v) weights.(a)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) <> none && d.(k).(j) <> none then
          d.(i).(j) <- min d.(i).(j) (d.(i).(k) + d.(k).(j))
      done
    done
  done;
  d

(* The arcs out of [u] that lie on a shortest path to [t]. *)
let tight g ~weights d u t =
  List.filter
    (fun a ->
      let v = Graph.dst g a in
      Graph.src g a = u && d.(v).(t) <> none && weights.(a) + d.(v).(t) = d.(u).(t))
    (List.init (Graph.arc_count g) Fun.id)

(** Per-arc loads of [tm] routed on [weights].
    @raise Invalid_argument on positive demand between a pair with no
    path. *)
let loads g ~weights tm =
  let d = distances g ~weights in
  let load = Array.make (Graph.arc_count g) 0. in
  let rec push u t f =
    if u <> t then begin
      let out = tight g ~weights d u t in
      let share = f /. float_of_int (List.length out) in
      List.iter
        (fun a ->
          load.(a) <- load.(a) +. share;
          push (Graph.dst g a) t share)
        out
    end
  in
  let n = Graph.node_count g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      let f = Matrix.get tm s t in
      if s <> t && f > 0. then begin
        if d.(s).(t) = none then invalid_arg "Naive_ecmp.loads: no path";
        push s t f
      end
    done
  done;
  load

type costs = { phi_h : float; phi_l : float; lambda : float }

(** Φ_H, Φ_L and, under [Some params], Λ ([nan] otherwise) of the
    dual setting [(wh, wl)]. *)
let evaluate ?sla g ~wh ~wl ~th ~tl =
  let m = Graph.arc_count g in
  let h = loads g ~weights:wh th and l = loads g ~weights:wl tl in
  let phi_h_arc =
    Array.init m (fun a -> Fortz.phi ~load:h.(a) ~capacity:(Graph.capacity g a))
  in
  let sum f = List.fold_left (fun acc a -> acc +. f a) 0. (List.init m Fun.id) in
  let phi_l =
    sum (fun a ->
        Fortz.phi ~load:l.(a)
          ~capacity:(Float.max (Graph.capacity g a -. h.(a)) 0.))
  in
  let lambda =
    match sla with
    | None -> Float.nan
    | Some params ->
        let d = distances g ~weights:wh in
        let arc_delay a =
          Sla.link_delay params ~capacity:(Graph.capacity g a)
            ~phi_h:phi_h_arc.(a) ~prop_delay:(Graph.delay g a)
        in
        let rec expected u t =
          if u = t then 0.
          else
            let out = tight g ~weights:wh d u t in
            List.fold_left
              (fun acc a -> acc +. arc_delay a +. expected (Graph.dst g a) t)
              0. out
            /. float_of_int (List.length out)
        in
        let n = Graph.node_count g in
        let total = ref 0. in
        for s = 0 to n - 1 do
          for t = 0 to n - 1 do
            if s <> t && Matrix.get th s t > 0. then begin
              let delay =
                if d.(s).(t) = none then Float.infinity else expected s t
              in
              total := !total +. Sla.penalty params ~delay
            end
          done
        done;
        !total
  in
  { phi_h = sum (fun a -> phi_h_arc.(a)); phi_l; lambda }
