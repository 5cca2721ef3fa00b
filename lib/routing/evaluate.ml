module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Sla = Dtr_cost.Sla

type t = {
  graph : Graph.t;
  dags_h : Spf.dag array Lazy.t;
  dags_l : Spf.dag array Lazy.t;
  h_loads : float array;
  l_loads : float array;
  residual : float array;
  phi_h_per_arc : float array;
  phi_l_per_arc : float array;
  phi_h : float;
  phi_l : float;
}

let utilization t =
  let caps = Graph.capacities t.graph in
  Array.init (Array.length caps) (fun i ->
      (t.h_loads.(i) +. t.l_loads.(i)) /. caps.(i))

let h_utilization t =
  let caps = Graph.capacities t.graph in
  Array.init (Array.length caps) (fun i -> t.h_loads.(i) /. caps.(i))

let avg_utilization t = Dtr_util.Stats.mean (utilization t)

let max_utilization t =
  Array.fold_left Float.max 0. (utilization t)

type sla = {
  arc_delay : float array;
  pair_delays : (int * int * float) list;
  lambda : float;
  violations : int;
  unreachable : int;
  worst_delay : float;
}

(* Buffers of the SLA fold, reused from call to call: the per-arc
   delays (and, on a core, their copy in core arc ids), one
   expected-delay row per core destination (allocated on the
   destination's first use) and the high-priority pairs of the last
   matrix and numbering seen, in Matrix.pairs order, in both
   numberings.  A fold stamps the rows it computes, so each
   destination's row is walked once per fold. *)
type sla_scratch = {
  mutable s_th : Matrix.t option;
  mutable s_at : int array;
  mutable s_src : int array;
  mutable s_dst : int array;
  mutable s_csrc : int array;
  mutable s_cdst : int array;
  mutable s_delay : float array;
  mutable s_cdelay : float array;
  mutable s_xi : float array array;
  mutable s_stamp : int array;
  mutable s_fold : int;
}

let sla_scratch () =
  {
    s_th = None;
    s_at = [||];
    s_src = [||];
    s_dst = [||];
    s_csrc = [||];
    s_cdst = [||];
    s_delay = [||];
    s_cdelay = [||];
    s_xi = [||];
    s_stamp = [||];
    s_fold = 0;
  }

let prepare s g th ~core ~node_at =
  let c = Graph.node_count core in
  if Array.length s.s_delay <> Graph.arc_count g then
    s.s_delay <- Array.make (Graph.arc_count g) 0.;
  if core != g && Array.length s.s_cdelay <> Graph.arc_count core then
    s.s_cdelay <- Array.make (Graph.arc_count core) 0.;
  if Array.length s.s_xi <> c then begin
    s.s_xi <- Array.make c [||];
    s.s_stamp <- Array.make c 0
  end;
  match s.s_th with
  | Some th' when th' == th && s.s_at == node_at -> ()
  | _ ->
      let k = Matrix.pair_count th in
      s.s_src <- Array.make k 0;
      s.s_dst <- Array.make k 0;
      s.s_csrc <- Array.make k 0;
      s.s_cdst <- Array.make k 0;
      let i = ref 0 in
      Matrix.iter th (fun src dst _ ->
          s.s_src.(!i) <- src;
          s.s_dst.(!i) <- dst;
          s.s_csrc.(!i) <- node_at.(src);
          s.s_cdst.(!i) <- node_at.(dst);
          incr i);
      s.s_th <- Some th;
      s.s_at <- node_at

(* The one SLA costing: every high-priority pair's expected delay in
   Matrix.pairs order — infinite for a severed pair, so the penalty
   (and Λ) becomes infinite and any reconnecting routing compares
   strictly better, without aborting a failure sweep — folded into
   Λ = Σ penalties, and handed to [on_pair] when given.  The delays of
   [g]'s arcs are computed in [g]'s ids and the walks run on [core],
   gathering each core arc's delay through [arcs]: the same sums in
   the same order as on [g]. *)
let sla_fold ?on_pair s params g ~th ~core ~node_at ~arcs ~dags_h ~phi_h_per_arc =
  prepare s g th ~core ~node_at;
  Delay.arc_delays_into params g ~phi_h_per_arc s.s_delay;
  let arc_delay =
    if core == g then s.s_delay
    else begin
      for j = 0 to Array.length arcs - 1 do
        s.s_cdelay.(j) <- s.s_delay.(arcs.(j))
      done;
      s.s_cdelay
    end
  in
  s.s_fold <- s.s_fold + 1;
  let c = Graph.node_count core in
  let lambda = ref 0. in
  for i = 0 to Array.length s.s_src - 1 do
    let src = s.s_csrc.(i) and dst = s.s_cdst.(i) in
    let dag = dags_h.(dst) in
    let delay =
      if dag.Spf.dist.(src) = Dijkstra.unreachable then Float.infinity
      else begin
        if s.s_stamp.(dst) <> s.s_fold then begin
          if Array.length s.s_xi.(dst) = 0 then s.s_xi.(dst) <- Array.make c 0.;
          Delay.expected_into core ~dag ~arc_delay s.s_xi.(dst);
          s.s_stamp.(dst) <- s.s_fold
        end;
        s.s_xi.(dst).(src)
      end
    in
    lambda := !lambda +. Sla.penalty params ~delay;
    match on_pair with None -> () | Some f -> f s.s_src.(i) s.s_dst.(i) delay
  done;
  !lambda

let sla_lambda s params g ~th ~core ~node_at ~arcs ~dags_h ~phi_h_per_arc =
  sla_fold s params g ~th ~core ~node_at ~arcs ~dags_h ~phi_h_per_arc

let sla_of params g ~th ~core ~node_at ~arcs ~dags_h ~phi_h_per_arc =
  let s = sla_scratch () in
  let pairs = ref [] and violations = ref 0 and unreachable = ref 0 in
  let worst = ref 0. in
  let lambda =
    sla_fold s params g ~th ~core ~node_at ~arcs ~dags_h ~phi_h_per_arc
      ~on_pair:(fun src dst d ->
        pairs := (src, dst, d) :: !pairs;
        if Sla.violated params ~delay:d then incr violations;
        if d = Float.infinity then incr unreachable;
        if d > !worst then worst := d)
  in
  {
    arc_delay = s.s_delay;
    pair_delays = List.rev !pairs;
    lambda;
    violations = !violations;
    unreachable = !unreachable;
    worst_delay = !worst;
  }

let evaluate_sla params t ~th =
  let g = t.graph in
  sla_of params g ~th ~core:g
    ~node_at:(Array.init (Graph.node_count g) Fun.id)
    ~arcs:(Array.init (Graph.arc_count g) Fun.id)
    ~dags_h:(Lazy.force t.dags_h) ~phi_h_per_arc:t.phi_h_per_arc
