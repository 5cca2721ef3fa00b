module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Spf_delta = Dtr_graph.Spf_delta
module Dijkstra = Dtr_graph.Dijkstra
module Matrix = Dtr_traffic.Matrix
module Fortz = Dtr_cost.Fortz
module Metrics = Dtr_util.Metrics

let m_probes =
  Metrics.counter ~help:"Incremental probes built by evaluation contexts."
    "dtr_eval_probes_total"

let m_commits =
  Metrics.counter ~help:"Probes committed into evaluation contexts."
    "dtr_eval_commits_total"

(* Clone/sync traffic scales with --scan-jobs (one clone per worker,
   one sync per parallel scan per worker), so it is honest but
   scheduling-dependent. *)
let m_clones =
  Metrics.counter ~det:false ~help:"Evaluation-context clones (one per scan worker)."
    "dtr_eval_clones"

let m_syncs =
  Metrics.counter ~det:false
    ~help:"Evaluation-context resynchronizations (blit-only, per parallel scan)."
    "dtr_eval_syncs"

(* Preallocated projection arena: scratch rows sized once from the
   graph and reused by every probe.  [a_flow]/[a_contrib] back the
   per-destination load re-projection (the new contribution row is
   snapshot-copied only when it actually differs from the committed
   one); [a_touched] marks moved arcs and is swept back to all-false
   through the touched list before a probe returns, so it is clean by
   invariant on entry.  Each clone owns a private arena — scan workers
   probe concurrently on separate domains. *)
type arena = {
  a_flow : float array;  (* node count *)
  a_contrib : float array;  (* arc count *)
  a_touched : bool array;  (* arc count; all-false between probes *)
}

let arena g =
  {
    a_flow = Array.make (Graph.node_count g) 0.;
    a_contrib = Array.make (Graph.arc_count g) 0.;
    a_touched = Array.make (Graph.arc_count g) false;
  }

(* Which destinations a context carries DAGs for: [All] is the classic
   mode; [Demand] builds DAGs only for destinations that actually sink
   positive demand in some member class of the group — at 10k nodes
   all-destination DAG storage alone is gigabytes, while a PoP-gravity
   matrix sinks demand at a few dozen nodes.  Loads and Φ are bitwise
   identical in both modes: destinations without demand contribute
   empty rows either way. *)
type dest_mode = All | Demand

type t = {
  graph : Graph.t;
  class_group : int array;  (* class -> group of classes sharing a weight vector *)
  group_classes : int array array;  (* group -> member classes, ascending *)
  group_w : int array array;  (* group -> current weight vector *)
  group_dags : Spf.dag array array;  (* group -> per-destination DAGs *)
  demand : float array array array;
      (* class -> dest -> per-source demand; [||] when the destination
         has no routable positive demand (fixed for the ctx lifetime:
         reachability is weight-independent) *)
  contrib : float array array array;
      (* class -> dest -> per-arc load contribution; [||] mirrors demand *)
  loads : float array array;  (* class -> per-arc totals *)
  capacity_seen : float array array;  (* class -> residual capacity cascade *)
  phi_per_arc : float array array;
  mutable phi : float array;
  ws : Spf_delta.workspace;
  arena : arena;
  active : bool array array option;
      (* group -> demand-bearing destinations; None in All mode *)
  mutable generation : int;
  mutable probes : int;
  mutable commits : int;
}

let class_count t = Array.length t.class_group

let fold_row = Array.fold_left ( +. ) 0.

let create ?dags ?(dest_mode = All) g ~weights ~matrices =
  let classes = Array.length weights in
  if classes < 1 then invalid_arg "Eval_ctx.create: need at least one class";
  if Array.length matrices <> classes then
    invalid_arg "Eval_ctx.create: weights/matrices length mismatch";
  Array.iter (fun w -> Weights.validate g w) weights;
  let n = Graph.node_count g in
  Array.iter
    (fun m ->
      if Matrix.size m <> n then
        invalid_arg "Eval_ctx.create: matrix size mismatch")
    matrices;
  (* Group classes by physically shared weight vectors, as
     Multi.evaluate does: aliased classes are re-routed together. *)
  let class_group = Array.make classes (-1) in
  let groups = ref [] and group_count = ref 0 in
  for k = 0 to classes - 1 do
    let rec find j =
      if j = k then begin
        let gi = !group_count in
        incr group_count;
        groups := (gi, k) :: !groups;
        gi
      end
      else if weights.(j) == weights.(k) then class_group.(j)
      else find (j + 1)
    in
    class_group.(k) <- find 0
  done;
  let group_count = !group_count in
  let group_classes =
    Array.init group_count (fun gi ->
        let members = ref [] in
        for k = classes - 1 downto 0 do
          if class_group.(k) = gi then members := k :: !members
        done;
        Array.of_list !members)
  in
  let group_w =
    Array.init group_count (fun gi -> Array.copy weights.(group_classes.(gi).(0)))
  in
  let ws = Spf_delta.workspace () in
  (* Demand mode: a destination is active for a group when any member
     class sinks positive demand there (a pure matrix property, so it
     can be computed before any SPF runs). *)
  let active =
    match dest_mode with
    | All -> None
    | Demand ->
        Some
          (Array.init group_count (fun gi ->
               let act = Array.make n false in
               Array.iter
                 (fun k -> Matrix.iter matrices.(k) (fun _ t _ -> act.(t) <- true))
                 group_classes.(gi);
               act))
  in
  let group_dags =
    Array.init group_count (fun gi ->
        let first = group_classes.(gi).(0) in
        match dags with
        | Some d when Array.length d.(first) = n -> d.(first)
        | Some _ -> invalid_arg "Eval_ctx.create: dags length mismatch"
        | None -> (
            match active with
            | None -> Spf.all_destinations ~ws g ~weights:group_w.(gi)
            | Some act ->
                Spf.for_destinations ~ws g ~weights:group_w.(gi)
                  ~active:act.(gi)))
  in
  let m = Graph.arc_count g in
  let demand =
    Array.init classes (fun k ->
        let dags = group_dags.(class_group.(k)) in
        Array.init n (fun t ->
            match Loads.destination_demand ~dag:dags.(t) matrices.(k) with
            | Some d -> d
            | None -> [||]))
  in
  let contrib =
    Array.init classes (fun k ->
        let dags = group_dags.(class_group.(k)) in
        Array.init n (fun t ->
            let dem = demand.(k).(t) in
            if Array.length dem = 0 then [||]
            else Loads.destination_loads g ~dag:dags.(t) ~demand_to_dst:dem))
  in
  (* Totals as the ascending-destination sum of per-destination
     subtotals — the same association Loads.of_matrix uses, so they are
     bitwise identical to a from-scratch evaluation. *)
  let loads =
    Array.init classes (fun k ->
        let row = Array.make m 0. in
        for t = 0 to n - 1 do
          let c = contrib.(k).(t) in
          if Array.length c > 0 then
            for a = 0 to m - 1 do
              row.(a) <- row.(a) +. c.(a)
            done
        done;
        row)
  in
  let caps = Graph.capacities g in
  let capacity_seen = Array.make classes [||] in
  capacity_seen.(0) <- caps;
  for k = 1 to classes - 1 do
    capacity_seen.(k) <-
      Array.init m (fun a ->
          Float.max (capacity_seen.(k - 1).(a) -. loads.(k - 1).(a)) 0.)
  done;
  let phi_per_arc =
    Array.init classes (fun k ->
        Array.init m (fun a ->
            Fortz.phi ~load:loads.(k).(a) ~capacity:capacity_seen.(k).(a)))
  in
  let phi = Array.map fold_row phi_per_arc in
  {
    graph = g;
    class_group;
    group_classes;
    group_w;
    group_dags;
    demand;
    contrib;
    loads;
    capacity_seen;
    phi_per_arc;
    phi;
    ws;
    arena = arena g;
    active;
    generation = 0;
    probes = 0;
    commits = 0;
  }

(* Commits replace rows (inner arrays) and never mutate them, so a
   clone only needs its own mutable spine: the outer group/class/dest-
   indexed arrays whose slots commits overwrite, plus a private SPF
   workspace.  Rows, DAGs, demand, the matrices-derived structure and
   the graph are shared with the original.  Clones back a scan
   worker's probes; they are resynchronized from the original with
   [sync] (pure blits) instead of being rebuilt. *)
let clone t =
  Metrics.incr_counter m_clones;
  {
    t with
    group_w = Array.copy t.group_w;
    group_dags = Array.copy t.group_dags;
    contrib = Array.map Array.copy t.contrib;
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
    ws = Spf_delta.workspace ();
    arena = arena t.graph;
  }

let sync ~src ~dst =
  if
    src.graph != dst.graph
    || Array.length src.group_w <> Array.length dst.group_w
    || class_count src <> class_count dst
  then invalid_arg "Eval_ctx.sync: incompatible contexts";
  Metrics.incr_counter m_syncs;
  Array.blit src.group_w 0 dst.group_w 0 (Array.length src.group_w);
  Array.blit src.group_dags 0 dst.group_dags 0 (Array.length src.group_dags);
  for k = 0 to class_count src - 1 do
    Array.blit src.contrib.(k) 0 dst.contrib.(k) 0 (Array.length src.contrib.(k))
  done;
  Array.blit src.loads 0 dst.loads 0 (Array.length src.loads);
  Array.blit src.capacity_seen 0 dst.capacity_seen 0 (Array.length src.capacity_seen);
  Array.blit src.phi_per_arc 0 dst.phi_per_arc 0 (Array.length src.phi_per_arc);
  Array.blit src.phi 0 dst.phi 0 (Array.length src.phi);
  dst.generation <- src.generation

type probe = {
  generation : int;
  group : int;
  p_w : int array;
  p_dags : Spf.dag array;
  p_dirty : int list;
  p_touched : int list;  (* arcs whose load contribution moved *)
  p_contrib : (int * int * float array) list;  (* class, dest, contribution *)
  p_loads : (int * float array) list;  (* class, full row *)
  p_capacity : (int * float array) list;
  p_phi_rows : (int * float array) list;
  p_phi : float array;
}

let probe_phi p = Array.copy p.p_phi

let probe_touched p = p.p_touched

(* Probe views for costing a candidate beyond Φ (the SLA delay walk):
   the probe holds rows only for what it moved, the context supplies
   the rest — so both views are only meaningful while the probe is
   current. *)
let check_probe t p name k =
  if k < 0 || k >= class_count t then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: class out of range" name);
  if p.generation <> t.generation then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: stale probe" name)

let probe_dags t p k =
  check_probe t p "probe_dags" k;
  let gi = t.class_group.(k) in
  if gi = p.group then p.p_dags else t.group_dags.(gi)

let probe_phi_row t p k =
  check_probe t p "probe_phi_row" k;
  match List.assoc_opt k p.p_phi_rows with
  | Some row -> row
  | None -> t.phi_per_arc.(k)

(* Shared patch tail of {!probe} and {!fail_probe}: given re-projected
   per-destination contributions (tagged by class) and the arcs whose
   contribution moved, rebuild the affected load totals, the residual-
   capacity cascade and the Fortz rows.  Every touched arc is re-summed
   over all destinations in ascending order and every touched Φ row is
   re-folded whole, reproducing the from-scratch association exactly.
   Classes without overrides are untouched, so callers may iterate all
   classes or just one group's — the result is identical. *)
let patch_rows t ~touched_list ~p_contrib =
  let n = Graph.node_count t.graph in
  let classes = class_count t in
  let p_loads = ref [] in
  for k = classes - 1 downto 0 do
    let overrides = List.filter (fun (k', _, _) -> k' = k) p_contrib in
    if overrides <> [] then begin
      let view = Array.copy t.contrib.(k) in
      List.iter (fun (_, dst, nc) -> view.(dst) <- nc) overrides;
      let row = Array.copy t.loads.(k) in
      List.iter
        (fun a ->
          let s = ref 0. in
          for dst = 0 to n - 1 do
            let c = view.(dst) in
            if Array.length c > 0 then s := !s +. c.(a)
          done;
          row.(a) <- !s)
        touched_list;
      p_loads := (k, row) :: !p_loads
    end
  done;
  let p_loads = !p_loads in
  let load_row k =
    match List.assoc_opt k p_loads with Some r -> r | None -> t.loads.(k)
  in
  (* Residual-capacity cascade and Fortz costs, patched downward from
     the highest-priority class whose load moved (an H change reshapes
     the residual every lower class is charged against). *)
  let kmin = List.fold_left (fun acc (k, _) -> min acc k) classes p_loads in
  let p_capacity = ref [] and p_phi_rows = ref [] in
  let p_phi = Array.copy t.phi in
  if kmin < classes then begin
    let cap_rows = Array.make classes [||] in
    for k = 0 to classes - 1 do
      cap_rows.(k) <- t.capacity_seen.(k)
    done;
    for k = kmin + 1 to classes - 1 do
      let row = Array.copy t.capacity_seen.(k) in
      let above_cap = cap_rows.(k - 1) in
      let above_load = load_row (k - 1) in
      List.iter
        (fun a -> row.(a) <- Float.max (above_cap.(a) -. above_load.(a)) 0.)
        touched_list;
      cap_rows.(k) <- row;
      p_capacity := (k, row) :: !p_capacity
    done;
    for k = kmin to classes - 1 do
      let loads_k = load_row k in
      let caps_k = cap_rows.(k) in
      let row = Array.copy t.phi_per_arc.(k) in
      List.iter
        (fun a -> row.(a) <- Fortz.phi ~load:loads_k.(a) ~capacity:caps_k.(a))
        touched_list;
      p_phi_rows := (k, row) :: !p_phi_rows;
      p_phi.(k) <- fold_row row
    done
  end;
  (p_loads, !p_capacity, !p_phi_rows, p_phi)

(* Re-project one dirty destination's flows through the arena scratch
   rows, mark every arc whose contribution moved, and snapshot-copy
   the new row only when it differs from the committed one — shares
   land identically to a fresh Loads.destination_loads, so the copies
   (and everything folded from them) stay bitwise-exact. *)
let reproject t ~dags ~touched_list ~p_contrib k dst =
  let dem = t.demand.(k).(dst) in
  if Array.length dem > 0 then begin
    let m = Graph.arc_count t.graph in
    Loads.destination_loads_into t.graph ~dag:dags.(dst) ~demand_to_dst:dem
      ~flow:t.arena.a_flow ~contrib:t.arena.a_contrib;
    let nc = t.arena.a_contrib in
    let oc = t.contrib.(k).(dst) in
    let touched = t.arena.a_touched in
    let changed = ref false in
    for a = 0 to m - 1 do
      if nc.(a) <> oc.(a) then begin
        changed := true;
        if not touched.(a) then begin
          touched.(a) <- true;
          touched_list := a :: !touched_list
        end
      end
    done;
    if !changed then p_contrib := (k, dst, Array.copy nc) :: !p_contrib
  end

(* Restore the arena's all-false touched invariant: only flags in the
   list were ever set. *)
let reset_touched t touched_list =
  List.iter (fun a -> t.arena.a_touched.(a) <- false) touched_list

let group_active t gi =
  match t.active with None -> None | Some act -> Some act.(gi)

let probe t ~klass ~changes =
  if klass < 0 || klass >= class_count t then
    invalid_arg "Eval_ctx.probe: class out of range";
  t.probes <- t.probes + 1;
  Metrics.incr_counter m_probes;
  let group = t.class_group.(klass) in
  let w = t.group_w.(group) in
  let spf_changes =
    List.filter_map
      (fun (arc, v) ->
        if arc < 0 || arc >= Graph.arc_count t.graph then
          invalid_arg "Eval_ctx.probe: arc out of range";
        if v < Weights.min_weight || v > Weights.max_weight then
          invalid_arg "Eval_ctx.probe: weight out of bounds";
        if w.(arc) = v then None
        else Some { Spf_delta.arc; before = w.(arc); after = v })
      changes
  in
  let new_w = Array.copy w in
  List.iter (fun c -> new_w.(c.Spf_delta.arc) <- c.Spf_delta.after) spf_changes;
  let p_dags, p_dirty =
    Spf_delta.update ~ws:t.ws ?active:(group_active t group) t.graph
      ~weights:new_w ~prev:t.group_dags.(group) ~changes:spf_changes
  in
  (* Re-project dirty destinations of every class in the group and mark
     the arcs whose contribution actually moved. *)
  let p_contrib = ref [] in
  let touched_list = ref [] in
  Array.iter
    (fun k ->
      List.iter (fun dst -> reproject t ~dags:p_dags ~touched_list ~p_contrib k dst) p_dirty)
    t.group_classes.(group);
  reset_touched t !touched_list;
  let touched_list = !touched_list in
  let p_contrib = !p_contrib in
  let p_loads, p_capacity, p_phi_rows, p_phi =
    patch_rows t ~touched_list ~p_contrib
  in
  {
    generation = t.generation;
    group;
    p_w = new_w;
    p_dags;
    p_dirty;
    p_touched = touched_list;
    p_contrib;
    p_loads;
    p_capacity;
    p_phi_rows;
    p_phi;
  }

let commit (t : t) (p : probe) =
  if p.generation <> t.generation then
    invalid_arg "Eval_ctx.commit: stale probe (context has moved on)";
  t.group_w.(p.group) <- p.p_w;
  t.group_dags.(p.group) <- p.p_dags;
  List.iter (fun (k, dst, c) -> t.contrib.(k).(dst) <- c) p.p_contrib;
  List.iter (fun (k, row) -> t.loads.(k) <- row) p.p_loads;
  List.iter (fun (k, row) -> t.capacity_seen.(k) <- row) p.p_capacity;
  List.iter (fun (k, row) -> t.phi_per_arc.(k) <- row) p.p_phi_rows;
  t.phi <- p.p_phi;
  t.generation <- t.generation + 1;
  t.commits <- t.commits + 1;
  Metrics.incr_counter m_commits

let abort _t _p = ()

(* ------------------------------------------------------------------ *)
(* Failure probes: evaluate the context's current weights with one or
   more arcs suppressed (a link failure), without touching committed
   state.  Unlike {!probe} a failure hits every topology at once, so
   the suppression delta runs through every group's DAGs; unlike
   weight probes the result may be infinite — a failure that severs a
   positive-demand pair cannot be priced by flow re-projection at all
   ([Loads.propagate] would silently drop the severed demand,
   reproducing the optimistic-cost bug one level down), so severed
   probes short-circuit to an infinite objective with the severed-pair
   count attached. *)

let m_fail_probes =
  Metrics.counter ~help:"Failure probes (link-failure delta evaluations)."
    "dtr_eval_fail_probes_total"

type failure = {
  f_unreachable : int;  (* severed positive-demand (class, src, dst) pairs *)
  f_dirty : int;  (* dirty destinations summed over groups *)
  f_group_dags : Spf.dag array array;  (* group -> post-failure DAGs *)
  f_phi_rows : float array array;  (* class -> post-failure Fortz row *)
  f_phi : float array;  (* class -> post-failure Φ; all ∞ when severed *)
}

let failure_unreachable f = f.f_unreachable

let failure_dirty f = f.f_dirty

let failure_phi f = Array.copy f.f_phi

let failure_dags t f k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.failure_dags: class out of range";
  f.f_group_dags.(t.class_group.(k))

let failure_phi_row f k =
  if k < 0 || k >= Array.length f.f_phi_rows then
    invalid_arg "Eval_ctx.failure_phi_row: class out of range";
  if f.f_unreachable > 0 then
    invalid_arg "Eval_ctx.failure_phi_row: disconnecting failure has no rows";
  f.f_phi_rows.(k)

let fail_probe t ~arcs =
  if arcs = [] then invalid_arg "Eval_ctx.fail_probe: no arcs";
  List.iter
    (fun a ->
      if a < 0 || a >= Graph.arc_count t.graph then
        invalid_arg "Eval_ctx.fail_probe: arc out of range")
    arcs;
  Metrics.incr_counter m_fail_probes;
  let g = t.graph in
  let n = Graph.node_count g in
  let classes = class_count t in
  let groups = Array.length t.group_w in
  let group_dags = Array.make groups [||] in
  let group_dirty = Array.make groups [] in
  for gi = 0 to groups - 1 do
    let w = t.group_w.(gi) in
    let changes =
      List.map
        (fun arc ->
          { Spf_delta.arc; before = w.(arc); after = Dijkstra.suppressed })
        arcs
    in
    let new_w = Array.copy w in
    List.iter (fun a -> new_w.(a) <- Dijkstra.suppressed) arcs;
    let dags, dirty =
      Spf_delta.update ~ws:t.ws ?active:(group_active t gi) g ~weights:new_w
        ~prev:t.group_dags.(gi) ~changes
    in
    group_dags.(gi) <- dags;
    group_dirty.(gi) <- dirty
  done;
  let f_dirty =
    Array.fold_left (fun acc l -> acc + List.length l) 0 group_dirty
  in
  (* Severed positive-demand pairs.  Only dirty destinations can change
     reachability, and demand rows were fixed against the no-failure
     topology, so a positive entry at a now-unreachable source is
     exactly a pair this failure cuts off. *)
  let unreachable = ref 0 in
  for k = 0 to classes - 1 do
    let dags = group_dags.(t.class_group.(k)) in
    List.iter
      (fun dst ->
        let dem = t.demand.(k).(dst) in
        if Array.length dem > 0 then begin
          let dist = dags.(dst).Spf.dist in
          for s = 0 to n - 1 do
            if dem.(s) > 0. && dist.(s) = Dijkstra.unreachable then
              incr unreachable
          done
        end)
      group_dirty.(t.class_group.(k))
  done;
  if !unreachable > 0 then
    {
      f_unreachable = !unreachable;
      f_dirty;
      f_group_dags = group_dags;
      f_phi_rows = [||];
      f_phi = Array.make classes Float.infinity;
    }
  else begin
    (* Same re-projection discipline as {!probe}, over every group. *)
    let p_contrib = ref [] in
    let touched_list = ref [] in
    for k = 0 to classes - 1 do
      let dags = group_dags.(t.class_group.(k)) in
      List.iter
        (fun dst -> reproject t ~dags ~touched_list ~p_contrib k dst)
        group_dirty.(t.class_group.(k))
    done;
    reset_touched t !touched_list;
    let _, _, p_phi_rows, p_phi =
      patch_rows t ~touched_list:!touched_list ~p_contrib:!p_contrib
    in
    let f_phi_rows =
      Array.init classes (fun k ->
          match List.assoc_opt k p_phi_rows with
          | Some r -> r
          | None -> t.phi_per_arc.(k))
    in
    {
      f_unreachable = 0;
      f_dirty;
      f_group_dags = group_dags;
      f_phi_rows;
      f_phi = p_phi;
    }
  end

let phi t = Array.copy t.phi

let graph t = t.graph

let weights t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.weights: class out of range";
  Array.copy t.group_w.(t.class_group.(k))

let weights_view t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.weights_view: class out of range";
  t.group_w.(t.class_group.(k))

let dags t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.dags: class out of range";
  t.group_dags.(t.class_group.(k))

let loads t k =
  if k < 0 || k >= class_count t then invalid_arg "Eval_ctx.loads: class out of range";
  t.loads.(k)

let phi_per_arc t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.phi_per_arc: class out of range";
  t.phi_per_arc.(k)

let check_class_dst t name k dst =
  if k < 0 || k >= class_count t then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: class out of range" name);
  if dst < 0 || dst >= Graph.node_count t.graph then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: destination out of range" name)

let contrib_view t ~klass ~dst =
  check_class_dst t "contrib_view" klass dst;
  t.contrib.(klass).(dst)

let demand_view t ~klass ~dst =
  check_class_dst t "demand_view" klass dst;
  t.demand.(klass).(dst)

let capacity_seen_view t k =
  if k < 0 || k >= class_count t then
    invalid_arg "Eval_ctx.capacity_seen_view: class out of range";
  t.capacity_seen.(k)

let probes t = t.probes

let commits t = t.commits

let shares_group t j k =
  j >= 0 && k >= 0 && j < class_count t && k < class_count t
  && t.class_group.(j) = t.class_group.(k)

let to_evaluate t =
  if class_count t <> 2 then invalid_arg "Eval_ctx.to_evaluate: need 2 classes";
  {
    Evaluate.graph = t.graph;
    dags_h = dags t 0;
    dags_l = dags t 1;
    h_loads = t.loads.(0);
    l_loads = t.loads.(1);
    residual = t.capacity_seen.(1);
    phi_h_per_arc = t.phi_per_arc.(0);
    phi_l_per_arc = t.phi_per_arc.(1);
    phi_h = t.phi.(0);
    phi_l = t.phi.(1);
  }

let to_multi t =
  {
    Multi.graph = t.graph;
    dags = Array.init (class_count t) (dags t);
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
  }
