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

let m_fail_probes =
  Metrics.counter ~help:"Failure probes (link-failure delta evaluations)."
    "dtr_eval_fail_probes_total"

(* Clone/sync traffic scales with --scan-jobs (one clone per scan
   worker, one sync per parallel scan per worker), so it is honest but
   scheduling-dependent.  A search run adds one clone, the context it
   keeps at its best, and one sync per new best and per return to it. *)
let m_clones =
  Metrics.counter ~det:false
    ~help:"Evaluation-context clones (scan workers' and each search run's kept best context)."
    "dtr_eval_clones"

let m_syncs =
  Metrics.counter ~det:false
    ~help:"Evaluation-context resynchronizations (blit-only: scan workers before a parallel scan, a run's kept best context at each new best and back)."
    "dtr_eval_syncs"

(* Kept because perfbench's probe replay, its last reader, names it:
   every context routes to its demand destinations on its demand
   cores, and {!create} ignores the mode. *)
type dest_mode = All | Demand

(* What lives where.  A weight group routes on its demand core's
   graph, numbered densely (see [core]): its dags, its classes' demand
   and contribution rows, its flow screen and the arena's repair and
   re-projection state are in core node and core arc ids, sized to the
   core.  The weights, load totals, residual capacities and Fortz rows
   are in the graph's arc ids, patched through the core's arc map.
   Both maps ascend with the original ids, so every tie-break by id,
   every next-hop order and every ascending fold over destinations or
   arcs is the same in either numbering, and the results are bitwise
   those of routing on the whole graph. *)
type t = {
  graph : Graph.t;
  matrices : Matrix.t array;  (* class -> demand matrix, shared by clones *)
  class_group : int array;  (* class -> group of classes sharing a weight vector *)
  group_classes : int array array;  (* group -> member classes, ascending *)
  group_w : int array array;  (* group -> current weight vector *)
  group_cw : int array array;
      (* group -> the same weights in its core's arc ids; [group_w]'s
         own vector on an identity core *)
  group_dags : Spf.dag array array;  (* group -> per core destination DAGs *)
  demand : float array array array;
      (* class -> core dest -> per core source demand; [||] when the
         destination has no routable positive demand (fixed for the ctx
         lifetime: reachability is weight-independent) *)
  contrib : float array array array;
      (* class -> core dest -> per core arc load contribution; [||]
         mirrors demand *)
  loads : float array array;  (* class -> per-arc totals *)
  capacity_seen : float array array;  (* class -> residual capacity cascade *)
  phi_per_arc : float array array;
  mutable phi : float array;
  active : bool array array;
      (* group -> the core destinations its member classes sink demand
         at: the only ones with a real dag (every other one holds a
         placeholder) *)
  cores : core array;  (* group -> its demand core, shared by clones *)
  views : (Spf.dag * Spf.dag) array array;
      (* group -> per core destination, the last dag a reader asked to
         see in the graph's ids and that view ([||] until one asks), so
         that views of an unchanged dag stay physically one *)
  mutable zero_shares : bool;
      (* a walk behind the committed rows split a positive flow into
         zero shares (float underflow); sticky, and it turns the
         probes' flow screen off *)
  mutable arena : arena option;
      (* probe scratch, allocated by the first probe: set-up builds
         contexts it never probes; a clone starts without one *)
}

(* A weight group's demand core: the nodes on some simple path between
   two endpoints of its member classes' demand (Graph.off_core), the
   only nodes its flow can cross, and the arcs between them, the only
   arcs a contribution row of the group's classes can be nonzero at.
   [c_graph] is their subgraph numbered densely (Graph.induced), and
   [c_nodes]/[c_arcs] map its node and arc ids to the graph's,
   [c_node_at]/[c_arc_at] back (-1 off the core).  When no node is off
   the core it is an identity core: [c_graph] is the graph itself and
   the maps are identities, on the same code path. *)
and core = {
  c_graph : Graph.t;
  c_nodes : int array;
  c_arcs : int array;
  c_node_at : int array;
  c_arc_at : int array;
}

(* The probe arena.  One probe engine computes every candidate —
   weight probes and failure probes alike — into these context-owned
   rows, so pricing a candidate allocates nothing beyond the next-hop
   sets its repairs change:

   - [a_spf]/[a_cw]: per group, the repaired dags (Spf_delta's
     scratch, which holds the repair kernel's state too) and the probed
     weight row, in core ids;
   - [a_listed]: per arc, the number ([a_listing]) of the last probe
     whose change list named it, so a list naming an arc twice is
     refused without allocating;
   - [a_rows]: re-projected contribution rows, one per (class,
     destination) whose row moved, listed in [a_ov_class]/[a_ov_dst],
     each as long as the largest core's arc count; [a_ov_at] maps
     (class, core destination) to its row while the load totals are
     re-summed, and is all -1 between probes;
   - [a_touched]/[a_touched_list]: the arcs whose contribution moved,
     in the graph's ids ([a_touched] is all-false between probes);
     [a_on_core]/[a_on_arc]: those on one class's core, in both
     numberings, while its totals are re-summed;
   - [a_zero_shares]: a re-projection of this computation split a
     positive flow into zero shares;
   - [a_screen]: per group and core destination, the flow screen;
     [a_changes]/[a_edits]/[a_deferred]: a weight probe's effective
     change list on its group's core graph, the same list in the
     graph's arc ids (its commit applies it to the weights), and how
     many dirty destinations its screen deferred (its commit repairs
     them);
   - [a_loads]/[a_cap]: patched load totals and residual capacities,
     valid at touched arcs only; [a_phi_rows]: full Fortz rows of the
     classes from [a_kmin] down, and [a_phi] the probed objective.

   [a_stamp] numbers the computations; a probe is an arena view while
   its stamp is current, and every probe, failure probe, commit or
   sync moves it on.  Committed rows are never written: installing a
   probe copies what it moved into fresh arrays, so committed rows stay
   replace-not-mutate for clones and solution snapshots.  Each clone
   owns its arena — scan workers probe concurrently on separate
   domains. *)
and arena = {
  a_spf : Spf_delta.scratch array;
  a_cw : int array array;
  a_listed : int array;
  mutable a_listing : int;
  a_demand_dsts : int array array;  (* class -> core demand destinations, ascending *)
  a_flow : float array;
  mutable a_rows : float array array;
  a_row_len : int;
  a_ov_class : int array;
  a_ov_dst : int array;
  mutable a_nov : int;
  a_ov_at : int array array;
  a_touched : bool array;
  a_touched_list : int array;
  mutable a_ntouched : int;
  a_on_core : int array;
  a_on_arc : int array;
  mutable a_zero_shares : bool;
  a_screen : bool array array;
  mutable a_changes : Spf_delta.change list;
  mutable a_edits : Spf_delta.change list;
  mutable a_deferred : int;
  a_has_ov : bool array;
  a_loads : float array array;
  a_cap : float array array;
  a_phi_rows : float array array;
  a_phi : float array;
  mutable a_kmin : int;
  a_sla : Evaluate.sla_scratch;
  mutable a_stamp : int;
}

(* A probe, of weights or of a link failure: the phantom kind lets
   only weight probes be committed.  It is an arena view while
   [p_arena] is the probing context's own and [p_stamp] is its stamp.
   [p_group] is the group a weight probe repaired, -1 for a failure
   probe (which repairs the group of every priced class);
   [p_unreachable] counts a failure probe's severed pairs; [p_phi]
   holds Φ of each priced class. *)
type weight
type failure

type 'kind probe = {
  p_group : int;
  p_arena : arena;
  p_stamp : int;
  p_unreachable : int;
  p_phi : float array;
}

let class_count t = Array.length t.class_group

(* Φ as the left fold of a Fortz row, in a plain loop: same association
   as [Array.fold_left ( +. ) 0.], without a boxed accumulator. *)
let fold_row row =
  let s = ref 0. in
  for a = 0 to Array.length row - 1 do
    s := !s +. row.(a)
  done;
  !s

let inverse size map =
  let at = Array.make size (-1) in
  Array.iteri (fun i x -> at.(x) <- i) map;
  at

(* The core of the flagged [endpoints] of demand, all routable: the
   nodes on some simple path between two of them.  When every node is
   one, each lies on a path of its routable demand, so none is off the
   core and the search is skipped. *)
let core_of g ~endpoints =
  let n = Graph.node_count g and m = Graph.arc_count g in
  let off = if Array.for_all Fun.id endpoints then [||] else Graph.off_core g ~endpoints in
  if Array.exists Fun.id off then
    let h, nodes, arcs = Graph.induced g ~keep:(Array.map not off) in
    { c_graph = h; c_nodes = nodes; c_arcs = arcs; c_node_at = inverse n nodes;
      c_arc_at = inverse m arcs }
  else
    let nodes = Array.init n Fun.id and arcs = Array.init m Fun.id in
    { c_graph = g; c_nodes = nodes; c_arcs = arcs; c_node_at = nodes; c_arc_at = arcs }

(* The demand core of a group of [members]: its endpoints are the
   sources and destinations of their matrices' positive off-diagonal
   entries (all routable, or {!create} refuses the matrices). *)
let demand_core g ~matrices members =
  let endpoints = Array.make (Graph.node_count g) false in
  Array.iter
    (fun k ->
      Matrix.iter matrices.(k) (fun s dst _ ->
          if s <> dst then begin
            endpoints.(s) <- true;
            endpoints.(dst) <- true
          end))
    members;
  core_of g ~endpoints

let identity t c = c.c_graph == t.graph

let class_core t k = t.cores.(t.class_group.(k))

let placeholder dst = { Spf.dst; dist = [||]; next_arcs = [||]; order_desc = [||] }

(* A dag of the graph's numbering in core [c]'s, at core destination
   [i]: labels, next-hop sets and order at the core nodes.  A dag a
   context left is exact there, and so is one built on the whole graph:
   a shortest path between core nodes stays on the core. *)
let core_dag c (d : Spf.dag) i =
  let order = List.filter (fun v -> c.c_node_at.(v) >= 0) (Array.to_list d.order_desc) in
  {
    Spf.dst = i;
    dist = Array.map (fun v -> d.dist.(v)) c.c_nodes;
    next_arcs =
      Array.map (fun v -> Array.map (Array.get c.c_arc_at) d.next_arcs.(v)) c.c_nodes;
    order_desc = Array.of_list (List.map (Array.get c.c_node_at) order);
  }

(* Core [c]'s dag [d] in the graph's numbering, on [n] nodes: every
   off-core node reads unreachable. *)
let graph_dag c ~n (d : Spf.dag) =
  let dist = Array.make n Dijkstra.unreachable and next_arcs = Array.make n [||] in
  Array.iteri
    (fun i v ->
      dist.(v) <- d.dist.(i);
      next_arcs.(v) <- Array.map (Array.get c.c_arcs) d.next_arcs.(i))
    c.c_nodes;
  {
    Spf.dst = c.c_nodes.(d.dst);
    dist;
    next_arcs;
    order_desc = Array.map (Array.get c.c_nodes) d.order_desc;
  }

(* Group [gi]'s core dags [dags] in the graph's numbering: the stored
   array on an identity core. *)
let graph_dags t gi dags =
  let c = t.cores.(gi) in
  if identity t c then dags
  else begin
    let n = Graph.node_count t.graph in
    if Array.length t.views.(gi) = 0 then
      t.views.(gi) <-
        Array.make (Array.length c.c_nodes) (placeholder (-1), placeholder (-1));
    let seen = t.views.(gi) in
    Array.init n (fun v ->
        let i = c.c_node_at.(v) in
        if i < 0 then placeholder v
        else begin
          let d = dags.(i) in
          let was, view = seen.(i) in
          if was == d then view
          else begin
            let view = if Spf.is_placeholder d then placeholder v else graph_dag c ~n d in
            seen.(i) <- (d, view);
            view
          end
        end)
  end

(* The demand column of [tm] toward core [c]'s destination of [dag],
   in core source ids, as Loads.destination_demand gathers it: [||]
   when no source has positive demand.  Every source is a core node. *)
let core_demand c ~dag tm =
  let t = c.c_nodes.(dag.Spf.dst) in
  let row = ref [||] in
  Matrix.iter_col tm t (fun s r ->
      if s <> t then begin
        let v = c.c_node_at.(s) in
        if v < 0 || dag.Spf.dist.(v) = Dijkstra.unreachable then
          invalid_arg (Printf.sprintf "Eval_ctx.create: no path %d -> %d" s t);
        if Array.length !row = 0 then row := Array.make (Array.length c.c_nodes) 0.;
        !row.(v) <- r
      end);
  !row

(* [?dest_mode] is ignored; perfbench's probe replay, its last reader,
   still passes it. *)
let create ?dags ?dest_mode:_ g ~weights ~matrices =
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
  (* Group classes by physically shared weight vectors: aliased
     classes are routed once and re-routed together. *)
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
  let cores = Array.map (demand_core g ~matrices) group_classes in
  let group_w =
    Array.init group_count (fun gi -> Array.copy weights.(group_classes.(gi).(0)))
  in
  let group_cw =
    Array.mapi
      (fun gi c ->
        let w = group_w.(gi) in
        if c.c_graph == g then w else Array.map (Array.get w) c.c_arcs)
      cores
  in
  (* A destination is active for a group when any member class sinks
     positive demand there (a pure matrix property, so it can be
     computed before any SPF runs).  A group routes to its active
     destinations on its core graph alone. *)
  let active =
    Array.mapi
      (fun gi members ->
        let c = cores.(gi) in
        let act = Array.make (Array.length c.c_nodes) false in
        Array.iter
          (fun k -> Matrix.iter matrices.(k) (fun _ t _ -> act.(c.c_node_at.(t)) <- true))
          members;
        act)
      group_classes
  in
  let ws = Dijkstra.workspace () in
  let group_dags =
    Array.init group_count (fun gi ->
        let c = cores.(gi) in
        let first = group_classes.(gi).(0) in
        match dags with
        | Some d when Array.length d.(first) = n ->
            if c.c_graph == g then d.(first)
            else
              Array.mapi
                (fun i v ->
                  if active.(gi).(i) then core_dag c d.(first).(v) i else placeholder i)
                c.c_nodes
        | Some _ -> invalid_arg "Eval_ctx.create: dags length mismatch"
        | None ->
            Spf.for_destinations ~ws c.c_graph ~weights:group_cw.(gi) ~active:active.(gi))
  in
  let m = Graph.arc_count g in
  let demand =
    Array.init classes (fun k ->
        let c = cores.(class_group.(k)) and dags = group_dags.(class_group.(k)) in
        Array.map (fun dag -> core_demand c ~dag matrices.(k)) dags)
  in
  let zero_shares = ref false in
  let contrib =
    Array.init classes (fun k ->
        let c = cores.(class_group.(k)) and dags = group_dags.(class_group.(k)) in
        let flow = Array.make (Array.length c.c_nodes) 0. in
        Array.mapi
          (fun i dem ->
            if Array.length dem = 0 then [||]
            else begin
              let row = Array.make (Array.length c.c_arcs) 0. in
              if
                Loads.destination_loads_into c.c_graph ~dag:dags.(i) ~demand_to_dst:dem
                  ~flow ~contrib:row
              then zero_shares := true;
              row
            end)
          demand.(k))
  in
  (* Totals as the ascending-destination sum of per-destination
     subtotals — the association every probe's patch re-sums in, so
     patched totals stay bitwise identical to a fresh context.  Each
     row lands on its core's arcs; every other arc stays +0., as the
     sum of the rows' zeros there would leave it. *)
  let loads =
    Array.init classes (fun k ->
        let arcs = cores.(class_group.(k)).c_arcs in
        let row = Array.make m 0. in
        Array.iter
          (fun c ->
            for j = 0 to Array.length c - 1 do
              let a = arcs.(j) in
              row.(a) <- row.(a) +. c.(j)
            done)
          contrib.(k);
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
    matrices = Array.copy matrices;
    class_group;
    group_classes;
    group_w;
    group_cw;
    group_dags;
    demand;
    contrib;
    loads;
    capacity_seen;
    phi_per_arc;
    phi;
    active;
    cores;
    views = Array.make group_count [||];
    zero_shares = !zero_shares;
    arena = None;
  }

(* Commits replace rows (inner arrays) and never mutate them, so a
   clone only needs its own mutable spine: the outer group/class/dest-
   indexed arrays whose slots commits overwrite, plus, from its first
   probe, a private arena (which holds its SPF repair state).  Rows,
   DAGs, demand, the matrices-derived structure and the graph are
   shared with the original.  Clones back a scan worker's probes; they
   are resynchronized from the original with [sync] (pure blits)
   instead of being rebuilt. *)
let clone t =
  Metrics.incr_counter m_clones;
  {
    t with
    group_w = Array.copy t.group_w;
    group_cw = Array.copy t.group_cw;
    group_dags = Array.copy t.group_dags;
    contrib = Array.map Array.copy t.contrib;
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
    views = Array.make (Array.length t.group_w) [||];
    arena = None;
  }

(* The blit installs [src]'s rows and dags as they are, so [dst] must
   number them alike and price them against the same demand: the same
   graph, class groups and (physically) the same matrices, which fix
   every group's core. *)
let sync ~src ~dst =
  if
    src.graph != dst.graph
    || src.class_group <> dst.class_group
    || not (Array.for_all2 ( == ) src.matrices dst.matrices)
  then invalid_arg "Eval_ctx.sync: incompatible contexts";
  Metrics.incr_counter m_syncs;
  Array.blit src.group_w 0 dst.group_w 0 (Array.length src.group_w);
  Array.blit src.group_cw 0 dst.group_cw 0 (Array.length src.group_cw);
  Array.blit src.group_dags 0 dst.group_dags 0 (Array.length src.group_dags);
  for k = 0 to class_count src - 1 do
    Array.blit src.contrib.(k) 0 dst.contrib.(k) 0 (Array.length src.contrib.(k))
  done;
  Array.blit src.loads 0 dst.loads 0 (Array.length src.loads);
  Array.blit src.capacity_seen 0 dst.capacity_seen 0 (Array.length src.capacity_seen);
  Array.blit src.phi_per_arc 0 dst.phi_per_arc 0 (Array.length src.phi_per_arc);
  Array.blit src.phi 0 dst.phi 0 (Array.length src.phi);
  dst.zero_shares <- src.zero_shares;
  (* Whatever dst's arena holds was priced against the state just
     replaced. *)
  match dst.arena with Some a -> a.a_stamp <- a.a_stamp + 1 | None -> ()

let make_arena t =
  let m = Graph.arc_count t.graph in
  let classes = class_count t and groups = Array.length t.group_w in
  let floats () = Array.init classes (fun _ -> Array.make m 0.) in
  let largest size = Array.fold_left (fun x c -> max x (Array.length (size c))) 0 t.cores in
  let dests k = Array.length t.demand.(k) in
  {
    a_spf = Array.init groups (fun _ -> Spf_delta.scratch ());
    a_cw = Array.map (fun w -> Array.make (Array.length w) 0) t.group_cw;
    a_listed = Array.make m 0;
    a_listing = 0;
    a_demand_dsts =
      Array.init classes (fun k ->
          let dsts = ref [] in
          for dst = dests k - 1 downto 0 do
            if Array.length t.demand.(k).(dst) > 0 then dsts := dst :: !dsts
          done;
          Array.of_list !dsts);
    a_flow = Array.make (largest (fun c -> c.c_nodes)) 0.;
    a_rows = [||];
    a_row_len = largest (fun c -> c.c_arcs);
    a_ov_class = Array.make (Array.fold_left ( + ) 0 (Array.init classes dests)) 0;
    a_ov_dst = Array.make (Array.fold_left ( + ) 0 (Array.init classes dests)) 0;
    a_nov = 0;
    a_ov_at = Array.init classes (fun k -> Array.make (dests k) (-1));
    a_touched = Array.make m false;
    a_touched_list = Array.make m 0;
    a_ntouched = 0;
    a_on_core = Array.make m 0;
    a_on_arc = Array.make m 0;
    a_zero_shares = false;
    a_screen = Array.map (fun c -> Array.make (Array.length c.c_nodes) false) t.cores;
    a_changes = [];
    a_edits = [];
    a_deferred = 0;
    a_has_ov = Array.make classes false;
    a_loads = floats ();
    a_cap = floats ();
    a_phi_rows = floats ();
    a_phi = Array.make classes 0.;
    a_kmin = classes;
    a_sla = Evaluate.sla_scratch ();
    a_stamp = 0;
  }

let arena_of t =
  match t.arena with
  | Some a -> a
  | None ->
      let a = make_arena t in
      t.arena <- Some a;
      a

(* Free the arena for a new computation: every outstanding probe goes stale. *)
let evict a =
  a.a_stamp <- a.a_stamp + 1;
  a.a_nov <- 0;
  a.a_ntouched <- 0;
  a.a_zero_shares <- false

(* The step every computation starts with: copy group [gi]'s committed
   core weights into its arena row and apply [changes], in core arc
   ids, there. *)
let set_weights t a gi changes =
  let w = t.group_cw.(gi) and new_w = a.a_cw.(gi) in
  for arc = 0 to Array.length w - 1 do
    Array.unsafe_set new_w arc (Array.unsafe_get w arc)
  done;
  List.iter (fun c -> new_w.(c.Spf_delta.arc) <- c.Spf_delta.after) changes

(* A change list in core [c]'s arc ids (the list itself when every arc
   keeps its id, as on an identity core).  A change with an off-core end
   moves no flow, and the core holds no arc for it. *)
let to_core c changes =
  if List.for_all (fun (ch : Spf_delta.change) -> c.c_arc_at.(ch.arc) = ch.arc) changes
  then changes
  else
    List.filter_map
      (fun (ch : Spf_delta.change) ->
        let j = c.c_arc_at.(ch.arc) in
        if j < 0 then None else Some { ch with arc = j })
      changes

(* Repair group [gi]'s dags at the [active] core destinations into its
   scratch, on its core graph, under the arena row's weights and
   [changes], in core arc ids. *)
let repair t a gi ~active changes =
  Spf_delta.update_scratch a.a_spf.(gi) ~active t.cores.(gi).c_graph
    ~weights:a.a_cw.(gi) ~prev:t.group_dags.(gi) ~changes

(* ------------------------------------------------------------------ *)
(* The flow screen.  A computation repairs a group's dirty destination
   only where the repair can move flow, toward it, of a member class
   the computation prices; every other dirty destination is deferred
   and keeps its committed dag and rows.  A weight probe's change list
   is screened, and so is a failure's, whose arcs are raised to
   Dijkstra.suppressed.

   Without underflow a positive flow splits into positive shares, so a
   node carries flow toward a destination exactly when one of its
   out-arcs carries a nonzero committed share, and all of its shortest
   paths carry that flow.  A raised arc with a zero share therefore
   lies on no flow node's shortest path, and raises only lengthen
   paths.  One lowered arc (u, v), now x, cannot reach a flow node z
   when D_u(z) + x + d(v) > d(z), where D_u are the committed
   distances to u (the dag of destination u): every path from z over
   (u, v) costs at least that, since raises only lengthen paths and no
   shortest path to u or from v uses (u, v).  So every flow node keeps
   its label, its next-hop set and its place among the other flow
   nodes.  The ECMP walk from the demand sources reads only flow nodes
   and adds the same shares in the same order, every source stays
   reachable, and each committed row is bitwise what re-projecting it
   would give; so are Λ's walks, which also start at the sources.

   Only a flow node z matters, and it lies on the core and can reach
   the destination, so the test walks the destination's order.  The
   whole screen runs on the group's core graph, in its ids: the
   destinations, the changes and the rows.  D_u is u's committed dag
   (u, the tail of a change on the core, is a core node), when u is a
   destination the group sinks demand at; the group holds no dag for
   any other u.  Two
   lowered arcs can chain.  In either case every drop that passes the
   label test forces the repair.  The one hole is a quotient that
   underflows to a zero share of a positive flow; a context whose
   committed rows came from such a walk keeps the screen off
   ([zero_shares]). *)

let m_deferred =
  Metrics.counter
    ~help:"Dirty destinations a weight probe's flow screen left to its commit."
    "dtr_spf_delta_deferred_total"

let m_screened =
  Metrics.counter
    ~help:"Dirty destinations failure probes left unrepaired (no priced flow on a failed arc)."
    "dtr_failure_screened_total"

(* Whether a class of [members], from index [j] on, below [priced],
   carries a nonzero committed share toward [dst] on [arc]. *)
let rec carries t ~members ~priced j dst arc =
  j < Array.length members
  && (let k = members.(j) in
      (k < priced
      &&
      let row = t.contrib.(k).(dst) in
      Array.length row > 0 && row.(arc) <> 0.)
      || carries t ~members ~priced (j + 1) dst arc)

(* Whether one of the out-arcs at CSR positions [i] to [stop - 1]
   carries such a share: their tail sends such flow toward [dst]. *)
let rec sends t ~members ~priced dst ids i stop =
  i < stop
  && (carries t ~members ~priced 0 dst ids.(i)
     || sends t ~members ~priced dst ids (i + 1) stop)

(* The drop test of the one lowered arc: a node of [order] (the
   destination's, from index [i] on) that sends such flow toward [dst]
   over an out-arc of [g], the core graph, and that a path over the
   arc reaches at its label or below, where [to_u] are the committed
   distances to the arc's tail and [via] its new weight plus its head's
   label.  Every node of [order] reaches [dst]. *)
let rec drop_reaches t g ~members ~priced dst ~dist ~to_u ~via order i =
  i < Array.length order
  && ((let z = order.(i) in
       let du = to_u.(z) in
       du <> Dijkstra.unreachable
       && du + via <= dist.(z)
       &&
       let off = Graph.out_offsets g in
       sends t ~members ~priced dst (Graph.out_arc_ids g) off.(z) off.(z + 1))
     || drop_reaches t g ~members ~priced dst ~dist ~to_u ~via order (i + 1))

(* At one destination: no change passes the label test ([Clean]), some
   do but none can move flow ([Deferred]), or one can. *)
type verdict = Clean | Deferred | Repair

(* The screen's verdict at destination [dst] of group [gi] under the
   rest of a change list, [v] so far.  [one_drop]: the list's drops are
   screened by flow. *)
let rec verdict t gi ~priced ~one_drop dst v = function
  | [] -> v
  | (c : Spf_delta.change) :: rest ->
      let g = t.cores.(gi).c_graph and dags = t.group_dags.(gi) in
      let dag = dags.(dst) in
      if not (Spf_delta.touches g dag c) then
        verdict t gi ~priced ~one_drop dst v rest
      else begin
        let members = t.group_classes.(gi) in
        let u = Graph.src g c.arc in
        let moves =
          if c.after > c.before then carries t ~members ~priced 0 dst c.arc
          else
            (not (one_drop && t.active.(gi).(u)))
            || drop_reaches t g ~members ~priced dst ~dist:dag.Spf.dist
                 ~to_u:dags.(u).Spf.dist
                 ~via:(c.after + dag.Spf.dist.(Graph.dst g c.arc))
                 dag.Spf.order_desc 0
        in
        if moves then Repair else verdict t gi ~priced ~one_drop dst Deferred rest
      end

(* Flag in [a.a_screen] the destinations of group [gi] whose repair
   under [changes] can move flow of a member class below [priced], and
   return how many others pass the label test (the deferred ones). *)
let screen t a gi ~priced changes =
  let drops =
    List.fold_left
      (fun n (c : Spf_delta.change) -> if c.after < c.before then n + 1 else n)
      0 changes
  in
  let one_drop = drops = 1 in
  let mask = a.a_screen.(gi) and act = t.active.(gi) and deferred = ref 0 in
  for dst = 0 to Array.length mask - 1 do
    let v =
      if act.(dst) then verdict t gi ~priced ~one_drop dst Clean changes else Clean
    in
    match v with
    | Repair -> mask.(dst) <- true
    | Deferred ->
        mask.(dst) <- false;
        incr deferred
    | Clean -> mask.(dst) <- false
  done;
  !deferred

(* Map [changes] (in the graph's arc ids) to the group's core, set the
   arena row to them and {!repair} the group on its core graph under
   them, which [a_changes] keeps, behind the flow screen of the classes
   below [priced] unless the committed rows underflowed; returns how
   many dirty destinations the screen deferred.  The core holds either
   way: off-core nodes carry no flow, underflow or not. *)
let repair_screened t a gi ~priced changes =
  let changes = to_core t.cores.(gi) changes in
  set_weights t a gi changes;
  a.a_changes <- changes;
  if t.zero_shares then begin
    repair t a gi ~active:t.active.(gi) changes;
    0
  end
  else begin
    let deferred = screen t a gi ~priced changes in
    repair t a gi ~active:a.a_screen.(gi) changes;
    deferred
  end

(* Re-project one dirty destination's flows of class [k], of group
   [gi], into the next free arena row and mark every arc whose
   contribution moved; the row is kept (as an override of the committed
   one) only when it moved.  Shares land identically to a fresh
   Loads.destination_loads, so everything folded from the row stays
   bitwise-exact.  The walk runs on the group's core graph, so the row
   is cleared, filled and compared with the committed row over the
   core's arcs alone, the only ones a row of the class holds; both rows
   are at least that long, so the compare reads unchecked. *)
let reproject t a ~dags gi k dst =
  let dem = t.demand.(k).(dst) in
  if Array.length dem > 0 then begin
    let c = t.cores.(gi) in
    let mc = Array.length c.c_arcs in
    let i = a.a_nov in
    if i = Array.length a.a_rows then
      a.a_rows <- Array.append a.a_rows [| Array.make a.a_row_len 0. |];
    let nc = a.a_rows.(i) in
    Array.fill nc 0 mc 0.;
    if
      Loads.spread_demand c.c_graph ~dag:dags.(dst) ~demand_to_dst:dem ~flow:a.a_flow
        ~contrib:nc
    then a.a_zero_shares <- true;
    let oc = t.contrib.(k).(dst) in
    let touched = a.a_touched and arcs = c.c_arcs in
    let changed = ref false in
    for j = 0 to mc - 1 do
      if Array.unsafe_get nc j <> Array.unsafe_get oc j then begin
        changed := true;
        let arc = Array.unsafe_get arcs j in
        if not touched.(arc) then begin
          touched.(arc) <- true;
          a.a_touched_list.(a.a_ntouched) <- arc;
          a.a_ntouched <- a.a_ntouched + 1
        end
      end
    done;
    if !changed then begin
      a.a_ov_class.(i) <- k;
      a.a_ov_dst.(i) <- dst;
      a.a_nov <- i + 1
    end
  end

(* Re-project class [k]'s destinations the repair of its group [gi]
   dirtied, except those whose repair keeps every flow
   ({!Spf_delta.scratch_same_flows_at}): their re-projection would find
   the committed row bitwise and keep no override. *)
let reproject_dirty t a gi k =
  let spf = a.a_spf.(gi) in
  let dags = Spf_delta.scratch_dags spf in
  for i = 0 to Spf_delta.scratch_dirty spf - 1 do
    if not (Spf_delta.scratch_same_flows_at spf i) then
      reproject t a ~dags gi k (Spf_delta.scratch_dirty_at spf i)
  done

(* From the re-projected rows, patch the load totals of the classes
   they belong to, the residual-capacity cascade and the Fortz rows at
   the touched arcs.  A touched arc is re-summed over the class's
   demand destinations in ascending order (every other destination's
   row is empty) and every patched Φ row is re-folded whole over
   committed-plus-touched values, reproducing the from-scratch
   association exactly.  The re-sum visits the rows, not the arcs:
   it zeroes the touched totals, then picks each destination's row
   once (its override or the committed row) and adds it at every
   touched arc on the class's core, read at the arc's core id (a
   touched arc off that core carries none of the class's load, so its
   total stays +0.).  The touched list names each arc once, so each
   total is still the left fold from +0. over ascending destinations.
   Core arc ids are in range for every row, so that loop reads
   unchecked.  The cascade runs downward from the
   highest-priority class whose load moved: an H change reshapes the
   residual every lower class is charged against.  Only the leading
   [classes] classes are patched; the rows carry overrides of no other
   class.  At an arc no override of a class moved, its re-summed load
   is the committed total bitwise, so a class's Φ does not depend on
   which other classes were patched. *)
let patch t a ~classes =
  let m = Graph.arc_count t.graph in
  let touched = a.a_touched_list and nt = a.a_ntouched in
  Array.fill a.a_has_ov 0 (Array.length a.a_has_ov) false;
  for i = 0 to a.a_nov - 1 do
    let k = a.a_ov_class.(i) in
    a.a_has_ov.(k) <- true;
    a.a_ov_at.(k).(a.a_ov_dst.(i)) <- i
  done;
  for k = 0 to classes - 1 do
    if a.a_has_ov.(k) then begin
      let dsts = a.a_demand_dsts.(k) and at = a.a_ov_at.(k) in
      let committed = t.contrib.(k) and out = a.a_loads.(k) in
      let arc_at = (class_core t k).c_arc_at in
      let on_core = a.a_on_core and on_arc = a.a_on_arc and on = ref 0 in
      for j = 0 to nt - 1 do
        let arc = Array.unsafe_get touched j in
        Array.unsafe_set out arc 0.;
        let c = arc_at.(arc) in
        if c >= 0 then begin
          on_core.(!on) <- c;
          on_arc.(!on) <- arc;
          incr on
        end
      done;
      let on = !on in
      for q = 0 to Array.length dsts - 1 do
        let dst = dsts.(q) in
        let i = at.(dst) in
        let c = if i >= 0 then a.a_rows.(i) else committed.(dst) in
        for j = 0 to on - 1 do
          let arc = Array.unsafe_get on_arc j in
          Array.unsafe_set out arc
            (Array.unsafe_get out arc +. Array.unsafe_get c (Array.unsafe_get on_core j))
        done
      done
    end
  done;
  for i = 0 to a.a_nov - 1 do
    a.a_ov_at.(a.a_ov_class.(i)).(a.a_ov_dst.(i)) <- -1
  done;
  for j = 0 to nt - 1 do
    a.a_touched.(touched.(j)) <- false
  done;
  let kmin =
    let rec first k = if k = classes || a.a_has_ov.(k) then k else first (k + 1) in
    first 0
  in
  a.a_kmin <- kmin;
  (* Class [k]'s load and residual rows, valid at the touched arcs. *)
  let load k = if a.a_has_ov.(k) then a.a_loads.(k) else t.loads.(k) in
  let cap k = if k > kmin then a.a_cap.(k) else t.capacity_seen.(k) in
  for k = kmin + 1 to classes - 1 do
    let out = a.a_cap.(k) and c = cap (k - 1) and l = load (k - 1) in
    for j = 0 to nt - 1 do
      let arc = touched.(j) in
      out.(arc) <- Float.max (c.(arc) -. l.(arc)) 0.
    done
  done;
  for k = 0 to classes - 1 do
    if k < kmin then a.a_phi.(k) <- t.phi.(k)
    else begin
      let row = a.a_phi_rows.(k) and l = load k and c = cap k in
      Array.blit t.phi_per_arc.(k) 0 row 0 m;
      for j = 0 to nt - 1 do
        let arc = touched.(j) in
        row.(arc) <- Fortz.phi ~load:l.(arc) ~capacity:c.(arc)
      done;
      a.a_phi.(k) <- fold_row row
    end
  done

(* The tail of {!probe} and {!fail_probe}: re-project the priced
   classes of the repaired groups (the weight probe's [group], or every
   priced class's when -1), patch, and hand out the probe.  A failure
   that severs demand is priced infinite without rows. *)
let finish t a ~group ~priced ~unreachable =
  let phi =
    if unreachable > 0 then Array.make priced Float.infinity
    else begin
      for k = 0 to priced - 1 do
        let gi = t.class_group.(k) in
        if group < 0 || gi = group then reproject_dirty t a gi k
      done;
      patch t a ~classes:priced;
      Array.sub a.a_phi 0 priced
    end
  in
  {
    p_group = group;
    p_arena = a;
    p_stamp = a.a_stamp;
    p_unreachable = unreachable;
    p_phi = phi;
  }

(* A probe's change list, checked before anything is computed: every
   arc and weight in range, and no arc named twice. *)
let rec check_changes t a = function
  | [] -> ()
  | (arc, v) :: rest ->
      if arc < 0 || arc >= Graph.arc_count t.graph then
        invalid_arg "Eval_ctx.probe: arc out of range";
      if v < Weights.min_weight || v > Weights.max_weight then
        invalid_arg "Eval_ctx.probe: weight out of bounds";
      if a.a_listed.(arc) = a.a_listing then
        invalid_arg "Eval_ctx.probe: arc listed twice";
      a.a_listed.(arc) <- a.a_listing;
      check_changes t a rest

let probe t ~klass ~changes =
  if klass < 0 || klass >= class_count t then
    invalid_arg "Eval_ctx.probe: class out of range";
  let a = arena_of t in
  a.a_listing <- a.a_listing + 1;
  check_changes t a changes;
  Metrics.incr_counter m_probes;
  evict a;
  let group = t.class_group.(klass) in
  let w = t.group_w.(group) in
  let spf_changes =
    List.filter_map
      (fun (arc, v) ->
        if w.(arc) = v then None
        else Some { Spf_delta.arc; before = w.(arc); after = v })
      changes
  in
  let priced = class_count t in
  a.a_edits <- spf_changes;
  a.a_deferred <- repair_screened t a group ~priced spf_changes;
  Metrics.add m_deferred a.a_deferred;
  finish t a ~group ~priced ~unreachable:0

let probe_phi p = Array.copy p.p_phi

let probe_unreachable p = p.p_unreachable

(* A probe's views read its arena, so they are only meaningful while
   the arena is this context's own (not a clone's) and still holds the
   probe's computation. *)
let check_probe t p name =
  match t.arena with
  | Some a when a == p.p_arena && p.p_stamp = a.a_stamp -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Eval_ctx.%s: stale probe (not this context's latest)" name)

(* Probe views for costing a candidate beyond Φ (the SLA delay walk):
   the probe holds rows only for what it moved, the context supplies
   the rest. *)
let check_view t p name k =
  if k < 0 || k >= Array.length p.p_phi then
    invalid_arg (Printf.sprintf "Eval_ctx.%s: class not priced by this probe" name);
  check_probe t p name

(* The core dags of group [gi] as probe [p] would leave them. *)
let probe_core_dags t p gi =
  if p.p_group >= 0 && gi <> p.p_group then t.group_dags.(gi)
  else Spf_delta.scratch_dags p.p_arena.a_spf.(gi)

let probe_dags t p k =
  check_view t p "probe_dags" k;
  let gi = t.class_group.(k) in
  graph_dags t gi (probe_core_dags t p gi)

let probe_phi_row t p k =
  check_view t p "probe_phi_row" k;
  if p.p_unreachable > 0 then
    invalid_arg "Eval_ctx.probe_phi_row: disconnecting failure has no rows";
  let a = p.p_arena in
  if k >= a.a_kmin then a.a_phi_rows.(k) else t.phi_per_arc.(k)

(* No override of class [k] means every re-projected row of it came out
   bitwise the committed one; without underflow a row fixes which nodes
   carry the class's flow and their next-hop sets, and the screen and
   the same-flow rule keep those at every destination not
   re-projected. *)
let probe_keeps_flows t p k =
  check_view t p "probe_keeps_flows" k;
  let a = p.p_arena in
  not (a.a_has_ov.(k) || a.a_zero_shares || t.zero_shares)

(* The Λ of class 0's core dags [dags] under the Fortz row [row], in
   arena [a]'s buffers. *)
let lambda t a params ~th dags row =
  let c = class_core t 0 in
  Evaluate.sla_lambda a.a_sla params t.graph ~th ~core:c.c_graph ~node_at:c.c_node_at
    ~arcs:c.c_arcs ~dags_h:dags ~phi_h_per_arc:row

(* Failed arcs keep a (cheap) delay entry in the Λ walk.  A dag a
   failure probe did not repair may still route over a failed arc, but
   only at nodes without class-0 flow, which no pair's walk reaches,
   so the entry is never read. *)
let probe_primary ~model ~th t p =
  match model with
  | Objective.Load -> p.p_phi.(0)
  | Objective.Sla params ->
      let row = probe_phi_row t p 0 in
      lambda t p.p_arena params ~th (probe_core_dags t p t.class_group.(0)) row

(* The committed state's own primary, as {!probe_primary} prices a
   probe that moved nothing: Φ_H, or the Λ of the committed class-0
   dags and Fortz row. *)
let primary ~model ~th t =
  match model with
  | Objective.Load -> t.phi.(0)
  | Objective.Sla params ->
      lambda t (arena_of t) params ~th t.group_dags.(t.class_group.(0)) t.phi_per_arc.(0)

let sla params ~th t =
  let c = class_core t 0 in
  Evaluate.sla_of params t.graph ~th ~core:c.c_graph ~node_at:c.c_node_at ~arcs:c.c_arcs
    ~dags_h:t.group_dags.(t.class_group.(0)) ~phi_h_per_arc:t.phi_per_arc.(0)

let zero_shares t = t.zero_shares

(* Install a current probe straight from the arena, copying what it
   moved into fresh arrays: the weight rows (the core's, and the
   graph's with the probe's changes applied), the dirty dags
   ({!Spf_delta.scratch_copy}), the moved contribution rows, and full
   load, capacity and Fortz rows of the classes it changed.  All but
   the last and the graph's weight row are sized to the core. *)
let commit t p =
  check_probe t p "commit";
  let a = p.p_arena and g = p.p_group in
  (* A deferred destination's dag is exact only at flow-carrying nodes,
     and later screens (D_u), failure probes and materialized solutions
     need it exact on the core, so the group repairs again, unscreened,
     on its core graph.  Nothing is repaired off the core: no flow
     crosses it, and every dag reads unreachable there, as {!create}
     builds them.  The probe's rows stay: they are exact. *)
  if a.a_deferred > 0 then repair t a g ~active:t.active.(g) a.a_changes;
  let cw = Array.copy a.a_cw.(g) in
  t.group_w.(g) <-
    (if identity t t.cores.(g) then cw
     else begin
       let w = Array.copy t.group_w.(g) in
       List.iter (fun (c : Spf_delta.change) -> w.(c.arc) <- c.after) a.a_edits;
       w
     end);
  t.group_cw.(g) <- cw;
  t.group_dags.(g) <- Spf_delta.scratch_copy a.a_spf.(g);
  for i = 0 to a.a_nov - 1 do
    let k = a.a_ov_class.(i) in
    let mc = Array.length (class_core t k).c_arcs in
    t.contrib.(k).(a.a_ov_dst.(i)) <- Array.sub a.a_rows.(i) 0 mc
  done;
  let patched committed k src =
    let row = Array.copy committed.(k) in
    for j = 0 to a.a_ntouched - 1 do
      let arc = a.a_touched_list.(j) in
      row.(arc) <- src.(k).(arc)
    done;
    committed.(k) <- row
  in
  let classes = class_count t in
  for k = 0 to classes - 1 do
    if a.a_has_ov.(k) then patched t.loads k a.a_loads
  done;
  for k = a.a_kmin + 1 to classes - 1 do
    patched t.capacity_seen k a.a_cap
  done;
  for k = a.a_kmin to classes - 1 do
    t.phi_per_arc.(k) <- Array.copy a.a_phi_rows.(k)
  done;
  if a.a_zero_shares then t.zero_shares <- true;
  t.phi <- Array.copy p.p_phi;
  Metrics.incr_counter m_commits;
  a.a_stamp <- a.a_stamp + 1

let abort _t _p = ()

(* ------------------------------------------------------------------ *)
(* Failure probes: evaluate the context's current weights with one or
   more arcs suppressed (a link failure), without touching committed
   state.  Unlike {!probe} a failure hits every topology at once, so
   the suppression delta runs through every group's DAGs; unlike
   weight probes the result may be infinite — a failure that severs a
   positive-demand pair cannot be priced by flow re-projection at all
   (the flow walk would silently drop the severed demand, reproducing
   the optimistic-cost bug one level down), so severed probes
   short-circuit to an infinite objective with the severed-pair count
   attached.

   A failure probe may price only the leading classes (the robust
   penalty ranks failures by class 0 first): then only the groups of
   those classes are repaired, only their reachability is checked, and
   only their rows are re-projected and patched.  Each priced class's
   Φ and Fortz row are bitwise those of the full probe ({!patch}).
   Each repaired group runs behind the flow screen of its priced
   member classes. *)

let fail_probe ?classes:priced t ~arcs =
  let classes = class_count t in
  let priced = Option.value priced ~default:classes in
  if priced < 1 || priced > classes then
    invalid_arg "Eval_ctx.fail_probe: classes out of range";
  if arcs = [] then invalid_arg "Eval_ctx.fail_probe: no arcs";
  List.iter
    (fun a ->
      if a < 0 || a >= Graph.arc_count t.graph then
        invalid_arg "Eval_ctx.fail_probe: arc out of range")
    arcs;
  Metrics.incr_counter m_fail_probes;
  let a = arena_of t in
  evict a;
  (* A group is repaired when it routes a priced class (members are
     ascending, so its first member decides). *)
  for gi = 0 to Array.length t.group_w - 1 do
    if t.group_classes.(gi).(0) < priced then begin
      let w = t.group_w.(gi) in
      let changes =
        List.map
          (fun arc ->
            { Spf_delta.arc; before = w.(arc); after = Dijkstra.suppressed })
          arcs
      in
      Metrics.add m_screened (repair_screened t a gi ~priced changes)
    end
  done;
  (* Severed positive-demand pairs.  Only repaired destinations can
     change reachability (at one the screen skipped, every demand
     source carries flow and keeps its label), and demand rows were
     fixed against the no-failure topology, so a positive entry at a
     now-unreachable source is exactly a pair this failure cuts off. *)
  let unreachable = ref 0 in
  for k = 0 to priced - 1 do
    let spf = a.a_spf.(t.class_group.(k)) in
    let dags = Spf_delta.scratch_dags spf in
    for i = 0 to Spf_delta.scratch_dirty spf - 1 do
      let dst = Spf_delta.scratch_dirty_at spf i in
      let dem = t.demand.(k).(dst) in
      if Array.length dem > 0 then begin
        let dist = dags.(dst).Spf.dist in
        for s = 0 to Array.length dem - 1 do
          if dem.(s) > 0. && dist.(s) = Dijkstra.unreachable then incr unreachable
        done
      end
    done
  done;
  finish t a ~group:(-1) ~priced ~unreachable:!unreachable

(* ------------------------------------------------------------------ *)
(* Severing links, from reachability alone: the link failures a full
   failure probe prices infinite, without a probe.

   Reachability does not depend on the weights.  A source reaches a
   destination in the graph less some arcs iff a simple path joins
   them there, and a simple path between two demand endpoints runs on
   their demand core (Graph.off_core of every class's endpoints), so
   searches on the core's subgraph (Graph.induced, in its ids) decide
   every pair, and a link off it severs nothing.  A link whose
   every failed arc (x, y) keeps a path from x to y severs nothing:
   any route over the arc can take that detour instead.  Otherwise one
   reverse search per destination finds the stranded sources.  Without
   underflow a severed pair's positive flow crosses the failed link:
   every route from its source does, and a positive flow splits into
   positive shares.  So a link that carries no committed load is
   skipped, and a destination is searched only when a failed arc
   carries a nonzero share toward it; a context whose rows underflowed
   ([zero_shares]) searches every demand destination of every link
   without a detour. *)
let severing_links t =
  let g = t.graph and classes = class_count t in
  let n = Graph.node_count g in
  (* Class [k]'s demand and contribution rows toward [dst], [||] when
     it sinks none there. *)
  let row rows k dst =
    let i = (class_core t k).c_node_at.(dst) in
    if i < 0 then [||] else rows.(k).(i)
  in
  let endpoints = Array.make n false and dsts = ref [] in
  for dst = n - 1 downto 0 do
    let sinks = ref false in
    for k = 0 to classes - 1 do
      let dem = row t.demand k dst in
      if Array.length dem > 0 then begin
        sinks := true;
        let nodes = (class_core t k).c_nodes in
        Array.iteri (fun s x -> if x > 0. then endpoints.(nodes.(s)) <- true) dem
      end
    done;
    if !sinks then begin
      endpoints.(dst) <- true;
      dsts := dst :: !dsts
    end
  done;
  let dsts = Array.of_list !dsts in
  let { c_graph = core; c_node_at = node_at; c_arc_at = arc_at; _ } =
    core_of g ~endpoints
  in
  let c = Graph.node_count core in
  let failed = Array.make (Graph.arc_count core) false in
  let seen = Array.make c 0 and stack = Array.make c 0 and round = ref 0 in
  (* Mark the core nodes [start] reaches over the arcs of [ids]
     (segments [off], far ends [ends]) that have not failed, until
     [stop] is marked ([-1]: none); returns the round's mark. *)
  let search ~off ~ids ~ends start ~stop =
    incr round;
    let mark = !round in
    seen.(start) <- mark;
    stack.(0) <- start;
    let sp = ref 1 in
    while !sp > 0 && (stop < 0 || seen.(stop) <> mark) do
      decr sp;
      let x = stack.(!sp) in
      for j = off.(x) to off.(x + 1) - 1 do
        let id = ids.(j) in
        let z = ends.(id) in
        if (not failed.(id)) && seen.(z) <> mark then begin
          seen.(z) <- mark;
          stack.(!sp) <- z;
          incr sp
        end
      done
    done;
    mark
  in
  let detour a =
    let y = Graph.dst core a in
    seen.(y)
    = search ~off:(Graph.out_offsets core) ~ids:(Graph.out_arc_ids core)
        ~ends:(Graph.dsts core) (Graph.src core a) ~stop:y
  in
  (* Whether a positive-demand source of some class reaches [dst] only
     over a failed arc. *)
  let cut_off dst =
    let mark =
      search ~off:(Graph.in_offsets core) ~ids:(Graph.in_arc_ids core)
        ~ends:(Graph.srcs core) node_at.(dst) ~stop:(-1)
    in
    let stranded = ref false in
    for k = 0 to classes - 1 do
      let dem = row t.demand k dst and sources = (class_core t k).c_nodes in
      for s = 0 to Array.length dem - 1 do
        if dem.(s) > 0. && seen.(node_at.(sources.(s))) <> mark then stranded := true
      done
    done;
    !stranded
  in
  let rec loaded k a = k < classes && (t.loads.(k).(a) <> 0. || loaded (k + 1) a) in
  (* Class [k]'s share toward [dst] on arc [a]. *)
  let share k contrib a =
    let i = (class_core t k).c_arc_at.(a) in
    i >= 0 && contrib.(i) <> 0.
  in
  let rec crosses k dst a b =
    k < classes
    && (let r = row t.contrib k dst in
        (Array.length r > 0 && (share k r a || share k r b))
        || crosses (k + 1) dst a b)
  in
  Array.map
    (fun (a, b) ->
      let ca = arc_at.(a) and cb = arc_at.(b) in
      if ca >= 0 && cb >= 0 && (t.zero_shares || loaded 0 a || loaded 0 b) then begin
        failed.(ca) <- true;
        failed.(cb) <- true;
        let cut =
          (not (detour ca && detour cb))
          && Array.exists
               (fun dst -> (t.zero_shares || crosses 0 dst a b) && cut_off dst)
               dsts
        in
        failed.(ca) <- false;
        failed.(cb) <- false;
        cut
      end
      else false)
    (Graph.undirected_link_pairs g)

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
  let gi = t.class_group.(k) in
  graph_dags t gi t.group_dags.(gi)

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

(* Class [k]'s row of [rows] toward [dst], in the graph's ids: [size]
   entries, scattered from the core's through [ids]; the stored row on
   an identity core. *)
let graph_row t rows k dst ~size ~ids =
  let c = class_core t k in
  if identity t c then rows.(k).(dst)
  else begin
    let i = c.c_node_at.(dst) in
    let row = if i < 0 then [||] else rows.(k).(i) in
    if Array.length row = 0 then [||]
    else begin
      let out = Array.make size 0. in
      Array.iteri (fun j x -> out.((ids c).(j)) <- x) row;
      out
    end
  end

let contrib_view t ~klass ~dst =
  check_class_dst t "contrib_view" klass dst;
  graph_row t t.contrib klass dst ~size:(Graph.arc_count t.graph) ~ids:(fun c -> c.c_arcs)

let demand_view t ~klass ~dst =
  check_class_dst t "demand_view" klass dst;
  graph_row t t.demand klass dst ~size:(Graph.node_count t.graph) ~ids:(fun c -> c.c_nodes)

let shares_group t j k =
  j >= 0 && k >= 0 && j < class_count t && k < class_count t
  && t.class_group.(j) = t.class_group.(k)

(* Per group, its committed dags in the graph's numbering, built when
   first forced (the stored array on an identity core). *)
let dag_views t =
  Array.mapi
    (fun gi dags ->
      if identity t t.cores.(gi) then Lazy.from_val dags else lazy (graph_dags t gi dags))
    t.group_dags

let to_evaluate t =
  if class_count t <> 2 then invalid_arg "Eval_ctx.to_evaluate: need 2 classes";
  let views = dag_views t in
  {
    Evaluate.graph = t.graph;
    dags_h = views.(t.class_group.(0));
    dags_l = views.(t.class_group.(1));
    h_loads = t.loads.(0);
    l_loads = t.loads.(1);
    residual = t.capacity_seen.(1);
    phi_h_per_arc = t.phi_per_arc.(0);
    phi_l_per_arc = t.phi_per_arc.(1);
    phi_h = t.phi.(0);
    phi_l = t.phi.(1);
  }

let to_multi t =
  let views = dag_views t in
  {
    Multi.graph = t.graph;
    dags = Array.map (Array.get views) t.class_group;
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
  }
