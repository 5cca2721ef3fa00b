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
  active : bool array option array;
      (* group -> demand-bearing destinations; None in All mode *)
  matrices : Matrix.t array;  (* class -> its demand matrix (shared) *)
  mutable cores : core array;
      (* group -> its demand core ({!cores}): built by [create] in
         Demand mode, which routes on it, and otherwise by the first
         probe or clone, since most contexts are never probed; [||]
         until then, and shared by clones *)
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
   only nodes its flow can cross.  [c_graph] is the context's graph
   without the other nodes, the graph itself when there are none
   ([c_off] is then [None]); [c_arcs] lists its arcs, those with both
   ends on the core, ascending: the only arcs a contribution row of the
   group's classes can be nonzero at. *)
and core = {
  c_graph : Graph.t;
  c_off : bool array option;
  c_arcs : int array;
}

(* The probe arena.  One probe engine computes every candidate —
   weight probes and failure probes alike — into these context-owned
   rows, so pricing a candidate allocates nothing beyond the next-hop
   sets its repairs change:

   - [a_spf]/[a_w]: per group, the repaired dags (Spf_delta's scratch,
     which holds the repair kernel's state too) and the probed weight
     row;
   - [a_listed]: per arc, the number ([a_listing]) of the last probe
     whose change list named it, so a list naming an arc twice is
     refused without allocating;
   - [a_rows]: re-projected contribution rows, one per (class,
     destination) whose row moved, listed in [a_ov_class]/[a_ov_dst];
     [a_ov_at] maps (class, destination) to its row while the load
     totals are re-summed, and is all -1 between probes;
     [a_row_group] holds the group whose walk last wrote each row, -1
     for a row never written: a row is zero off that group's core
     arcs;
   - [a_touched]/[a_touched_list]: the arcs whose contribution moved
     ([a_touched] is all-false between probes);
   - [a_zero_shares]: a re-projection of this computation split a
     positive flow into zero shares;
   - [a_screen]: per destination, the flow screen of the group being
     repaired; [a_changes]/[a_deferred]: a weight probe's effective
     change list, off-core changes included, and how many dirty
     destinations its screen deferred (its commit repairs them);
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
  a_w : int array array;
  a_listed : int array;
  mutable a_listing : int;
  a_demand_dsts : int array array;  (* class -> demand destinations, ascending *)
  a_flow : float array;
  mutable a_rows : float array array;
  a_row_group : int array;
  a_ov_class : int array;
  a_ov_dst : int array;
  mutable a_nov : int;
  a_ov_at : int array array;
  a_touched : bool array;
  a_touched_list : int array;
  mutable a_ntouched : int;
  mutable a_zero_shares : bool;
  a_screen : bool array;
  mutable a_changes : Spf_delta.change list;
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

(* The demand core of a group of [members]: its endpoints are the
   sources and destinations of their matrices' positive off-diagonal
   entries (all routable, or {!create} refuses the matrices). *)
let demand_core g ~matrices members =
  let n = Graph.node_count g in
  let endpoints = Array.make n false in
  Array.iter
    (fun k ->
      Matrix.iter matrices.(k) (fun s dst _ ->
          if s <> dst then begin
            endpoints.(s) <- true;
            endpoints.(dst) <- true
          end))
    members;
  let off = Graph.off_core g ~endpoints in
  let m = Graph.arc_count g in
  if Array.exists Fun.id off then
    let on a = not (off.(Graph.src g a) || off.(Graph.dst g a)) in
    {
      c_graph = Graph.without g ~nodes:off;
      c_off = Some off;
      c_arcs = Array.of_list (List.filter on (List.init m Fun.id));
    }
  else { c_graph = g; c_off = None; c_arcs = Array.init m Fun.id }

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
  let group_w =
    Array.init group_count (fun gi -> Array.copy weights.(group_classes.(gi).(0)))
  in
  (* Demand mode: a destination is active for a group when any member
     class sinks positive demand there (a pure matrix property, so it
     can be computed before any SPF runs). *)
  let active =
    Array.init group_count (fun gi ->
        match dest_mode with
        | All -> None
        | Demand ->
            let act = Array.make n false in
            Array.iter
              (fun k -> Matrix.iter matrices.(k) (fun _ t _ -> act.(t) <- true))
              group_classes.(gi);
            Some act)
  in
  (* A demand-only group routes on its core graph alone. *)
  let cores =
    match dest_mode with
    | All -> [||]
    | Demand -> Array.map (demand_core g ~matrices) group_classes
  in
  let ws = Dijkstra.workspace () in
  let group_dags =
    Array.init group_count (fun gi ->
        let first = group_classes.(gi).(0) in
        match dags with
        | Some d when Array.length d.(first) = n -> d.(first)
        | Some _ -> invalid_arg "Eval_ctx.create: dags length mismatch"
        | None -> (
            match active.(gi) with
            | None -> Spf.all_destinations ~ws g ~weights:group_w.(gi)
            | Some active ->
                Spf.for_destinations ~ws cores.(gi).c_graph ~weights:group_w.(gi)
                  ~active))
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
  let flow = Array.make n 0. and zero_shares = ref false in
  let contrib =
    Array.init classes (fun k ->
        let dags = group_dags.(class_group.(k)) in
        Array.init n (fun t ->
            let dem = demand.(k).(t) in
            if Array.length dem = 0 then [||]
            else begin
              let row = Array.make m 0. in
              if Loads.destination_loads_into g ~dag:dags.(t) ~demand_to_dst:dem ~flow
                   ~contrib:row
              then zero_shares := true;
              row
            end))
  in
  (* Totals as the ascending-destination sum of per-destination
     subtotals — the association every probe's patch re-sums in, so
     patched totals stay bitwise identical to a fresh context. *)
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
    active;
    matrices;
    cores;
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
(* The groups' demand cores, built on first use.  A clone builds them
   before it copies the spine, so clones share one build, and no two
   domains ever build into one context. *)
let cores t =
  if Array.length t.cores = 0 then
    t.cores <- Array.map (demand_core t.graph ~matrices:t.matrices) t.group_classes;
  t.cores

let clone t =
  Metrics.incr_counter m_clones;
  ignore (cores t : core array);
  {
    t with
    group_w = Array.copy t.group_w;
    group_dags = Array.copy t.group_dags;
    contrib = Array.map Array.copy t.contrib;
    loads = Array.copy t.loads;
    capacity_seen = Array.copy t.capacity_seen;
    phi_per_arc = Array.copy t.phi_per_arc;
    phi = Array.copy t.phi;
    arena = None;
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
  dst.zero_shares <- src.zero_shares;
  (* Whatever dst's arena holds was priced against the state just
     replaced. *)
  match dst.arena with Some a -> a.a_stamp <- a.a_stamp + 1 | None -> ()

let make_arena t =
  let n = Graph.node_count t.graph and m = Graph.arc_count t.graph in
  let classes = class_count t and groups = Array.length t.group_w in
  let floats () = Array.init classes (fun _ -> Array.make m 0.) in
  {
    a_spf = Array.init groups (fun _ -> Spf_delta.scratch ());
    a_w = Array.init groups (fun _ -> Array.make m 0);
    a_listed = Array.make m 0;
    a_listing = 0;
    a_demand_dsts =
      Array.init classes (fun k ->
          let dsts = ref [] in
          for dst = n - 1 downto 0 do
            if Array.length t.demand.(k).(dst) > 0 then dsts := dst :: !dsts
          done;
          Array.of_list !dsts);
    a_flow = Array.make n 0.;
    a_rows = [||];
    a_row_group = Array.make (classes * n) (-1);
    a_ov_class = Array.make (classes * n) 0;
    a_ov_dst = Array.make (classes * n) 0;
    a_nov = 0;
    a_ov_at = Array.init classes (fun _ -> Array.make n (-1));
    a_touched = Array.make m false;
    a_touched_list = Array.make m 0;
    a_ntouched = 0;
    a_zero_shares = false;
    a_screen = Array.make n false;
    a_changes = [];
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
   weights into its arena row and apply [changes] there. *)
let set_weights t a gi changes =
  let w = t.group_w.(gi) and new_w = a.a_w.(gi) in
  for arc = 0 to Array.length w - 1 do
    Array.unsafe_set new_w arc (Array.unsafe_get w arc)
  done;
  List.iter (fun c -> new_w.(c.Spf_delta.arc) <- c.Spf_delta.after) changes

(* The changes of a list on core [c]'s graph.  A change with an
   off-core end moves no flow, and the core graph holds no arc for it. *)
let on_core g c changes =
  match c.c_off with
  | None -> changes
  | Some off ->
      List.filter
        (fun (ch : Spf_delta.change) ->
          not (off.(Graph.src g ch.arc) || off.(Graph.dst g ch.arc)))
        changes

(* Repair group [gi]'s dags into its scratch on [graph], its core graph
   or the whole one, under the arena row's weights and [changes], the
   arcs of [graph] they change. *)
let repair t a gi ~active ~graph changes =
  Spf_delta.update_scratch a.a_spf.(gi) ?active graph ~weights:a.a_w.(gi)
    ~prev:t.group_dags.(gi) ~changes

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
   would give; so are Λ's walks, which also start at the sources.  Two
   lowered arcs can chain, and a Demand-mode context holds no dag for
   an arbitrary u: then every drop that passes the label test forces
   the repair.  The one hole is a quotient that underflows to a zero
   share of a positive flow; a context whose committed rows came from
   such a walk keeps the screen off ([zero_shares]). *)

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

(* The drop test of the one lowered arc: a node from [z] on that sends
   such flow toward [dst] and that a path over the arc reaches at its
   label or below, where [to_u] are the committed distances to the
   arc's tail and [via] its new weight plus its head's label. *)
let rec drop_reaches t ~members ~priced dst ~dist ~to_u ~via z =
  z < Array.length dist
  && ((let du = to_u.(z) and dz = dist.(z) in
       du <> Dijkstra.unreachable
       && dz <> Dijkstra.unreachable
       && du + via <= dz
       &&
       let off = Graph.out_offsets t.graph in
       sends t ~members ~priced dst (Graph.out_arc_ids t.graph) off.(z) off.(z + 1))
     || drop_reaches t ~members ~priced dst ~dist ~to_u ~via (z + 1))

(* At one destination: no change passes the label test ([Clean]), some
   do but none can move flow ([Deferred]), or one can. *)
type verdict = Clean | Deferred | Repair

(* The screen's verdict at destination [dst] of group [gi] under the
   rest of a change list, [v] so far.  [one_drop]: the list's drops are
   screened by flow. *)
let rec verdict t gi ~priced ~one_drop dst v = function
  | [] -> v
  | (c : Spf_delta.change) :: rest ->
      let dags = t.group_dags.(gi) in
      let dag = dags.(dst) in
      if not (Spf_delta.touches t.graph dag c) then
        verdict t gi ~priced ~one_drop dst v rest
      else begin
        let members = t.group_classes.(gi) in
        let moves =
          if c.after > c.before then carries t ~members ~priced 0 dst c.arc
          else
            (not one_drop)
            || drop_reaches t ~members ~priced dst ~dist:dag.Spf.dist
                 ~to_u:dags.(Graph.src t.graph c.arc).Spf.dist
                 ~via:(c.after + dag.Spf.dist.(Graph.dst t.graph c.arc))
                 0
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
  let one_drop = drops = 1 && Option.is_none t.active.(gi) in
  let mask = a.a_screen and deferred = ref 0 in
  for dst = 0 to Array.length mask - 1 do
    let v =
      match t.active.(gi) with
      | Some act when not act.(dst) -> Clean
      | _ -> verdict t gi ~priced ~one_drop dst Clean changes
    in
    match v with
    | Repair -> mask.(dst) <- true
    | Deferred ->
        mask.(dst) <- false;
        incr deferred
    | Clean -> mask.(dst) <- false
  done;
  !deferred

(* Set the arena row to [changes] and {!repair} the group on its core
   graph under the changes there, behind the flow screen of the classes
   below [priced] unless the committed rows underflowed; returns how
   many dirty destinations the screen deferred.  The core holds either
   way: off-core nodes carry no flow, underflow or not. *)
let repair_screened t a gi ~priced changes =
  set_weights t a gi changes;
  let core = (cores t).(gi) in
  let changes = on_core t.graph core changes in
  if t.zero_shares then begin
    repair t a gi ~active:t.active.(gi) ~graph:core.c_graph changes;
    0
  end
  else begin
    let deferred = screen t a gi ~priced changes in
    repair t a gi ~active:(Some a.a_screen) ~graph:core.c_graph changes;
    deferred
  end

(* Re-project one dirty destination's flows of class [k], of group
   [gi], into the next free arena row and mark every arc whose
   contribution moved; the row is kept (as an override of the committed
   one) only when it moved.  Shares land identically to a fresh
   Loads.destination_loads, so everything folded from the row stays
   bitwise-exact.

   The work stays on the group's core arcs.  Every node that carries
   flow lies on a simple path from a source to the destination, so on
   the core, and so does every node a next-hop arc of it leads to:
   shares land on core arcs only, in the committed rows as in the
   arena's.  So the row is cleared only at its last writer's core arcs,
   the walk adds into it without a full fill, and it is compared with
   the committed row over the group's core arcs.  The core lists hold
   arc ids, in range for both rows, so those loops read unchecked. *)
let reproject t a ~dags gi k dst =
  let dem = t.demand.(k).(dst) in
  if Array.length dem > 0 then begin
    let i = a.a_nov in
    if i = Array.length a.a_rows then
      a.a_rows <- Array.append a.a_rows [| Array.make (Graph.arc_count t.graph) 0. |];
    let nc = a.a_rows.(i) in
    let last = a.a_row_group.(i) in
    if last >= 0 then begin
      let stale = (cores t).(last).c_arcs in
      for j = 0 to Array.length stale - 1 do
        Array.unsafe_set nc (Array.unsafe_get stale j) 0.
      done
    end;
    a.a_row_group.(i) <- gi;
    if
      Loads.spread_demand t.graph ~dag:dags.(dst) ~demand_to_dst:dem ~flow:a.a_flow
        ~contrib:nc
    then a.a_zero_shares <- true;
    let oc = t.contrib.(k).(dst) in
    let touched = a.a_touched and core = (cores t).(gi).c_arcs in
    let changed = ref false in
    for j = 0 to Array.length core - 1 do
      let arc = Array.unsafe_get core j in
      if Array.unsafe_get nc arc <> Array.unsafe_get oc arc then begin
        changed := true;
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
   touched arc.  The touched list names each arc once, so each total
   is still the left fold from +0. over ascending destinations.  Arc
   ids are in range for every row, so that loop reads unchecked.  The
   cascade runs downward from the
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
      for j = 0 to nt - 1 do
        Array.unsafe_set out (Array.unsafe_get touched j) 0.
      done;
      for q = 0 to Array.length dsts - 1 do
        let dst = dsts.(q) in
        let i = at.(dst) in
        let c = if i >= 0 then a.a_rows.(i) else committed.(dst) in
        for j = 0 to nt - 1 do
          let arc = Array.unsafe_get touched j in
          Array.unsafe_set out arc (Array.unsafe_get out arc +. Array.unsafe_get c arc)
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
  a.a_changes <- spf_changes;
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

let probe_dags t p k =
  check_view t p "probe_dags" k;
  let gi = t.class_group.(k) in
  if p.p_group >= 0 && gi <> p.p_group then t.group_dags.(gi)
  else Spf_delta.scratch_dags p.p_arena.a_spf.(gi)

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

(* Failed arcs keep a (cheap) delay entry in the Λ walk.  A dag a
   failure probe did not repair may still route over a failed arc, but
   only at nodes without class-0 flow, which no pair's walk reaches,
   so the entry is never read. *)
let probe_primary ~model ~th t p =
  match model with
  | Objective.Load -> p.p_phi.(0)
  | Objective.Sla params ->
      Evaluate.sla_lambda p.p_arena.a_sla params t.graph ~th
        ~dags_h:(probe_dags t p 0) ~phi_h_per_arc:(probe_phi_row t p 0)

(* The committed state's own primary, as {!probe_primary} prices a
   probe that moved nothing: Φ_H, or the Λ of the committed class-0
   dags and Fortz row. *)
let primary ~model ~th t =
  match model with
  | Objective.Load -> t.phi.(0)
  | Objective.Sla params ->
      Evaluate.sla_lambda (arena_of t).a_sla params t.graph ~th
        ~dags_h:t.group_dags.(t.class_group.(0)) ~phi_h_per_arc:t.phi_per_arc.(0)

let zero_shares t = t.zero_shares

(* Whether a change of [changes] passes the label test at some
   destination of group [gi]'s committed dags. *)
let moves_labels t gi changes =
  Array.exists
    (fun dag -> List.exists (Spf_delta.touches t.graph dag) changes)
    t.group_dags.(gi)

(* Install a current probe straight from the arena, copying what it
   moved into fresh arrays: the weight row, the dirty dags
   ({!Spf_delta.scratch_copy}), the moved contribution rows, and full
   load, capacity and Fortz rows of the classes it changed. *)
let commit t p =
  check_probe t p "commit";
  let a = p.p_arena and g = p.p_group in
  (* A deferred destination's dag is exact only at flow-carrying nodes,
     and later screens (D_u), failure probes and materialized solutions
     need it exact, so the group repairs again, unscreened, on its core
     graph: a Demand-mode group's dags are exact on its core and read
     unreachable off it, as {!create} builds them.  An All-mode group's
     dags are exact at every node while its probes repair on the core
     alone, so one with off-core nodes repairs again on the whole graph,
     under every change, whenever a change passes the label test at some
     destination.  The probe's rows stay: they are exact. *)
  let core = (cores t).(g) in
  if Option.is_none t.active.(g) && Option.is_some core.c_off && moves_labels t g a.a_changes
  then repair t a g ~active:None ~graph:t.graph a.a_changes
  else if a.a_deferred > 0 then
    repair t a g ~active:t.active.(g) ~graph:core.c_graph (on_core t.graph core a.a_changes);
  t.group_w.(g) <- Array.copy a.a_w.(g);
  t.group_dags.(g) <- Spf_delta.scratch_copy a.a_spf.(g);
  for i = 0 to a.a_nov - 1 do
    t.contrib.(a.a_ov_class.(i)).(a.a_ov_dst.(i)) <- Array.copy a.a_rows.(i)
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
   searches on the core's subgraph decide every pair.  A link whose
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
  let n = Graph.node_count g and m = Graph.arc_count g in
  let endpoints = Array.make n false and dsts = ref [] in
  for dst = n - 1 downto 0 do
    let sinks = ref false in
    for k = 0 to classes - 1 do
      let dem = t.demand.(k).(dst) in
      if Array.length dem > 0 then begin
        sinks := true;
        Array.iteri (fun s x -> if x > 0. then endpoints.(s) <- true) dem
      end
    done;
    if !sinks then begin
      endpoints.(dst) <- true;
      dsts := dst :: !dsts
    end
  done;
  let dsts = Array.of_list !dsts in
  let core = Graph.without g ~nodes:(Graph.off_core g ~endpoints) in
  let failed = Array.make m false in
  let seen = Array.make n 0 and stack = Array.make n 0 and round = ref 0 in
  (* Mark the nodes [start] reaches over the arcs of [ids] (segments
     [off], far ends [ends]) that have not failed, until [stop] is
     marked ([-1]: none); returns the round's mark. *)
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
    let y = Graph.dst g a in
    seen.(y)
    = search ~off:(Graph.out_offsets core) ~ids:(Graph.out_arc_ids core)
        ~ends:(Graph.dsts g) (Graph.src g a) ~stop:y
  in
  (* Whether a positive-demand source of some class reaches [dst] only
     over a failed arc. *)
  let cut_off dst =
    let mark =
      search ~off:(Graph.in_offsets core) ~ids:(Graph.in_arc_ids core)
        ~ends:(Graph.srcs g) dst ~stop:(-1)
    in
    let stranded = ref false in
    for k = 0 to classes - 1 do
      let dem = t.demand.(k).(dst) in
      for s = 0 to Array.length dem - 1 do
        if dem.(s) > 0. && seen.(s) <> mark then stranded := true
      done
    done;
    !stranded
  in
  let rec loaded k a = k < classes && (t.loads.(k).(a) <> 0. || loaded (k + 1) a) in
  let rec crosses k dst a b =
    k < classes
    && (let row = t.contrib.(k).(dst) in
        (Array.length row > 0 && (row.(a) <> 0. || row.(b) <> 0.))
        || crosses (k + 1) dst a b)
  in
  Array.map
    (fun (a, b) ->
      if t.zero_shares || loaded 0 a || loaded 0 b then begin
        failed.(a) <- true;
        failed.(b) <- true;
        let cut =
          (not (detour a && detour b))
          && Array.exists
               (fun dst -> (t.zero_shares || crosses 0 dst a b) && cut_off dst)
               dsts
        in
        failed.(a) <- false;
        failed.(b) <- false;
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
