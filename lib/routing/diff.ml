module Graph = Dtr_graph.Graph
module Spf = Dtr_graph.Spf
module Table = Dtr_util.Table
module Pool = Dtr_util.Pool
module Network = Dtr_mtospf.Network

type class_diff = {
  cd_changed_arcs : (int * int * int) list;
  cd_rerouted_pairs : int;
  cd_total_pairs : int;
  cd_rerouted_demand : float;
  cd_total_demand : float;
  cd_traffic_moved : float;
  cd_phi_before : float;
  cd_phi_after : float;
  cd_load_delta : float array;
}

type t = {
  classes : class_diff array;
  changed_arcs : int;
  avg_util_before : float;
  avg_util_after : float;
  max_util_before : float;
  max_util_after : float;
  lambda : (float * float) option;
}

let is_empty t =
  t.changed_arcs = 0
  && Array.for_all
       (fun c ->
         c.cd_rerouted_pairs = 0 && c.cd_traffic_moved = 0.
         && c.cd_changed_arcs = [])
       t.classes

let check_compatible a b =
  if Eval_ctx.graph a != Eval_ctx.graph b then
    invalid_arg "Diff: contexts evaluate different graphs";
  if Eval_ctx.class_count a <> Eval_ctx.class_count b then
    invalid_arg "Diff: contexts disagree on class count"

(* Per-destination rerouted-pair detection.  [differ.(v)] marks nodes
   whose ECMP next-hop set changed; a backward pass over each DAG (in
   increasing-distance order, so next hops are final before their
   predecessors) then flags every node whose flow traverses an
   affected node in that setting.  A pair is rerouted iff its source
   is flagged under either setting — exact, since a pair's forwarding
   changed exactly when some node on its (old or new) shortest-path
   DAG changed its next-hop set. *)
let propagate_flags (dag : Spf.dag) ~differ ~flag dsts =
  let order = dag.Spf.order_desc in
  flag.(dag.Spf.dst) <- false;
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    let f = ref differ.(v) in
    let next = dag.Spf.next_arcs.(v) in
    let j = ref 0 in
    let deg = Array.length next in
    while (not !f) && !j < deg do
      if flag.(dsts.(next.(!j))) then f := true;
      incr j
    done;
    flag.(v) <- !f
  done

(* One destination's (rerouted pairs, rerouted demand): scratch is
   allocated by the caller (one set per parallel task). *)
let diff_dest g ~(dag_a : Spf.dag) ~(dag_b : Spf.dag) ~dem ~differ ~flag_a
    ~flag_b =
  let n = Graph.node_count g in
  let dsts = Graph.dsts g in
  let any = ref false in
  for v = 0 to n - 1 do
    let d = dag_a.Spf.next_arcs.(v) <> dag_b.Spf.next_arcs.(v) in
    differ.(v) <- d;
    if d then any := true
  done;
  if not !any then (0, 0.)
  else begin
    propagate_flags dag_a ~differ ~flag:flag_a dsts;
    propagate_flags dag_b ~differ ~flag:flag_b dsts;
    let pairs = ref 0 and demand = ref 0. in
    for s = 0 to n - 1 do
      if dem.(s) > 0. && (flag_a.(s) || flag_b.(s)) then begin
        incr pairs;
        demand := !demand +. dem.(s)
      end
    done;
    (!pairs, !demand)
  end

let utilizations ctx =
  let g = Eval_ctx.graph ctx in
  let m = Graph.arc_count g in
  let caps = Graph.capacities g in
  let classes = Eval_ctx.class_count ctx in
  let avg = ref 0. and mx = ref 0. in
  for a = 0 to m - 1 do
    let load = ref 0. in
    for k = 0 to classes - 1 do
      load := !load +. (Eval_ctx.loads ctx k).(a)
    done;
    let u = if caps.(a) > 0. then !load /. caps.(a) else 0. in
    avg := !avg +. u;
    if u > !mx then mx := u
  done;
  ((if m > 0 then !avg /. float_of_int m else 0.), !mx)

let compute ?(jobs = 1) ?sla ctx_a ctx_b =
  check_compatible ctx_a ctx_b;
  let g = Eval_ctx.graph ctx_a in
  let n = Graph.node_count g in
  let m = Graph.arc_count g in
  let classes = Eval_ctx.class_count ctx_a in
  let changed = ref 0 in
  let class_diffs =
    Array.init classes (fun k ->
        let wa = Eval_ctx.weights_view ctx_a k in
        let wb = Eval_ctx.weights_view ctx_b k in
        let changed_arcs = ref [] in
        for a = m - 1 downto 0 do
          if wa.(a) <> wb.(a) then
            changed_arcs := (a, wa.(a), wb.(a)) :: !changed_arcs
        done;
        changed := !changed + List.length !changed_arcs;
        (* Destinations carrying demand in this class (rows are fixed
           per problem, so both contexts agree). *)
        let dests = ref [] in
        let total_pairs = ref 0 and total_demand = ref 0. in
        for dst = n - 1 downto 0 do
          let dem = Eval_ctx.demand_view ctx_a ~klass:k ~dst in
          if Array.length dem > 0 then begin
            dests := dst :: !dests;
            for s = 0 to n - 1 do
              if dem.(s) > 0. then begin
                incr total_pairs;
                total_demand := !total_demand +. dem.(s)
              end
            done
          end
        done;
        let dests = Array.of_list !dests in
        let dags_a = Eval_ctx.dags ctx_a k in
        let dags_b = Eval_ctx.dags ctx_b k in
        (* Index-ordered parallel map; folding the per-destination
           results in ascending order keeps sums jobs-invariant. *)
        let per_dest =
          Pool.run ~jobs (Array.length dests) ~f:(fun i ->
              let dst = dests.(i) in
              let dem = Eval_ctx.demand_view ctx_a ~klass:k ~dst in
              diff_dest g ~dag_a:dags_a.(dst) ~dag_b:dags_b.(dst) ~dem
                ~differ:(Array.make n false) ~flag_a:(Array.make n false)
                ~flag_b:(Array.make n false))
        in
        let rerouted_pairs = ref 0 and rerouted_demand = ref 0. in
        Array.iter
          (fun (p, d) ->
            rerouted_pairs := !rerouted_pairs + p;
            rerouted_demand := !rerouted_demand +. d)
          per_dest;
        let la = Eval_ctx.loads ctx_a k and lb = Eval_ctx.loads ctx_b k in
        let load_delta = Array.init m (fun a -> lb.(a) -. la.(a)) in
        let moved = ref 0. in
        for a = 0 to m - 1 do
          moved := !moved +. Float.abs load_delta.(a)
        done;
        {
          cd_changed_arcs = !changed_arcs;
          cd_rerouted_pairs = !rerouted_pairs;
          cd_total_pairs = !total_pairs;
          cd_rerouted_demand = !rerouted_demand;
          cd_total_demand = !total_demand;
          cd_traffic_moved = !moved;
          cd_phi_before = (Eval_ctx.phi ctx_a).(k);
          cd_phi_after = (Eval_ctx.phi ctx_b).(k);
          cd_load_delta = load_delta;
        })
  in
  let avg_a, max_a = utilizations ctx_a in
  let avg_b, max_b = utilizations ctx_b in
  let lambda =
    match sla with
    | None -> None
    | Some (params, th) ->
        let lam ctx =
          (Evaluate.evaluate_sla params (Eval_ctx.to_evaluate ctx) ~th)
            .Evaluate.lambda
        in
        Some (lam ctx_a, lam ctx_b)
  in
  {
    classes = class_diffs;
    changed_arcs = !changed;
    avg_util_before = avg_a;
    avg_util_after = avg_b;
    max_util_before = max_a;
    max_util_after = max_b;
    lambda;
  }

let of_changes ?jobs ?sla ctx ~klass ~changes =
  let candidate = Eval_ctx.clone ctx in
  let p = Eval_ctx.probe candidate ~klass ~changes in
  Eval_ctx.commit candidate p;
  compute ?jobs ?sla ctx candidate

type reconvergence = {
  rc_changes : int;
  rc_routers : int;
  rc_stats : Network.flood_stats;
}

let reconvergence ctx_a ctx_b =
  check_compatible ctx_a ctx_b;
  let g = Eval_ctx.graph ctx_a in
  let m = Graph.arc_count g in
  let classes = Eval_ctx.class_count ctx_a in
  let weight_sets =
    Array.init classes (fun k -> Eval_ctx.weights ctx_a k)
  in
  let changes = ref [] in
  for k = classes - 1 downto 0 do
    let wa = Eval_ctx.weights_view ctx_a k
    and wb = Eval_ctx.weights_view ctx_b k in
    for a = m - 1 downto 0 do
      if wa.(a) <> wb.(a) then changes := (k, a, wb.(a)) :: !changes
    done
  done;
  let changes = !changes in
  if changes = [] then
    {
      rc_changes = 0;
      rc_routers = 0;
      rc_stats = { Network.rounds = 0; messages = 0 };
    }
  else begin
    let net = Network.create g ~weight_sets in
    ignore (Network.flood net);
    let routers =
      List.sort_uniq compare (List.map (fun (_, a, _) -> Graph.src g a) changes)
    in
    let stats = Network.apply_changes net changes in
    {
      rc_changes = List.length changes;
      rc_routers = List.length routers;
      rc_stats = stats;
    }
  end

let class_label t k =
  if Array.length t.classes = 2 then if k = 0 then "H" else "L"
  else Printf.sprintf "class %d" k

let summary_table t =
  let table =
    Table.create ~title:"Weight-diff churn summary"
      ~columns:
        [
          "class";
          "changed arcs";
          "rerouted pairs";
          "rerouted demand";
          "traffic moved";
          "Phi before";
          "Phi after";
          "dPhi";
        ]
  in
  Array.iteri
    (fun k c ->
      Table.add_row table
        [
          class_label t k;
          string_of_int (List.length c.cd_changed_arcs);
          Printf.sprintf "%d / %d" c.cd_rerouted_pairs c.cd_total_pairs;
          Printf.sprintf "%.1f / %.1f" c.cd_rerouted_demand c.cd_total_demand;
          Printf.sprintf "%.1f" c.cd_traffic_moved;
          Printf.sprintf "%.4g" c.cd_phi_before;
          Printf.sprintf "%.4g" c.cd_phi_after;
          Printf.sprintf "%+.4g" (c.cd_phi_after -. c.cd_phi_before);
        ])
    t.classes;
  let net metric before after =
    Table.add_row table
      [
        metric;
        "-";
        "-";
        "-";
        "-";
        Printf.sprintf "%.4g" before;
        Printf.sprintf "%.4g" after;
        Printf.sprintf "%+.4g" (after -. before);
      ]
  in
  net "avg util" t.avg_util_before t.avg_util_after;
  net "max util" t.max_util_before t.max_util_after;
  (match t.lambda with
  | None -> ()
  | Some (before, after) -> net "Lambda" before after);
  table

let changed_arcs_table ?(top = 20) ctx t =
  let g = Eval_ctx.graph ctx in
  let m = Graph.arc_count g in
  let classes = Array.length t.classes in
  (* Arcs worth a row: a weight change or a load change in any class. *)
  let total_delta a =
    let s = ref 0. in
    for k = 0 to classes - 1 do
      s := !s +. Float.abs t.classes.(k).cd_load_delta.(a)
    done;
    !s
  in
  let weight_change k a =
    List.find_opt (fun (a', _, _) -> a' = a) t.classes.(k).cd_changed_arcs
  in
  let interesting = ref [] in
  for a = m - 1 downto 0 do
    let has_w =
      let rec go k =
        k < classes && (weight_change k a <> None || go (k + 1))
      in
      go 0
    in
    if has_w || total_delta a <> 0. then interesting := a :: !interesting
  done;
  let ids = Array.of_list !interesting in
  Array.sort
    (fun a b ->
      let c = Float.compare (total_delta b) (total_delta a) in
      if c <> 0 then c else compare a b)
    ids;
  let columns =
    [ "arc"; "link" ]
    @ List.concat_map
        (fun k ->
          let l = class_label t k in
          [ "w " ^ l; "dload " ^ l ])
        (List.init classes Fun.id)
  in
  let table =
    Table.create ~title:"Changed arcs (sorted by total |dload|)" ~columns
  in
  let limit = min top (Array.length ids) in
  for i = 0 to limit - 1 do
    let a = ids.(i) in
    let cells =
      List.concat_map
        (fun k ->
          let w =
            match weight_change k a with
            | Some (_, before, after) -> Printf.sprintf "%d->%d" before after
            | None -> "="
          in
          [ w; Printf.sprintf "%+.1f" t.classes.(k).cd_load_delta.(a) ])
        (List.init classes Fun.id)
    in
    Table.add_row table
      ([
         string_of_int a;
         Printf.sprintf "%d->%d" (Graph.src g a) (Graph.dst g a);
       ]
      @ cells)
  done;
  table

let reconvergence_table r =
  let table =
    Table.create ~title:"MT-OSPF reconvergence price (batched deployment)"
      ~columns:[ "weight changes"; "routers re-originating"; "flood rounds"; "LSA messages" ]
  in
  Table.add_row table
    [
      string_of_int r.rc_changes;
      string_of_int r.rc_routers;
      string_of_int r.rc_stats.Network.rounds;
      string_of_int r.rc_stats.Network.messages;
    ];
  table

let float_str x = Printf.sprintf "%.17g" x

let to_json ?reconv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"classes\":[";
  Array.iteri
    (fun k c ->
      if k > 0 then Buffer.add_char b ',';
      let moved_arcs =
        Array.fold_left
          (fun acc d -> if d <> 0. then acc + 1 else acc)
          0 c.cd_load_delta
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"label\":%s,\"changed_arcs\":[%s],\"rerouted_pairs\":%d,\"total_pairs\":%d,\"rerouted_demand\":%s,\"total_demand\":%s,\"traffic_moved\":%s,\"arcs_load_moved\":%d,\"phi_before\":%s,\"phi_after\":%s}"
           (Dtr_util.Json.quote (class_label t k))
           (String.concat ","
              (List.map
                 (fun (a, before, after) ->
                   Printf.sprintf "{\"arc\":%d,\"before\":%d,\"after\":%d}" a
                     before after)
                 c.cd_changed_arcs))
           c.cd_rerouted_pairs c.cd_total_pairs
           (float_str c.cd_rerouted_demand)
           (float_str c.cd_total_demand)
           (float_str c.cd_traffic_moved)
           moved_arcs
           (float_str c.cd_phi_before)
           (float_str c.cd_phi_after)))
    t.classes;
  Buffer.add_string b "],";
  Buffer.add_string b
    (Printf.sprintf
       "\"changed_arcs\":%d,\"avg_util_before\":%s,\"avg_util_after\":%s,\"max_util_before\":%s,\"max_util_after\":%s"
       t.changed_arcs
       (float_str t.avg_util_before)
       (float_str t.avg_util_after)
       (float_str t.max_util_before)
       (float_str t.max_util_after));
  (match t.lambda with
  | None -> ()
  | Some (before, after) ->
      Buffer.add_string b
        (Printf.sprintf ",\"lambda_before\":%s,\"lambda_after\":%s"
           (float_str before) (float_str after)));
  (match reconv with
  | None -> ()
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"reconvergence\":{\"changes\":%d,\"routers\":%d,\"rounds\":%d,\"messages\":%d}"
           r.rc_changes r.rc_routers r.rc_stats.Network.rounds
           r.rc_stats.Network.messages));
  Buffer.add_char b '}';
  Buffer.contents b
