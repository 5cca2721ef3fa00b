module Json = Dtr_util.Json
module Table = Dtr_util.Table

type t = {
  events : Trace.event list;
  bad_lines : int;
  metrics : Json.t option;
  manifest_raw : string option;
}

let events t = t.events
let bad_lines t = t.bad_lines

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?metrics ?manifest trace_path =
  match
    let lines = read_lines trace_path in
    let evs = ref [] and bad = ref 0 and first_bad = ref None in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then
          match Trace.of_json line with
          | Ok e -> evs := e :: !evs
          | Error e ->
              incr bad;
              if !first_bad = None then first_bad := Some (i + 1, e))
      lines;
    if !evs = [] then
      Error
        (match !first_bad with
        | None -> Printf.sprintf "%s: no trace events (empty or blank file)" trace_path
        | Some (line, e) ->
            Printf.sprintf "%s: no parseable trace events (line %d: %s)" trace_path
              line e)
    else
      let parse_doc what path =
        let raw = read_all path in
        match Json.parse raw with
        | Ok j -> Ok (raw, j)
        | Error e -> Error (Printf.sprintf "%s (%s): %s" path what e)
      in
      let ( let* ) = Result.bind in
      let* metrics =
        match metrics with
        | None -> Ok None
        | Some p ->
            let* _, j = parse_doc "metrics" p in
            Ok (Some j)
      in
      let* manifest_raw =
        match manifest with
        | None -> Ok None
        | Some p ->
            let* raw, _ = parse_doc "manifest" p in
            Ok (Some (String.trim raw))
      in
      Ok
        {
          events = List.rev !evs;
          bad_lines = !bad;
          metrics;
          manifest_raw;
        }
  with
  | r -> r
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Derived statistics.                                                 *)

type phase = {
  p_restart : int;
  p_label : string;
  p_moves : int;
  p_accepted : int;
  p_probes : int;
  p_memo_probes : int;
  p_diversify : int;
  p_evaluations : int;
  p_memo_hits : int;
  p_memo_misses : int;
  p_wall_us : float;
  p_best : float array;
}

(* Which search family produced the trace, inferred from the event
   kinds present; phase ordinals mean different things per family. *)
type flavor = Dtr | Mtr of int | Anneal | Other

let flavor evs =
  let has k = List.exists (fun (e : Trace.event) -> e.Trace.kind = k) evs in
  if has Trace.Find_h || has Trace.Find_l then Dtr
  else if has Trace.Mtr_pass then begin
    (* MTR per-class phases carry detail 0..T-1 and the joint
       refinement detail T, so the maximum detail is the class count. *)
    let dmax =
      List.fold_left
        (fun acc (e : Trace.event) ->
          if e.Trace.kind = Trace.Phase_done then max acc e.Trace.detail
          else acc)
        0 evs
    in
    Mtr dmax
  end
  else if has Trace.Anneal_step then Anneal
  else Other

let phase_label fl detail =
  match fl with
  | Dtr -> (
      match detail with
      | 0 -> "optimize W_H"
      | 1 -> "optimize W_L"
      | 2 -> "refine"
      | d -> Printf.sprintf "phase %d" d)
  | Mtr classes ->
      if detail = classes then "joint refine"
      else Printf.sprintf "class %d" detail
  | Anneal -> Printf.sprintf "anneal phase %d" detail
  | Other -> Printf.sprintf "phase %d" detail

let phases t =
  let fl = flavor t.events in
  let acc = ref [] in
  let cur_restart = ref min_int in
  let moves = ref 0
  and accepted = ref 0
  and probes = ref 0
  and memo_probes = ref 0
  and diversify = ref 0 in
  let base_evals = ref 0
  and base_hits = ref 0
  and base_misses = ref 0
  and base_us = ref 0. in
  let reset_segment () =
    moves := 0;
    accepted := 0;
    probes := 0;
    memo_probes := 0;
    diversify := 0
  in
  List.iter
    (fun (e : Trace.event) ->
      (* Restarts are serialized contiguously (Multistart replays the
         per-restart rings in index order), so counter baselines reset
         exactly at restart boundaries. *)
      if e.Trace.restart <> !cur_restart then begin
        cur_restart := e.Trace.restart;
        reset_segment ();
        base_evals := 0;
        base_hits := 0;
        base_misses := 0;
        base_us := 0.
      end;
      match e.Trace.kind with
      | Trace.Probe ->
          incr probes;
          if e.Trace.accepted then incr memo_probes
      | Trace.Diversify -> incr diversify
      | Trace.Str_scan | Trace.Find_h | Trace.Find_l | Trace.Mtr_pass
      | Trace.Anneal_step | Trace.Robust_sweep ->
          incr moves;
          if e.Trace.accepted then incr accepted
      | Trace.Restart_done -> ()
      | Trace.Phase_done ->
          acc :=
            {
              p_restart = e.Trace.restart;
              p_label = phase_label fl e.Trace.detail;
              p_moves = !moves;
              p_accepted = !accepted;
              p_probes = !probes;
              p_memo_probes = !memo_probes;
              p_diversify = !diversify;
              p_evaluations = e.Trace.evaluations - !base_evals;
              p_memo_hits = e.Trace.memo_hits - !base_hits;
              p_memo_misses = e.Trace.memo_misses - !base_misses;
              p_wall_us = e.Trace.time_us -. !base_us;
              p_best = e.Trace.best;
            }
            :: !acc;
          base_evals := e.Trace.evaluations;
          base_hits := e.Trace.memo_hits;
          base_misses := e.Trace.memo_misses;
          base_us := e.Trace.time_us;
          reset_segment ())
    t.events;
  List.rev !acc

type totals = {
  t_events : int;
  t_probes : int;
  t_memo_probes : int;
  t_moves : int;
  t_accepted : int;
  t_diversify : int;
  t_restarts : int;
  t_evaluations : int;
  t_full : int;
  t_delta : int;
  t_memo_hits : int;
  t_memo_misses : int;
  t_duration_us : float;
  t_best : float array;
}

let totals t =
  let events = ref 0
  and probes = ref 0
  and memo_probes = ref 0
  and moves = ref 0
  and accepted = ref 0
  and diversify = ref 0
  and restarts = ref 0 in
  (* Per-restart-segment counters are cumulative; sum the per-segment
     maxima across segments (the trace serializes restarts, so a
     segment ends exactly when the restart id changes). *)
  let segment = ref min_int in
  let seg_evals = ref 0
  and seg_full = ref 0
  and seg_delta = ref 0
  and seg_hits = ref 0
  and seg_misses = ref 0 in
  let evals = ref 0
  and full = ref 0
  and delta = ref 0
  and hits = ref 0
  and misses = ref 0 in
  let close_segment () =
    evals := !evals + !seg_evals;
    full := !full + !seg_full;
    delta := !delta + !seg_delta;
    hits := !hits + !seg_hits;
    misses := !misses + !seg_misses;
    seg_evals := 0;
    seg_full := 0;
    seg_delta := 0;
    seg_hits := 0;
    seg_misses := 0
  in
  let duration = ref 0. in
  List.iter
    (fun (e : Trace.event) ->
      incr events;
      if e.Trace.restart <> !segment then begin
        if !segment <> min_int then close_segment ();
        segment := e.Trace.restart
      end;
      seg_evals := max !seg_evals e.Trace.evaluations;
      seg_full := max !seg_full e.Trace.full_evals;
      seg_delta := max !seg_delta e.Trace.delta_evals;
      seg_hits := max !seg_hits e.Trace.memo_hits;
      seg_misses := max !seg_misses e.Trace.memo_misses;
      if e.Trace.time_us > !duration then duration := e.Trace.time_us;
      match e.Trace.kind with
      | Trace.Probe ->
          incr probes;
          if e.Trace.accepted then incr memo_probes
      | Trace.Diversify -> incr diversify
      | Trace.Restart_done -> incr restarts
      | Trace.Phase_done -> ()
      | Trace.Str_scan | Trace.Find_h | Trace.Find_l | Trace.Mtr_pass
      | Trace.Anneal_step | Trace.Robust_sweep ->
          incr moves;
          if e.Trace.accepted then incr accepted)
    t.events;
  if !segment <> min_int then close_segment ();
  {
    t_events = !events;
    t_probes = !probes;
    t_memo_probes = !memo_probes;
    t_moves = !moves;
    t_accepted = !accepted;
    t_diversify = !diversify;
    t_restarts = !restarts;
    t_evaluations = !evals;
    t_full = !full;
    t_delta = !delta;
    t_memo_hits = !hits;
    t_memo_misses = !misses;
    t_duration_us = !duration;
    t_best =
      (* The running exact-lexicographic minimum ends at the last
         point of the convergence curve. *)
      (match List.rev (Trace.convergence t.events) with
      | (_, best) :: _ -> best
      | [] -> [||]);
  }

(* ------------------------------------------------------------------ *)
(* Tables.                                                             *)

let pct num den =
  if den = 0 then "-" else Printf.sprintf "%.1f%%" (100. *. float_of_int num /. float_of_int den)

let vec_str v =
  if Array.length v = 0 then "-"
  else
    String.concat " / "
      (Array.to_list (Array.map Table.float_cell v))

let seconds us = Printf.sprintf "%.3f" (us /. 1e6)

let summary_table t =
  let tt = totals t in
  let tbl = Table.create ~title:"Run summary" ~columns:[ "metric"; "value" ] in
  let row k v = Table.add_row tbl [ k; v ] in
  row "events" (string_of_int tt.t_events);
  if t.bad_lines > 0 then row "unparseable lines" (string_of_int t.bad_lines);
  row "search moves" (string_of_int tt.t_moves);
  row "accepted moves"
    (Printf.sprintf "%d (%s)" tt.t_accepted (pct tt.t_accepted tt.t_moves));
  row "probes" (string_of_int tt.t_probes);
  row "probes served from memo"
    (Printf.sprintf "%d (%s)" tt.t_memo_probes (pct tt.t_memo_probes tt.t_probes));
  row "diversifications" (string_of_int tt.t_diversify);
  if tt.t_restarts > 0 then row "restarts" (string_of_int tt.t_restarts);
  row "evaluations"
    (Printf.sprintf "%d (full %d, delta %d)" tt.t_evaluations tt.t_full
       tt.t_delta);
  row "memo hit rate" (pct tt.t_memo_hits (tt.t_memo_hits + tt.t_memo_misses));
  row "best objective" (vec_str tt.t_best);
  row "duration [s]" (seconds tt.t_duration_us);
  tbl

let all_kinds =
  [
    Trace.Str_scan;
    Trace.Find_h;
    Trace.Find_l;
    Trace.Mtr_pass;
    Trace.Anneal_step;
    Trace.Probe;
    Trace.Diversify;
    Trace.Phase_done;
    Trace.Restart_done;
    Trace.Robust_sweep;
  ]

let kind_counts t =
  List.filter_map
    (fun kind ->
      let n = ref 0 and acc = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          if e.Trace.kind = kind then begin
            incr n;
            if e.Trace.accepted then incr acc
          end)
        t.events;
      if !n = 0 then None else Some (kind, !n, !acc))
    all_kinds

let kind_table t =
  let tbl =
    Table.create ~title:"Events by kind"
      ~columns:[ "kind"; "events"; "accepted"; "rate" ]
  in
  List.iter
    (fun (kind, n, acc) ->
      Table.add_row tbl
        [ Trace.kind_name kind; string_of_int n; string_of_int acc; pct acc n ])
    (kind_counts t);
  tbl

let phase_table t =
  let tbl =
    Table.create ~title:"Phases"
      ~columns:
        [
          "restart";
          "phase";
          "moves";
          "accepted";
          "probes";
          "memo probes";
          "diversify";
          "evals";
          "memo hit rate";
          "wall [s]";
          "best";
        ]
  in
  List.iter
    (fun p ->
      Table.add_row tbl
        [
          (if p.p_restart < 0 then "-" else string_of_int p.p_restart);
          p.p_label;
          string_of_int p.p_moves;
          Printf.sprintf "%d (%s)" p.p_accepted (pct p.p_accepted p.p_moves);
          string_of_int p.p_probes;
          string_of_int p.p_memo_probes;
          string_of_int p.p_diversify;
          string_of_int p.p_evaluations;
          pct p.p_memo_hits (p.p_memo_hits + p.p_memo_misses);
          seconds p.p_wall_us;
          vec_str p.p_best;
        ])
    (phases t);
  tbl

let restart_rows t =
  (* Evaluations spent by a restart: the per-segment maximum of its
     cumulative counter (Restart_done itself carries none). *)
  let seg_max = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let r = e.Trace.restart in
      if r >= 0 then
        let cur = try Hashtbl.find seg_max r with Not_found -> 0 in
        if e.Trace.evaluations > cur then
          Hashtbl.replace seg_max r e.Trace.evaluations)
    t.events;
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.kind = Trace.Restart_done then
        Some
          ( e.Trace.detail,
            e.Trace.after,
            e.Trace.accepted,
            (try Hashtbl.find seg_max e.Trace.detail with Not_found -> 0) )
      else None)
    t.events

let restart_table t =
  let tbl =
    Table.create ~title:"Restarts"
      ~columns:[ "restart"; "objective"; "improved"; "evals" ]
  in
  List.iter
    (fun (i, obj, improved, evals) ->
      Table.add_row tbl
        [
          string_of_int i;
          vec_str obj;
          (if improved then "yes" else "no");
          string_of_int evals;
        ])
    (restart_rows t);
  tbl

let convergence_table t =
  Dtr_routing.Report.convergence_table (Trace.convergence t.events)

let span_rows t =
  match t.metrics with
  | None -> []
  | Some j -> (
      match Json.member "spans" j with
      | Some (Json.Obj fields) ->
          List.filter_map
            (fun (path, v) ->
              match
                ( Option.bind (Json.member "calls" v) Json.to_int,
                  Option.bind (Json.member "seconds" v) Json.to_float )
              with
              | Some calls, Some seconds -> Some (path, calls, seconds)
              | _ -> None)
            fields
      | _ -> [])

let spans_table t =
  match span_rows t with
  | [] -> None
  | rows ->
      let tbl =
        Table.create ~title:"Profiler spans"
          ~columns:[ "span"; "calls"; "seconds" ]
      in
      List.iter
        (fun (path, calls, seconds) ->
          Table.add_row tbl
            [ path; string_of_int calls; Printf.sprintf "%.6f" seconds ])
        rows;
      Some tbl

(* ------------------------------------------------------------------ *)
(* Documents.                                                          *)

let to_markdown t =
  let b = Buffer.create 4096 in
  let section title tbl =
    Buffer.add_string b (Printf.sprintf "## %s\n\n```\n" title);
    Buffer.add_string b (Table.to_string tbl);
    Buffer.add_string b "```\n\n"
  in
  Buffer.add_string b "# DTR run report\n\n";
  section "Summary" (summary_table t);
  section "Events by kind" (kind_table t);
  (match phases t with [] -> () | _ -> section "Phases" (phase_table t));
  (match restart_rows t with
  | [] -> ()
  | _ -> section "Restarts" (restart_table t));
  section "Convergence" (convergence_table t);
  (match spans_table t with
  | None -> ()
  | Some tbl -> section "Profiler spans" tbl);
  (match t.manifest_raw with
  | None -> ()
  | Some raw ->
      Buffer.add_string b "## Provenance\n\n```json\n";
      Buffer.add_string b raw;
      Buffer.add_string b "\n```\n");
  Buffer.contents b

let float_str x = Printf.sprintf "%.17g" x

let json_vec v =
  Printf.sprintf "[%s]"
    (String.concat "," (Array.to_list (Array.map float_str v)))

let to_json t =
  let tt = totals t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"summary\": {\"events\": %d, \"bad_lines\": %d, \"moves\": %d, \
        \"accepted\": %d, \"probes\": %d, \"memo_probes\": %d, \
        \"diversify\": %d, \"restarts\": %d, \"evaluations\": %d, \
        \"full\": %d, \"delta\": %d, \"memo_hits\": %d, \"memo_misses\": %d, \
        \"duration_us\": %s, \"best\": %s}"
       tt.t_events t.bad_lines tt.t_moves tt.t_accepted tt.t_probes
       tt.t_memo_probes tt.t_diversify tt.t_restarts tt.t_evaluations tt.t_full
       tt.t_delta tt.t_memo_hits tt.t_memo_misses (float_str tt.t_duration_us)
       (json_vec tt.t_best));
  Buffer.add_string b ",\n  \"kinds\": [";
  List.iteri
    (fun i (kind, n, acc) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"kind\": %s, \"events\": %d, \"accepted\": %d}"
           (Json.quote (Trace.kind_name kind)) n acc))
    (kind_counts t);
  Buffer.add_string b "]";
  Buffer.add_string b ",\n  \"phases\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"restart\": %d, \"label\": %s, \"moves\": %d, \"accepted\": %d, \
            \"probes\": %d, \"memo_probes\": %d, \"diversify\": %d, \
            \"evaluations\": %d, \"memo_hits\": %d, \"memo_misses\": %d, \
            \"wall_us\": %s, \"best\": %s}"
           p.p_restart (Json.quote p.p_label) p.p_moves p.p_accepted p.p_probes
           p.p_memo_probes p.p_diversify p.p_evaluations p.p_memo_hits
           p.p_memo_misses (float_str p.p_wall_us) (json_vec p.p_best)))
    (phases t);
  Buffer.add_string b "]";
  Buffer.add_string b ",\n  \"restarts\": [";
  List.iteri
    (fun i (r, obj, improved, evals) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"restart\": %d, \"objective\": %s, \"improved\": %b, \
            \"evaluations\": %d}"
           r (json_vec obj) improved evals))
    (restart_rows t);
  Buffer.add_string b "]";
  Buffer.add_string b ",\n  \"convergence\": [";
  List.iteri
    (fun i (evals, obj) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"evaluations\": %d, \"objective\": %s}" evals
           (json_vec obj)))
    (Trace.convergence t.events);
  Buffer.add_string b "]";
  (match span_rows t with
  | [] -> ()
  | rows ->
      Buffer.add_string b ",\n  \"spans\": {";
      List.iteri
        (fun i (path, calls, seconds) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "%s: {\"calls\": %d, \"seconds\": %s}"
               (Json.quote path) calls
               (float_str seconds)))
        rows;
      Buffer.add_string b "}");
  (match t.manifest_raw with
  | None -> ()
  | Some raw ->
      Buffer.add_string b ",\n  \"manifest\": ";
      Buffer.add_string b raw);
  Buffer.add_string b "\n}\n";
  Buffer.contents b
