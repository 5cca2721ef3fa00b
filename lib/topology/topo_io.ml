module Graph = Dtr_graph.Graph

let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.node_count g));
  Array.iter
    (fun (a : Graph.arc) ->
      Buffer.add_string buf
        (Printf.sprintf "arc %d %d %.17g %.17g\n" a.src a.dst a.capacity a.delay))
    (Graph.arcs g);
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let nodes = ref None in
  let arcs = ref [] in
  let error = ref None in
  List.iteri
    (fun lineno line ->
      if !error = None then begin
        let line = String.trim line in
        let fail fmt =
          Printf.ksprintf (fun msg -> error := Some msg) ("line %d: " ^^ fmt)
            (lineno + 1)
        in
        if line <> "" && not (String.length line > 0 && line.[0] = '#') then begin
          match Dtr_util.Fields.split line with
          | [ "nodes"; n ] -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> nodes := Some (n, lineno + 1)
              | _ -> fail "bad node count")
          | [ "arc"; src; dst; cap; delay ] -> (
              match
                ( int_of_string_opt src,
                  int_of_string_opt dst,
                  float_of_string_opt cap,
                  float_of_string_opt delay )
              with
              | Some src, Some dst, Some capacity, Some delay ->
                  (* Reject values that would only blow up deep inside a
                     search (Φ with capacity 0, NaN propagating through
                     every load sum) — a parse error with a line number
                     beats an exception mid-sweep. *)
                  if Float.is_nan capacity || Float.is_nan delay then
                    fail "arc has NaN field"
                  else if
                    capacity = Float.infinity || capacity = Float.neg_infinity
                    || delay = Float.infinity || delay = Float.neg_infinity
                  then fail "arc has infinite field"
                  else if capacity <= 0. then
                    fail "arc capacity must be positive (got %.17g)" capacity
                  else if delay < 0. then
                    fail "arc delay must be non-negative (got %.17g)" delay
                  else if src = dst then fail "arc is a self-loop"
                  else
                    arcs :=
                      (lineno + 1, { Graph.src; dst; capacity; delay }) :: !arcs
              | _ -> fail "bad arc")
          | _ -> fail "unknown directive"
        end
      end)
    lines;
  let arcs = List.rev !arcs in
  let out_of_range n (_, (a : Graph.arc)) =
    a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n
  in
  match (!error, !nodes) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'nodes' directive"
  | None, Some (n, line) when n > max 1 (2 * List.length arcs) ->
      (* Such a count leaves some node without an arc, which no
         consumer accepts (every one needs strong connectivity) —
         rejected before the graph's O(n) arrays are allocated. *)
      Error
        (Printf.sprintf "line %d: %d nodes but only %d arcs: some node has no arc"
           line n (List.length arcs))
  | None, Some (n, _) -> (
      match List.find_opt (out_of_range n) arcs with
      | Some (line, a) ->
          Error
            (Printf.sprintf "line %d: arc %d -> %d: endpoint out of range [0, %d)"
               line a.src a.dst n)
      | None -> (
          match Graph.build ~n (List.map snd arcs) with
          | g -> Ok g
          | exception Invalid_argument msg -> Error msg))

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s
