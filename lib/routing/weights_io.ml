let to_string sets =
  if Array.length sets = 0 then invalid_arg "Weights_io.to_string: no vectors";
  let m = Array.length sets.(0) in
  Array.iter
    (fun w ->
      if Array.length w <> m then
        invalid_arg "Weights_io.to_string: length mismatch")
    sets;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "arcs %d topologies %d\n" m (Array.length sets));
  for arc = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "w %d" arc);
    Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf " %d" w.(arc))) sets;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* One directive per line: the header, or a row [w <arc> <values>]
   with its weights range-checked; anything else is that line's
   error. *)
type line = Header of int * int | Row of int * int list | Bad of string

let parse_line fields =
  match fields with
  | [ "arcs"; m; "topologies"; t ] -> (
      match (int_of_string_opt m, int_of_string_opt t) with
      | Some m, Some t when m > 0 && t > 0 -> Header (m, t)
      | _ -> Bad "bad header")
  | "w" :: arc :: values -> (
      match (int_of_string_opt arc, List.map int_of_string_opt values) with
      | Some arc, values when List.for_all Option.is_some values -> (
          let values = List.map Option.get values in
          (* Range-check here, where the offending line is known — a
             vector accepted by the parser must be directly usable as a
             search starting point. *)
          match
            List.find_opt
              (fun v -> v < Weights.min_weight || v > Weights.max_weight)
              values
          with
          | Some v ->
              Bad
                (Printf.sprintf "weight %d out of range [%d, %d]" v
                   Weights.min_weight Weights.max_weight)
          | None -> Row (arc, values))
      | _ -> Bad "bad weights")
  | _ -> Bad "unknown directive"

let of_string s =
  let lines =
    List.concat
      (List.mapi
         (fun i line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then []
           else [ (i + 1, parse_line (Dtr_util.Fields.split line)) ])
         (String.split_on_char '\n' s))
  in
  let header =
    List.fold_left
      (fun h (_, l) -> match l with Header (m, t) -> Some (m, t) | _ -> h)
      None lines
  in
  (* The first bad line in file order; row checks that need the
     header's arc and topology counts wait for it. *)
  let seen = Hashtbl.create 64 in
  let row_error arc values =
    if Hashtbl.mem seen arc then Some (Printf.sprintf "duplicate arc %d" arc)
    else
      match header with
      | Some (m, _) when arc < 0 || arc >= m ->
          Some (Printf.sprintf "arc %d out of range" arc)
      | Some (_, t) when List.length values <> t ->
          Some (Printf.sprintf "arc %d: expected %d weights" arc t)
      | _ ->
          Hashtbl.add seen arc values;
          None
  in
  let first_error =
    List.find_map
      (fun (lineno, l) ->
        let at msg = Some (Printf.sprintf "line %d: %s" lineno msg) in
        match l with
        | Header _ -> None
        | Bad msg -> at msg
        | Row (arc, values) -> Option.bind (row_error arc values) at)
      lines
  in
  match (first_error, header) with
  | Some e, _ -> Error e
  | None, None -> Error "missing header"
  | None, Some (m, t) ->
      if Hashtbl.length seen <> m then
        Error (Printf.sprintf "expected %d arcs, found %d" m (Hashtbl.length seen))
      else begin
        (* Every row is in range with [t] values, so the matrix is no
           larger than the input. *)
        let sets = Array.make_matrix t m 0 in
        Hashtbl.iter
          (fun arc values -> List.iteri (fun k v -> sets.(k).(arc) <- v) values)
          seen;
        Ok sets
      end

let save sets path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sets))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s
