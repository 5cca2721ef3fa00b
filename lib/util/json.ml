type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_ws s pos =
  let n = String.length s in
  let p = ref pos in
  while !p < n && is_ws s.[!p] do
    incr p
  done;
  !p

let expect s pos c =
  if pos >= String.length s || s.[pos] <> c then
    fail pos (Printf.sprintf "expected '%c'" c);
  pos + 1

let parse_literal s pos word v =
  let len = String.length word in
  if
    pos + len <= String.length s
    && String.equal (String.sub s pos len) word
  then (v, pos + len)
  else fail pos (Printf.sprintf "expected %s" word)

let utf8_of_code b code =
  (* Encode one Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 s pos =
  if pos + 4 > String.length s then fail pos "truncated \\u escape";
  let v = ref 0 in
  for i = pos to pos + 3 do
    let d =
      match s.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail i "bad hex digit in \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  (!v, pos + 4)

let parse_string s pos =
  let n = String.length s in
  let pos = expect s pos '"' in
  let b = Buffer.create 16 in
  let p = ref pos in
  let result = ref None in
  while !result = None do
    if !p >= n then fail !p "unterminated string";
    match s.[!p] with
    | '"' -> result := Some (Buffer.contents b, !p + 1)
    | '\\' ->
        if !p + 1 >= n then fail !p "truncated escape";
        (match s.[!p + 1] with
        | '"' -> Buffer.add_char b '"'; p := !p + 2
        | '\\' -> Buffer.add_char b '\\'; p := !p + 2
        | '/' -> Buffer.add_char b '/'; p := !p + 2
        | 'b' -> Buffer.add_char b '\b'; p := !p + 2
        | 'f' -> Buffer.add_char b '\012'; p := !p + 2
        | 'n' -> Buffer.add_char b '\n'; p := !p + 2
        | 'r' -> Buffer.add_char b '\r'; p := !p + 2
        | 't' -> Buffer.add_char b '\t'; p := !p + 2
        | 'u' ->
            let code, p' = hex4 s (!p + 2) in
            (* Surrogate pair? *)
            if code >= 0xD800 && code <= 0xDBFF && p' + 6 <= n
               && s.[p'] = '\\' && s.[p' + 1] = 'u'
            then begin
              let lo, p'' = hex4 s (p' + 2) in
              if lo >= 0xDC00 && lo <= 0xDFFF then begin
                let c =
                  0x10000 + (((code - 0xD800) lsl 10) lor (lo - 0xDC00))
                in
                utf8_of_code b c;
                p := p''
              end
              else begin
                utf8_of_code b code;
                p := p'
              end
            end
            else begin
              utf8_of_code b code;
              p := p'
            end
        | c -> fail !p (Printf.sprintf "bad escape '\\%c'" c))
    | c when Char.code c < 0x20 -> fail !p "control character in string"
    | c ->
        Buffer.add_char b c;
        incr p
  done;
  match !result with Some r -> r | None -> assert false

let parse_number s pos =
  let n = String.length s in
  let p = ref pos in
  if !p < n && s.[!p] = '-' then incr p;
  while
    !p < n
    && (match s.[!p] with
       | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
       | _ -> false)
  do
    incr p
  done;
  if !p = pos then fail pos "expected number";
  let lit = String.sub s pos (!p - pos) in
  match float_of_string_opt lit with
  | Some v -> (v, !p)
  | None -> fail pos (Printf.sprintf "bad number %S" lit)

let rec parse_value s pos =
  let pos = skip_ws s pos in
  if pos >= String.length s then fail pos "unexpected end of input";
  match s.[pos] with
  | 'n' ->
      let v, p = parse_literal s pos "null" Null in
      (v, p)
  | 't' -> parse_literal s pos "true" (Bool true)
  | 'f' -> parse_literal s pos "false" (Bool false)
  | '"' ->
      let str, p = parse_string s pos in
      (Str str, p)
  | '[' -> parse_array s (pos + 1)
  | '{' -> parse_obj s (pos + 1)
  | _ ->
      let v, p = parse_number s pos in
      (Num v, p)

and parse_array s pos =
  let pos = skip_ws s pos in
  if pos < String.length s && s.[pos] = ']' then (Arr [], pos + 1)
  else
    let rec loop acc pos =
      let v, pos = parse_value s pos in
      let pos = skip_ws s pos in
      if pos >= String.length s then fail pos "unterminated array"
      else if s.[pos] = ',' then loop (v :: acc) (pos + 1)
      else if s.[pos] = ']' then (Arr (List.rev (v :: acc)), pos + 1)
      else fail pos "expected ',' or ']'"
    in
    loop [] pos

and parse_obj s pos =
  let pos = skip_ws s pos in
  if pos < String.length s && s.[pos] = '}' then (Obj [], pos + 1)
  else
    let rec loop acc pos =
      let pos = skip_ws s pos in
      let key, pos = parse_string s pos in
      let pos = skip_ws s pos in
      let pos = expect s pos ':' in
      let v, pos = parse_value s pos in
      let pos = skip_ws s pos in
      if pos >= String.length s then fail pos "unterminated object"
      else if s.[pos] = ',' then loop ((key, v) :: acc) (pos + 1)
      else if s.[pos] = '}' then (Obj (List.rev ((key, v) :: acc)), pos + 1)
      else fail pos "expected ',' or '}'"
    in
    loop [] pos

let parse s =
  match
    let v, pos = parse_value s 0 in
    let pos = skip_ws s pos in
    if pos <> String.length s then fail pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

(* [int_of_float] is unspecified outside the int range, so only
   integral values in [min_int, -min_int) — exact floats on every word
   size — convert. *)
let to_int = function
  | Num v
    when Float.is_integer v
         && v >= Float.of_int min_int
         && v < -.Float.of_int min_int ->
      Some (int_of_float v)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
