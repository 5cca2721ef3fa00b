(* Corpus mutations for parser fuzzing: a file one of the repo's own
   writers emitted, damaged the ways real files get damaged — lines
   dropped, duplicated or swapped, the file truncated, a number
   replaced by an extreme or non-finite value, blanks turned into tabs
   or line ends into CRLF. *)

module Prng = Dtr_util.Prng

let extremes =
  [| "0"; "-1"; string_of_int max_int; "1e11"; "nan"; "inf" |]

let is_num_char c = (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = '-'

(* Start offsets and lengths of the numeric tokens of [s]: maximal runs
   of number characters that start with a digit or a minus sign. *)
let numbers s =
  let n = String.length s in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if (s.[i] >= '0' && s.[i] <= '9') || s.[i] = '-' then begin
      let j = ref i in
      while !j < n && is_num_char s.[!j] do
        incr j
      done;
      scan !j ((i, !j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let on_lines f s =
  let lines = Array.of_list (String.split_on_char '\n' s) in
  String.concat "\n" (Array.to_list (f lines))

let once rng s =
  let n = String.length s in
  match Prng.int rng 7 with
  | 0 ->
      on_lines
        (fun ls ->
          let k = Prng.int rng (Array.length ls) in
          Array.append (Array.sub ls 0 k)
            (Array.sub ls (k + 1) (Array.length ls - k - 1)))
        s
  | 1 ->
      on_lines
        (fun ls ->
          let k = Prng.int rng (Array.length ls) in
          Array.concat
            [ Array.sub ls 0 (k + 1); [| ls.(k) |];
              Array.sub ls (k + 1) (Array.length ls - k - 1) ])
        s
  | 2 ->
      on_lines
        (fun ls ->
          let ls = Array.copy ls in
          let i = Prng.int rng (Array.length ls)
          and j = Prng.int rng (Array.length ls) in
          let t = ls.(i) in
          ls.(i) <- ls.(j);
          ls.(j) <- t;
          ls)
        s
  | 3 -> String.sub s 0 (Prng.int rng (n + 1))
  | 4 -> (
      match numbers s with
      | [] -> s
      | nums ->
          let i, len = Prng.choose rng (Array.of_list nums) in
          String.sub s 0 i ^ Prng.choose rng extremes
          ^ String.sub s (i + len) (n - i - len))
  | 5 -> String.map (fun c -> if c = ' ' && Prng.bool rng then '\t' else c) s
  | _ -> String.concat "\r\n" (String.split_on_char '\n' s)

(** One to three random mutations of [s]. *)
let mutate rng s =
  let s = ref s in
  for _ = 0 to Prng.int rng 3 do
    s := once rng !s
  done;
  !s
