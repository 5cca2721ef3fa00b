(* Process-global metrics registry.

   One registry for the whole process, off by default: every recording
   entry point loads one atomic flag and branches away, the same
   near-zero-when-disabled discipline as Dtr_core.Trace's pointer
   compare.  Counters and histograms are sharded per domain (a single
   domain-local table indexed by metric id, single-writer, no
   contention — the discipline of Problem's eval counters); reads sum
   the shards, which is exact once the domains that produced them have
   quiesced (pool batches are barriers, so every CLI/bench read site
   qualifies).

   Determinism contract: a metric registered with [~det:true] promises
   that its *total* is a pure function of the work performed, never of
   how that work was scheduled — so deterministic counter/histogram
   totals are bit-identical for every --jobs × --scan-jobs
   combination.  Timers (spans), GC gauges and ~det:false counters are
   exempt; the renderers group them below a
   "# nondeterministic below this line" marker so a diff can stop
   there. *)

let on = Atomic.make false

let enabled () = Atomic.get on

let set_enabled b = Atomic.set on b

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ------------------------------------------------------------------ *)
(* Histogram bucketing.

   Log (base-2) buckets derived from Float.frexp: a finite positive
   value v = m * 2^e (m in [0.5, 1)) lands in the bucket of exponent
   e, i.e. the half-open range [2^(e-1), 2^e).  Exponents are clamped
   to [min_exp, max_exp], so subnormals (e down to -1073) fall into
   the lowest bucket and max_float (e = 1024) into the highest; an
   exact zero has its own bucket below all exponent buckets.  NaN and
   negative values are rejected into a separate count — never
   silently dropped, never raising from a hot path. *)

let min_exp = -64

let max_exp = 64

let n_buckets = max_exp - min_exp + 2 (* zero bucket + one per exponent *)

(* Bucket slot of a value, or -1 for rejected (NaN / negative). *)
let bucket_of v =
  if Float.is_nan v || v < 0. then -1
  else if v = 0. then 0
  else if v = Float.infinity then n_buckets - 1
  else begin
    let _, e = Float.frexp v in
    let e = if e < min_exp then min_exp else if e > max_exp then max_exp else e in
    e - min_exp + 1
  end

(* Upper bound (exclusive) of a bucket slot, for rendering. *)
let bucket_upper slot =
  if slot = 0 then 0. else Float.ldexp 1. (slot - 1 + min_exp)

(* ------------------------------------------------------------------ *)
(* Metric records.  Shards live in a per-domain table indexed by the
   metric's registration id; a shard is also linked into the metric's
   own list (under the registry mutex) so reads and resets can reach
   every domain's contribution, including domains that have since
   terminated. *)

type counter = {
  c_id : int;
  c_name : string;
  c_help : string;
  c_det : bool;
  mutable c_shards : int ref list;
}

type histogram = {
  h_id : int;
  h_name : string;
  h_help : string;
  h_det : bool;
  mutable h_shards : h_shard list;
}

and h_shard = { hs_counts : int array; mutable hs_rejected : int }

type timer = { mutable tm_calls : int; mutable tm_seconds : float }

(* Registration order is the render order. *)
let counters : counter list ref = ref []

let histograms : histogram list ref = ref []

let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let next_id = ref 0

(* Per-domain shard tables: metric id -> shard.  One DLS key for
   counters, one for histograms; slots are created on a domain's first
   touch of each metric and registered into the metric under the
   mutex. *)
type 'a shard_table = { mutable slots : 'a option array }

let counter_shards : int ref shard_table Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { slots = [||] })

let histogram_shards : h_shard shard_table Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { slots = [||] })

let ensure_slot tbl id =
  if id >= Array.length tbl.slots then begin
    let slots = Array.make (max 16 (2 * (id + 1))) None in
    Array.blit tbl.slots 0 slots 0 (Array.length tbl.slots);
    tbl.slots <- slots
  end

(* ------------------------------------------------------------------ *)
(* Registration.  Idempotent by name: modules at different layers may
   share a metric (Dijkstra and Spf_delta both count SPF runs) without
   exporting handles across library boundaries.  A re-registration
   with a different determinism class is a programming error. *)

let find_counter name = List.find_opt (fun c -> c.c_name = name) !counters

let find_histogram name = List.find_opt (fun h -> h.h_name = name) !histograms

let counter ?(det = true) ~help name =
  locked (fun () ->
      match find_counter name with
      | Some c ->
          if c.c_det <> det then
            invalid_arg ("Metrics.counter: determinism mismatch for " ^ name);
          c
      | None ->
          if find_histogram name <> None then
            invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram");
          let c =
            { c_id = !next_id; c_name = name; c_help = help; c_det = det;
              c_shards = [] }
          in
          incr next_id;
          counters := c :: !counters;
          c)

let histogram ?(det = true) ~help name =
  locked (fun () ->
      match find_histogram name with
      | Some h ->
          if h.h_det <> det then
            invalid_arg ("Metrics.histogram: determinism mismatch for " ^ name);
          h
      | None ->
          if find_counter name <> None then
            invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter");
          let h =
            { h_id = !next_id; h_name = name; h_help = help; h_det = det;
              h_shards = [] }
          in
          incr next_id;
          histograms := h :: !histograms;
          h)

(* ------------------------------------------------------------------ *)
(* Recording *)

let counter_shard c =
  let tbl = Domain.DLS.get counter_shards in
  ensure_slot tbl c.c_id;
  match tbl.slots.(c.c_id) with
  | Some r -> r
  | None ->
      let r = ref 0 in
      tbl.slots.(c.c_id) <- Some r;
      locked (fun () -> c.c_shards <- r :: c.c_shards);
      r

let add c n = if Atomic.get on then (let r = counter_shard c in r := !r + n)

let incr_counter c = add c 1

let histogram_shard h =
  let tbl = Domain.DLS.get histogram_shards in
  ensure_slot tbl h.h_id;
  match tbl.slots.(h.h_id) with
  | Some s -> s
  | None ->
      let s = { hs_counts = Array.make n_buckets 0; hs_rejected = 0 } in
      tbl.slots.(h.h_id) <- Some s;
      locked (fun () -> h.h_shards <- s :: h.h_shards);
      s

let observe h v =
  if Atomic.get on then begin
    let s = histogram_shard h in
    match bucket_of v with
    | -1 -> s.hs_rejected <- s.hs_rejected + 1
    | slot -> s.hs_counts.(slot) <- s.hs_counts.(slot) + 1
  end

(* Timers: low-frequency (one update per span end / pool task), so a
   mutex-protected table is fine. *)
let record path seconds =
  if Atomic.get on then
    locked (fun () ->
        let tm =
          match Hashtbl.find_opt timers path with
          | Some tm -> tm
          | None ->
              let tm = { tm_calls = 0; tm_seconds = 0. } in
              Hashtbl.add timers path tm;
              tm
        in
        tm.tm_calls <- tm.tm_calls + 1;
        tm.tm_seconds <- tm.tm_seconds +. seconds)

(* Hierarchical phase profiler: nested spans accumulate under the
   "/"-joined path of the enclosing spans of the same domain. *)
let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    stack := name :: !stack;
    let path = String.concat "/" (List.rev !stack) in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        record path (Unix.gettimeofday () -. t0))
      f
  end

(* ------------------------------------------------------------------ *)
(* Reading.  Exact once writer domains have quiesced; see the module
   comment. *)

let counter_value c =
  locked (fun () -> List.fold_left (fun acc r -> acc + !r) 0 c.c_shards)

let histogram_counts h =
  locked (fun () ->
      let counts = Array.make n_buckets 0 in
      let rejected = ref 0 in
      List.iter
        (fun s ->
          rejected := !rejected + s.hs_rejected;
          for i = 0 to n_buckets - 1 do
            counts.(i) <- counts.(i) + s.hs_counts.(i)
          done)
        h.h_shards;
      (counts, !rejected))

let reset () =
  locked (fun () ->
      List.iter (fun c -> List.iter (fun r -> r := 0) c.c_shards) !counters;
      List.iter
        (fun h ->
          List.iter
            (fun s ->
              Array.fill s.hs_counts 0 n_buckets 0;
              s.hs_rejected <- 0)
            h.h_shards)
        !histograms;
      Hashtbl.reset timers)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let nondet_marker = "# nondeterministic below this line"

let registered_counters () = List.rev !counters

let registered_histograms () = List.rev !histograms

let partition_det l det_of = List.partition det_of l

let fmt_float v =
  (* Shortest exact decimal round-trip, as elsewhere in the repo. *)
  Printf.sprintf "%.17g" v

(* Peak resident set size in kB, read from /proc/self/status (VmHWM:
   the high-water mark, which is exactly the "peak RSS vs. node count"
   a capacity plan needs).  -1 where procfs is unavailable. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception _ -> -1
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> -1
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              try Scanf.sscanf (String.sub line 6 (String.length line - 6))
                    " %d" (fun x -> x)
              with _ -> -1
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let gc_gauges () =
  let s = Gc.quick_stat () in
  [
    ("dtr_gc_minor_words", s.Gc.minor_words);
    ("dtr_gc_promoted_words", s.Gc.promoted_words);
    ("dtr_gc_major_words", s.Gc.major_words);
    ("dtr_gc_minor_collections", float_of_int s.Gc.minor_collections);
    ("dtr_gc_major_collections", float_of_int s.Gc.major_collections);
    ("dtr_gc_compactions", float_of_int s.Gc.compactions);
    ("dtr_gc_heap_words", float_of_int s.Gc.heap_words);
    ("dtr_gc_top_heap_words", float_of_int s.Gc.top_heap_words);
    ("dtr_peak_rss_kb", float_of_int (peak_rss_kb ()));
  ]

let prom_histogram b h =
  let counts, rejected = histogram_counts h in
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" h.h_name h.h_help);
  Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" h.h_name);
  let cum = ref 0 in
  Array.iteri
    (fun slot n ->
      if n > 0 then begin
        cum := !cum + n;
        let le = if slot = 0 then "0" else fmt_float (bucket_upper slot) in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name le !cum)
      end)
    counts;
  Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name !cum);
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" h.h_name !cum);
  Buffer.add_string b
    (Printf.sprintf "%s_rejected %d\n" h.h_name rejected)

let to_prometheus () =
  let b = Buffer.create 4096 in
  let det_c, nondet_c = partition_det (registered_counters ()) (fun c -> c.c_det) in
  let det_h, nondet_h =
    partition_det (registered_histograms ()) (fun h -> h.h_det)
  in
  let prom_counter c =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" c.c_name c.c_help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" c.c_name);
    Buffer.add_string b (Printf.sprintf "%s %d\n" c.c_name (counter_value c))
  in
  List.iter prom_counter det_c;
  List.iter (prom_histogram b) det_h;
  Buffer.add_string b (nondet_marker ^ "\n");
  List.iter prom_counter nondet_c;
  List.iter (prom_histogram b) nondet_h;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
      Buffer.add_string b (Printf.sprintf "%s %s\n" name (fmt_float v)))
    (gc_gauges ());
  let spans =
    locked (fun () -> Hashtbl.fold (fun k tm acc -> (k, tm) :: acc) timers [])
  in
  let spans = List.sort compare spans in
  if spans <> [] then begin
    Buffer.add_string b "# TYPE dtr_span_seconds gauge\n";
    List.iter
      (fun (path, tm) ->
        Buffer.add_string b
          (Printf.sprintf "dtr_span_seconds{path=%S} %s\n" path
             (fmt_float tm.tm_seconds));
        Buffer.add_string b
          (Printf.sprintf "dtr_span_calls{path=%S} %d\n" path tm.tm_calls))
      spans
  end;
  Buffer.contents b

let json_histogram h =
  let counts, rejected = histogram_counts h in
  let buckets = Buffer.create 64 in
  let first = ref true in
  Array.iteri
    (fun slot n ->
      if n > 0 then begin
        if not !first then Buffer.add_string buckets ", ";
        first := false;
        let le = if slot = 0 then "0" else fmt_float (bucket_upper slot) in
        Buffer.add_string buckets (Printf.sprintf "[%s, %d]" le n)
      end)
    counts;
  let total = Array.fold_left ( + ) 0 counts in
  Printf.sprintf
    "{ \"buckets\": [%s], \"count\": %d, \"rejected\": %d }"
    (Buffer.contents buckets) total rejected

let to_json () =
  let b = Buffer.create 4096 in
  let det_c, nondet_c = partition_det (registered_counters ()) (fun c -> c.c_det) in
  let det_h, nondet_h =
    partition_det (registered_histograms ()) (fun h -> h.h_det)
  in
  let obj b entries =
    Buffer.add_string b "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b (Printf.sprintf "\n    %s: %s" (Json.quote k) v))
      entries;
    Buffer.add_string b (if entries = [] then "}" else "\n  }")
  in
  Buffer.add_string b "{\n  \"counters\": ";
  obj b (List.map (fun c -> (c.c_name, string_of_int (counter_value c))) det_c);
  Buffer.add_string b ",\n  \"histograms\": ";
  obj b (List.map (fun h -> (h.h_name, json_histogram h)) det_h);
  Buffer.add_string b ",\n  \"nondeterministic\": ";
  obj b
    (List.map (fun c -> (c.c_name, string_of_int (counter_value c))) nondet_c
    @ List.map (fun h -> (h.h_name, json_histogram h)) nondet_h
    @ List.map (fun (n, v) -> (n, fmt_float v)) (gc_gauges ()));
  Buffer.add_string b ",\n  \"spans\": ";
  let spans =
    locked (fun () -> Hashtbl.fold (fun k tm acc -> (k, tm) :: acc) timers [])
  in
  obj b
    (List.map
       (fun (path, tm) ->
         ( path,
           Printf.sprintf "{ \"calls\": %d, \"seconds\": %s }" tm.tm_calls
             (fmt_float tm.tm_seconds) ))
       (List.sort compare spans));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* The section a determinism diff compares: deterministic counters and
   histograms only, rendered in registration order. *)
let deterministic_snapshot () =
  let stop = ref false in
  let acc = ref [] in
  List.iter
    (fun line ->
      if line = nondet_marker then stop := true
      else if not !stop then acc := line :: !acc)
    (String.split_on_char '\n' (to_prometheus ()));
  String.concat "\n" (List.rev !acc)
