(* Host-speed probe: a fixed, self-contained shortest-path kernel
   (Dial's algorithm over a synthetic graph built here, sharing no
   code with the library), timed between episodes.  On a container
   shared with other jobs the host's speed drifts by tens of percent
   from one minute to the next; set-up, which is identical work in
   every run, moved by as much as the searches did.  The probe measures
   that drift, so times can also be given at a reference speed
   ([at_reference]). *)

let n = 2000

let degree = 4

let max_w = 30

(* Probe time on the reference container (2-core x86 VM), seconds. *)
let reference_s = 0.015

(* CSR adjacency from a fixed LCG, identical on every run and machine;
   the first out-arc of every node closes a ring, so all nodes are
   reachable. *)
let graph =
  lazy
    (let state = ref 12345 in
     let next bound =
       state := ((!state * 1103515245) + 12345) land 0x3fffffff;
       !state mod bound
     in
     let m = n * degree in
     let first = Array.init (n + 1) (fun v -> v * degree) in
     let dst =
       Array.init m (fun i ->
           if i mod degree = 0 then ((i / degree) + 1) mod n else next n)
     in
     let w = Array.init m (fun _ -> 1 + next max_w) in
     (first, dst, w))

let sssp (first, dst, w) src dist buckets =
  Array.fill dist 0 n max_int;
  let nb = Array.length buckets in
  Array.fill buckets 0 nb [];
  dist.(src) <- 0;
  buckets.(0) <- [ src ];
  let settled = ref 0 and d = ref 0 in
  while !settled < n && !d <= n * max_w do
    match buckets.(!d mod nb) with
    | [] -> incr d
    | v :: rest ->
        buckets.(!d mod nb) <- rest;
        if dist.(v) = !d then begin
          incr settled;
          for i = first.(v) to first.(v + 1) - 1 do
            let u = dst.(i) and nd = !d + w.(i) in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              buckets.(nd mod nb) <- u :: buckets.(nd mod nb)
            end
          done
        end
  done;
  !settled

(* One probe: shortest paths from 64 fixed sources; seconds. *)
let probe () =
  let g = Lazy.force graph in
  let dist = Array.make n 0 and buckets = Array.make (max_w + 1) [] in
  let t0 = Unix.gettimeofday () in
  let settled = ref 0 in
  for s = 0 to 63 do
    settled := !settled + sssp g (s * 97 mod n) dist buckets
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if !settled <> 64 * n then failwith "Calib.probe: graph not connected";
  dt

(* A time measured while the probe took [probe_s], at the reference
   speed. *)
let at_reference ~probe_s t = t *. reference_s /. probe_s
