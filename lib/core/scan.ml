module Pool = Dtr_util.Pool
module Vmemo = Dtr_util.Vmemo
module Lexico = Dtr_cost.Lexico
module Metrics = Dtr_util.Metrics

let m_dispatches =
  Metrics.counter ~help:"Neighborhood scans served by the scan engine."
    "dtr_scan_dispatches_total"

let m_candidates =
  Metrics.counter ~help:"Candidates submitted to the scan engine."
    "dtr_scan_candidates_total"

let m_memo_served =
  Metrics.counter ~help:"Scan candidates short-circuited by the memo."
    "dtr_scan_memo_served_total"

let m_batch =
  Metrics.histogram
    ~help:"Candidates actually evaluated (memo misses) per scan dispatch."
    "dtr_scan_batch"

type summary = { objective : Lexico.t; phi_h : float; phi_l : float }

type t = {
  problem : Problem.t;
  pool : Pool.t option;
  mutable clones : Problem.ctx array;
      (* one per worker, allocated on the first parallel scan and
         resynchronized (blits, no re-evaluation) before every later
         one — clones are reused across iterations, not reallocated *)
  mutable scans : int;
      (* scans served so far; the [iteration] stamp of probe events *)
  mutable evaluations : int;
      (* candidates evaluated (memo misses) over all scans, counted on
         the calling domain *)
}

let create ~jobs problem =
  if jobs < 1 then invalid_arg "Scan.create: jobs must be positive";
  {
    problem;
    pool = (if jobs = 1 then None else Some (Pool.create ~jobs));
    clones = [||];
    scans = 0;
    evaluations = 0;
  }

let jobs t = match t.pool with None -> 1 | Some p -> Pool.jobs p

let evaluations t = t.evaluations

let shutdown t =
  (match t.pool with None -> () | Some p -> Pool.shutdown p);
  t.clones <- [||]

let with_engine ~jobs problem f =
  let t = create ~jobs problem in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Memo keys: one Zobrist hash covering BOTH weight vectors — the
   objective is a pure function of the (W_H, W_L) pair (probes are
   bitwise-identical to full evaluations), so a FindH candidate
   and a FindL candidate reaching the same pair may share an entry.
   For an STR context one change moves both aliased vectors, hence
   both cell sets shift.  Each key is the context's kept base key
   shifted by the candidate's changes (Problem.ctx_key_after): O(changes),
   never a rehash of the vectors. *)
let candidate_keys ctx ~cls ~changes_of n =
  Array.init n (fun i -> Problem.ctx_key_after ctx ~cls (changes_of i))

let evaluate t ctx ?memo ?(trace = Trace.disabled) ~cls ~changes_of n =
  if n < 0 then invalid_arg "Scan.evaluate: negative candidate count";
  t.scans <- t.scans + 1;
  let results = Array.make n None in
  (* Memo screening happens on the calling domain, in candidate order,
     before any dispatch — hit patterns (and the hit/miss counters) are
     a pure function of the trajectory, never of worker scheduling. *)
  let keys =
    match memo with
    | None -> [||]
    | Some m ->
        let keys = candidate_keys ctx ~cls ~changes_of n in
        for i = 0 to n - 1 do
          match Vmemo.find m keys.(i) with
          | Some s -> results.(i) <- Some s
          | None -> ()
        done;
        keys
  in
  let miss = ref [] in
  for i = n - 1 downto 0 do
    match results.(i) with None -> miss := i :: !miss | Some _ -> ()
  done;
  let miss = Array.of_list !miss in
  (* Which candidates the memo served — recorded before dispatch so
     probe events can tag them; allocated only when tracing. *)
  let from_memo =
    if Trace.enabled trace then Array.map Option.is_some results else [||]
  in
  let eval_one ctx' i =
    let d = Problem.eval_delta t.problem ctx' ~cls ~changes:(changes_of i) in
    let s =
      {
        objective = Problem.delta_objective d;
        phi_h = Problem.delta_phi_h d;
        phi_l = Problem.delta_phi_l d;
      }
    in
    results.(i) <- Some s
  in
  let k = Array.length miss in
  t.evaluations <- t.evaluations + k;
  if Metrics.enabled () then begin
    Metrics.incr_counter m_dispatches;
    Metrics.add m_candidates n;
    Metrics.add m_memo_served (n - k);
    Metrics.observe m_batch (float_of_int k)
  end;
  Metrics.span "scan" @@ fun () ->
  (match t.pool with
  | Some pool when k > 1 ->
      let jobs = Pool.jobs pool in
      if Array.length t.clones = 0 then
        t.clones <- Array.init jobs (fun _ -> Problem.clone_ctx t.problem ctx)
      else Array.iter (fun c -> Problem.sync_ctx ~src:ctx ~dst:c) t.clones;
      (* Contiguous balanced chunks, one per worker clone. *)
      ignore
        (Pool.map pool jobs ~f:(fun j ->
             for idx = j * k / jobs to ((j + 1) * k / jobs) - 1 do
               eval_one t.clones.(j) miss.(idx)
             done))
  | _ -> Array.iter (eval_one ctx) miss);
  (match memo with
  | None -> ()
  | Some m ->
      Array.iter
        (fun i ->
          match results.(i) with
          | Some s -> Vmemo.add m keys.(i) s
          | None -> assert false)
        miss);
  let summaries = Array.map (function Some s -> s | None -> assert false) results in
  (* Re-emit one probe event per candidate, on the calling domain, in
     candidate order — exactly the order the sequential fold visits
     them — so the trace is identical for every jobs value no matter
     which worker evaluated which chunk. *)
  if Trace.enabled trace then
    Array.iteri
      (fun i (s : summary) ->
        Trace.emit trace ~kind:Trace.Probe ~iteration:t.scans ~detail:i
          ~accepted:(Array.length from_memo > 0 && from_memo.(i))
          ~after:(Trace.pair s.objective) ())
      summaries;
  summaries

let commit t ctx ~cls ~changes =
  (* The winner was evaluated (and counted) as a summary — possibly on
     a worker's clone or out of the memo; re-derive its delta against
     the main context without recounting.  Probes are deterministic
     functions of the context's value state, so this reproduces the
     winning candidate bitwise. *)
  let d = Problem.eval_delta ~count:false t.problem ctx ~cls ~changes in
  Problem.commit_delta t.problem ctx d
