(* Robust (failure-aware) search mode: optimize
   normal_cost + alpha * penalty, where the penalty is the mean of the
   top_k worst finite single-link post-failure costs
   (Failure_sweep.penalty).  top_k = 1 is the pure worst case. *)
type robust = { alpha : float; top_k : int }

(* The paper's neighborhood size and perturbation fractions (§5.1.3),
   shared by every preset. *)
let m = 5

let g1 = 0.05

let g2 = 0.05

let g3 = 0.03

type t = {
  n_iters : int;
  k_iters : int;
  diversify_after : int;
  tau : float;
  max_step : int;
  scan_probability : float;
  scan_jobs : int;
  trace_probes : bool;
  trace_sample : int;
  robust : robust option;
}

let paper =
  {
    n_iters = 300_000;
    k_iters = 800_000;
    diversify_after = 300;
    tau = 1.5;
    max_step = 5;
    scan_probability = 0.;
    scan_jobs = 1;
    trace_probes = true;
    trace_sample = 1;
    robust = None;
  }

let default =
  {
    paper with
    n_iters = 1_500;
    k_iters = 3_000;
    diversify_after = 60;
    scan_probability = 0.15;
  }

let quick =
  {
    paper with
    n_iters = 250;
    k_iters = 500;
    diversify_after = 30;
    scan_probability = 0.15;
  }

let scale t factor =
  if factor <= 0. then invalid_arg "Search_config.scale: non-positive factor";
  let mul x = max 1 (int_of_float (Float.round (float_of_int x *. factor))) in
  {
    t with
    n_iters = mul t.n_iters;
    k_iters = mul t.k_iters;
    diversify_after = mul t.diversify_after;
  }

let validate t =
  if t.n_iters < 1 then invalid_arg "Search_config: n_iters must be positive";
  if t.k_iters < 0 then invalid_arg "Search_config: k_iters must be non-negative";
  if t.diversify_after < 1 then
    invalid_arg "Search_config: diversify_after must be positive";
  if t.tau < 0. then invalid_arg "Search_config: tau must be non-negative";
  if t.max_step < 1 then invalid_arg "Search_config: max_step must be positive";
  if t.scan_probability < 0. || t.scan_probability > 1. then
    invalid_arg "Search_config: scan_probability out of [0,1]";
  if t.scan_jobs < 1 then invalid_arg "Search_config: scan_jobs must be positive";
  if t.trace_sample < 1 then
    invalid_arg "Search_config: trace_sample must be positive";
  match t.robust with
  | None -> ()
  | Some r ->
      if not (r.alpha >= 0.) then
        invalid_arg "Search_config: robust alpha must be non-negative";
      (* inf * a zero penalty (every failure cut) is NaN. *)
      if not (Float.is_finite r.alpha) then
        invalid_arg "Search_config: robust alpha must be finite";
      if r.top_k < 1 then
        invalid_arg "Search_config: robust top_k must be positive"
