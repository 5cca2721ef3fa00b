module Table = Dtr_util.Table
module Matrix = Dtr_traffic.Matrix
module Evaluate = Dtr_routing.Evaluate
module Eval_ctx = Dtr_routing.Eval_ctx
module Lexico = Dtr_cost.Lexico

(* The Fig. 1 instance: unit capacities, 1/3 high- and 2/3 low-priority
   units from A (node 0) to C (node 2). *)
let instance () =
  let g = Dtr_topology.Classic.triangle ~capacity:1.0 ~delay:1.0 () in
  let th = Matrix.create 3 and tl = Matrix.create 3 in
  Matrix.set th 0 2 (1. /. 3.);
  Matrix.set tl 0 2 (2. /. 3.);
  (g, th, tl)

(* Enumerate all weight settings in {1, 2, 3}^6; for single-source
   traffic this covers every realizable STR routing of the triangle.
   [f] sees each setting's cost ⟨Φ_H, Φ_L⟩. *)
let enumerate f =
  let g, th, tl = instance () in
  let m = Dtr_graph.Graph.arc_count g in
  let w = Array.make m 1 in
  let rec go i =
    if i = m then begin
      let ctx = Eval_ctx.create g ~weights:[| w; w |] ~matrices:[| th; tl |] in
      let eval = Eval_ctx.to_evaluate ctx in
      f (Lexico.make ~primary:eval.Evaluate.phi_h ~secondary:eval.Evaluate.phi_l)
    end
    else
      for v = 1 to 3 do
        w.(i) <- v;
        go (i + 1)
      done
  in
  go 0

let point (c : Lexico.t) = (c.Lexico.primary, c.Lexico.secondary)

let optimum_for_alpha ~alpha =
  let best = ref Float.infinity and best_point = ref (0., 0.) in
  enumerate (fun c ->
      let j = Lexico.to_joint ~alpha c in
      if j < !best then begin
        best := j;
        best_point := point c
      end);
  !best_point

let lexicographic_optimum () =
  let best = ref Lexico.infinity in
  enumerate (fun c -> if Lexico.lt c !best then best := c);
  point !best

let run ~alphas =
  let table =
    Table.create
      ~title:
        "Fig 1 (S3.3.1): joint cost J = a*PhiH + PhiL on the 3-node triangle"
      ~columns:[ "setting"; "PhiH"; "PhiL" ]
  in
  let lh, ll = lexicographic_optimum () in
  Table.add_row table
    [ "lexicographic"; Printf.sprintf "%.4f" lh; Printf.sprintf "%.4f" ll ];
  List.iter
    (fun alpha ->
      let h, l = optimum_for_alpha ~alpha in
      Table.add_row table
        [
          Printf.sprintf "alpha=%g" alpha;
          Printf.sprintf "%.4f" h;
          Printf.sprintf "%.4f" l;
        ])
    alphas;
  table
