module Problem = Dtr_core.Problem
module Vhash = Dtr_util.Vhash

(** The memo base key of {!Dtr_core.Problem.ctx_base_key} recomputed
    from scratch: both current weight vectors hashed under their own
    class tag (for STR both classes view one vector, hashed twice). *)
let ctx_base_key ctx =
  Vhash.vector ~cls:0 (Problem.ctx_weights_view ctx `H)
  lxor Vhash.vector ~cls:1 (Problem.ctx_weights_view ctx `L)
