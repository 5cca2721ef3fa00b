(** Fig. 8: the sink (popular-server) traffic model on the power-law
    topology ([f = 20%], [k = 10%], 3 top-degree sinks), comparing
    Uniform vs Local client placement.  Expected: [R_L ≈ 1] in the
    Local scenario, [R_L] large in the Uniform scenario. *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?targets:float list ->
  model:Dtr_routing.Objective.model ->
  unit ->
  Dtr_util.Table.t
(** Columns: target utilization, RL(Uniform), RL(Local); built by
    {!Compare.rl_table}. *)
