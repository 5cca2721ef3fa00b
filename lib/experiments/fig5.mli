(** Fig. 5: impact of the high-priority SD-pair density [k] on the
    L-cost ratio (random topology, [f = 30%]).  Expected: larger [k]
    lowers [R_L] under the load-based cost (a) but raises it under the
    SLA-based cost (b). *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?targets:float list ->
  ?densities:float list ->
  model:Dtr_routing.Objective.model ->
  unit ->
  Dtr_util.Table.t
(** Columns: target utilization, one [R_L] column per density
    (defaults 10% and 30%); built by {!Compare.rl_table}. *)
