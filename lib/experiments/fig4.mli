(** Fig. 4: impact of the high-priority traffic share [f] on the
    L-cost ratio (random topology, load-based cost, [k = 10%]).
    Expected: [R_L] grows with [f]. *)

val run :
  ?cfg:Dtr_core.Search_config.t ->
  ?seed:int ->
  ?targets:float list ->
  ?fractions:float list ->
  unit ->
  Dtr_util.Table.t
(** Columns: target utilization, then one [R_L] column per
    fraction (defaults 20% and 40%); built by
    {!Compare.rl_table}. *)
