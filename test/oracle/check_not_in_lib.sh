#!/bin/sh
# Fails when a from-scratch reference evaluator or oracle, which live
# in the test-only dtr_oracle library (test/oracle), is defined or
# referenced again in the library, the CLI or the examples, or when a
# dune file there names dtr_oracle.  Run from the repository root:
#
#   sh test/oracle/check_not_in_lib.sh

status=0
dirs="lib bin examples"

found () {
  echo "error: $1" >&2
  status=1
}

# Qualified references, anywhere.  [pair_delays] is also a record field
# of Evaluate.sla and Sim, so only Delay's is matched.
refs='\b(Evaluate\.(evaluate|evaluate_sla|assemble)|Objective\.(evaluate|link_costs_[hl])|Loads\.(of_matrix|node_throughflow|destination_loads_into|destination_loads|destination_demand)|Neighborhood\.apply|Failure_sweep\.(oracle|oracle_sweep|fail_link|remap_weights|severed_pairs)|Failure\.fail_link|Dijkstra\.(distances_to_heap|run_heap|bellman_ford_to)|Delay\.(pair_delays?|Reachable|Unreachable|arc_delays|expected_to_destination)|ctx_base_key_fresh)\b'
grep -rnE --include='*.ml' --include='*.mli' "$refs" $dirs &&
  found "a moved reference or oracle is referenced"

# Definitions, in the modules they moved out of.
for entry in \
  'lib/routing/evaluate:evaluate|evaluate_sla|assemble' \
  'lib/routing/objective:evaluate|link_costs_h|link_costs_l' \
  'lib/routing/loads:of_matrix|node_throughflow|destination_loads_into|destination_loads|destination_demand' \
  'lib/routing/failure_sweep:oracle|oracle_sweep|fail_link|remap_weights|severed_pairs' \
  'lib/experiments/failure:fail_link' \
  'lib/graph/dijkstra:distances_to_heap|run_heap|bellman_ford_to' \
  'lib/routing/delay:pair_delays|pair_delay|arc_delays|expected_to_destination' \
  'lib/core/problem:ctx_base_key_fresh' \
  'lib/core/neighborhood:apply'
do
  base=${entry%%:*}
  names=${entry#*:}
  for f in "$base.ml" "$base.mli"; do
    [ -f "$f" ] || continue
    grep -nE "^[[:space:]]*(let|and|val|type)[[:space:]]+(rec[[:space:]]+)?($names)\b" "$f" &&
      found "$f defines a moved reference or oracle"
  done
done

# The T-class view is deleted: Multi.t, its module and
# Eval_ctx.to_multi.  The multi-topology search keeps its state in
# evaluation contexts and orders vectors with Lexico.compare_vectors;
# only the test oracle Ref_multi evaluates T classes from scratch.
# Word-bounded, so Multistart and Multi_class pass.
grep -rnE --include='*.ml' --include='*.mli' \
  '\bMulti\.|\bDtr_routing\.Multi\b|\bto_multi\b' $dirs &&
  found "the deleted Multi view is referenced"
for f in lib/routing/multi.ml*; do
  [ -e "$f" ] && found "$f brings the deleted Multi view back"
done

grep -rn --include=dune 'dtr_oracle' $dirs &&
  found "a dune file outside test/ names dtr_oracle"

exit $status
