#!/usr/bin/env bash
# Build the benchmark and the fleet node from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ff-scale --seed 1 --seconds 15 --trace 0
#
# The build writes only under _build/ (the shared dune cache is disabled);
# its output goes to stderr, so the last stdout line is the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/perf.exe ./bin/dhw_node.exe >&2
exec ./_build/default/perfbench/perf.exe run "$@"
