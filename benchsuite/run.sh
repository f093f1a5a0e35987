#!/usr/bin/env bash
# Build the mwct binary and the benchmark from this checkout, then run
# the benchmark from the checkout root with the given arguments, e.g.
#
#   bash benchsuite/run.sh --workload churn-flat --seed 1 --seconds 12 --trace 0
#   bash benchsuite/run.sh --quick
#
# The dune cache is off so that nothing is read or written outside the
# checkout; build output goes to stderr, leaving stdout to the
# benchmark, whose last line is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./bin/main.exe ./benchsuite/run.exe 1>&2
exec ./_build/default/benchsuite/run.exe "$@"
