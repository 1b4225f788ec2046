#!/usr/bin/env bash
# Build the benchmark and the `ormp` daemon from source, then run one
# benchmark run. Run from the repository root:
#   bash perfbench/run.sh --workload spec --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/ormpbench.exe ./bin/ormp.exe 1>&2
exec ./_build/default/perfbench/ormpbench.exe --ormp ./_build/default/bin/ormp.exe "$@"
