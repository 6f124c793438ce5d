#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache is off, so the build writes only under _build/.
dune build --root . --display quiet --cache=disabled ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
