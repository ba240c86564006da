#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one benchmark
# invocation. Run from the root of a checkout:
#   bash perfbench/run.sh --workload serve_hit --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/, bin/ missing)" >&2
  exit 2
fi
dune build --root . ./bin/hyperbench.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
