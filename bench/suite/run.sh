#!/usr/bin/env bash
# Build the benchmark harness from source, then measure one workload:
#
#   bash bench/suite/run.sh --workload warm_zipf --seed 2010 --seconds 10 --trace 0
#
# Run it from the root of a checkout.  Build output goes to standard
# error, so the last line of standard output is the harness's JSON
# result.  The exit status is the build's when the build fails.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/suite/xkbench.exe 1>&2
exec ./_build/default/bench/suite/xkbench.exe run "$@"
