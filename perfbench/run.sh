#!/usr/bin/env bash
# Builds the benchmark and the qpricing CLI from this checkout's sources,
# then runs one workload of the end-to-end benchmark (see README.md):
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of a full checkout. Build output goes to
# .bench_build/, run files to .perfbench-run/ (both removed or ignored).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (lib/ and bin/ are missing)" >&2
  exit 2
fi

# Pin the environment: no fault injection, default engines, default GC
# parameters; the benchmark sets the pool size itself.
unset QP_FAULTS QP_REL_ENGINE QP_LP_ENGINE QP_LP_WARMSTART QP_JOBS \
  QP_BENCH_PROFILE OCAMLRUNPARAM
export DUNE_CACHE=disabled

dune build --root . --build-dir .bench_build --profile release --display quiet \
  ./perfbench/main.exe ./bin/qpricing.exe 1>&2

exec .bench_build/default/perfbench/main.exe "$@"
