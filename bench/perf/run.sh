#!/bin/sh
# Builds the benchmark (perf.exe) and the rpb server from source, then runs
# perf.exe with the given arguments.  Run it from the root of a checkout:
#
#   sh bench/perf/run.sh --workload regular --seed 1 --seconds 30 --trace 0
#
# The dune cache is disabled so that nothing is written outside the checkout.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a full checkout of the repository" >&2
  exit 2
fi
# Build output goes to stderr: the result must stay the last line of stdout.
dune build --root . --cache=disabled ./bench/perf/perf.exe ./bin/rpb.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
