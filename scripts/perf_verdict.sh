#!/bin/sh
# The perf gate's decision on two existing sets of bench/perf results
# (directories of `--json` documents, as scripts/perf_gate.sh writes them):
#
#   sh scripts/perf_verdict.sh BASE_DIR HEAD_DIR     (from a checkout root)
#
# `perf.exe agree` gives each workload and end-to-end metric a verdict:
# agrees, differs (the medians are further apart than the metric's bound in
# BENCHMARK.json) or unresolved (a quartile spread is wider than the
# bound).  The gate fails with exit 3 only on a pair that differs with the
# head's median on the worse side, in the direction of the metric's
# "better" field in BENCHMARK.json; improvements and unresolved pairs pass.
# Exit 2 when nothing could be compared.
set -u
if [ $# -ne 2 ]; then
  echo "usage: sh scripts/perf_verdict.sh BASE_DIR HEAD_DIR" >&2
  exit 2
fi
# perf.exe where bench/perf/run.sh builds it; inside dune's build tree,
# where this script's own test runs, it sits at bench/perf/perf.exe.
perf=_build/default/bench/perf/perf.exe
[ -x "$perf" ] || perf=bench/perf/perf.exe
table=$("$perf" agree "$1" "$2")
status=$?
printf '%s\n' "$table"
case $status in
0 | 3) ;;
*)
  echo "perf gate: perf.exe agree failed with exit $status" >&2
  exit 2
  ;;
esac
printf '%s\n' "$table" | awk '
  # Read each metric direction from BENCHMARK.json, one flat object per
  # "}"-terminated record.
  BEGIN {
    RS = "}"
    while ((getline obj < "BENCHMARK.json") > 0)
      if (match(obj, /"name": *"[^"]*"/)) {
        name = substr(obj, RSTART, RLENGTH)
        sub(/^"name": *"/, "", name); sub(/"$/, "", name)
        if (match(obj, /"better": *"[^"]*"/)) {
          b = substr(obj, RSTART, RLENGTH)
          sub(/^"better": *"/, "", b); sub(/"$/, "", b)
          better[name] = b
        }
      }
    RS = "\n"
  }
  # agree rows: workload metric n_a median_a [q1,q3] n_b median_b [q1,q3]
  # verdict; drop the quartile brackets, whose padding varies.
  NR == 1 { next }
  {
    gsub(/\[[^]]*\]/, "")
    rows++
  }
  $7 == "unresolved" { unresolved++ }
  $7 == "differs" {
    dir = better[$2] == "higher" ? "higher" : "lower"
    if (dir == "higher" ? ($6 < $4) : ($6 > $4)) {
      printf "perf gate: REGRESSED %s %s: base median %s, head median %s (%s is better)\n",
        $1, $2, $4, $6, dir
      regressed++
    } else improved++
  }
  END {
    if (rows == 0) { print "perf gate: no result pairs to compare"; exit 2 }
    printf "perf gate: %d pairs, %d regressed, %d improved, %d unresolved\n",
      rows, regressed, improved, unresolved
    exit (regressed > 0 ? 3 : 0)
  }'
