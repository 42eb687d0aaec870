#!/bin/sh
# The perf gate: a same-machine A/B of the repo benchmark (bench/perf)
# between a base revision and the working tree.
#
#   sh scripts/perf_gate.sh BASE_REV              (from a checkout root)
#
# BASE_REV is checked out into a temporary git worktree.  For seeds 1-3 and
# each of the workloads regular, irregular and fear, bench/perf/run.sh runs
# once in the base checkout and once here; the side that runs first
# alternates with the seed, so drift on the machine falls on both sides.
# The documents go to PERF_gate/base and PERF_gate/head (each run's output
# next to it as a .log), and scripts/perf_verdict.sh decides, with its
# report also in PERF_gate/verdict.txt.
#
# Exit: 0 pass; 3 an end-to-end metric regressed; 4 a run produced a wrong
# output; 1 a run or the checkout failed; 2 usage.
set -u
if [ $# -ne 1 ]; then
  echo "usage: sh scripts/perf_gate.sh BASE_REV" >&2
  exit 2
fi
out=PERF_gate
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
out=$(cd "$out" && pwd)
base=$(mktemp -d) || exit 1
cleanup() {
  git worktree remove --force "$base" >/dev/null 2>&1
  rm -rf "$base"
  git worktree prune
}
trap cleanup 0
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$base" "$1" || exit 1
echo "perf gate: base $(git -C "$base" rev-parse HEAD), head $(git rev-parse HEAD) + working tree" >&2

# run SIDE DIR WORKLOAD SEED
run() {
  echo "perf gate: $1 $3 seed $4" >&2
  (cd "$2" && sh bench/perf/run.sh --workload "$3" --seed "$4" \
    --json "$out/$1/$3-$4.json") >"$out/$1/$3-$4.log" 2>&1
  status=$?
  [ $status -eq 0 ] && return
  tail -n 20 "$out/$1/$3-$4.log" >&2
  if [ $status -eq 4 ]; then
    echo "perf gate: $1 $3 seed $4 produced a wrong output" >&2
    exit 4
  fi
  echo "perf gate: $1 $3 seed $4 failed with exit $status" >&2
  exit 1
}

for seed in 1 2 3; do
  for w in regular irregular fear; do
    if [ $((seed % 2)) -eq 1 ]; then
      run base "$base" "$w" "$seed"
      run head . "$w" "$seed"
    else
      run head . "$w" "$seed"
      run base "$base" "$w" "$seed"
    fi
  done
done

sh scripts/perf_verdict.sh "$out/base" "$out/head" >"$out/verdict.txt"
status=$?
cat "$out/verdict.txt"
exit $status
