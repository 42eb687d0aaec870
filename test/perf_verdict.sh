#!/bin/sh
# The perf gate's decision rule (scripts/perf_verdict.sh) on synthetic
# bench/perf result sets of three documents a side, without running the
# benchmark.  Run by the dune rule in test/dune from the build root, with
# the verdict script's path as $1.
set -u
verdict=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' 0
fail() { echo "perf_verdict: $*" >&2; exit 1; }

# results DIR V1 V2 V3: untraced regular-workload documents whose
# t1_over_seq (lower is better, bound 0.1) is V1, V2, V3.
results() {
  dir=$tmp/$1
  shift
  mkdir -p "$dir"
  i=0
  for v in "$@"; do
    i=$((i + 1))
    printf '{"kind":"perf","traced":false,"workload":"regular","end_to_end":{"t1_over_seq":{"value":%s,"unit":"ratio"}}}\n' \
      "$v" >"$dir/regular-$i.json"
  done
}

# expect CODE BASE HEAD TEXT: the verdict exits CODE and prints TEXT.
expect() {
  out=$(sh "$verdict" "$tmp/$2" "$tmp/$3" 2>&1)
  got=$?
  [ "$got" -eq "$1" ] || fail "$2 -> $3: exit $got, want $1:
$out"
  case $out in
  *"$4"*) ;;
  *) fail "$2 -> $3: output lacks \"$4\":
$out" ;;
  esac
}

results base 1.00 1.01 0.99
results worse 2.00 2.02 1.98
results better 0.50 0.505 0.495
results noisy 1.0 1.5 2.0

expect 3 base worse "REGRESSED regular t1_over_seq"
expect 0 base better "1 improved"
expect 0 base noisy "unresolved"
echo "perf_verdict: ok"
