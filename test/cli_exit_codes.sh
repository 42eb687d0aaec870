#!/bin/sh
# The rpb exit-code contract: 0 = success, 2 = usage error, 4 =
# correctness / fault / robustness violation (3 is the perf gate's,
# scripts/perf_gate.sh, and no subcommand returns it).  Run by the dune
# rule in test/dune with the binary path as $1.
set -u
rpb=$1
fail() { echo "cli_exit_codes: $*" >&2; exit 1; }

expect_code() {
  want=$1
  shift
  "$rpb" "$@" >/dev/null 2>&1
  got=$?
  [ "$got" -eq "$want" ] || fail "rpb $*: exit $got, want $want"
}

expect_code 0 list
expect_code 0 run hist -s 1
expect_code 2 nosuchcmd
expect_code 2 run nosuchbench
expect_code 2 report /nonexistent-artifact.json
expect_code 2 serve --preload 'hist:x:notanint'
expect_code 2 serve --metrics-interval 0
expect_code 2 serve --metrics-interval -1
expect_code 2 serve --slow-pctl 0
expect_code 2 serve --slow-pctl 101
kind_tmp=${TMPDIR:-/tmp}/rpb-cli-kind-$$.json
trace_tmp=${TMPDIR:-/tmp}/rpb-cli-trace-$$.json
html_tmp=${TMPDIR:-/tmp}/rpb-cli-report-$$.html
md_tmp=${TMPDIR:-/tmp}/rpb-cli-report-$$.md
trap 'rm -f "$kind_tmp" "$trace_tmp" "$html_tmp" "$md_tmp"' 0

# A report run that parses nothing writes no output, so it cannot
# overwrite an earlier dashboard.
rm -f "$html_tmp" "$md_tmp"
expect_code 2 report /nonexistent-artifact.json -o "$html_tmp" --md "$md_tmp"
[ ! -e "$html_tmp" ] || fail "rpb report wrote $html_tmp with nothing parsed"
[ ! -e "$md_tmp" ] || fail "rpb report wrote $md_tmp with nothing parsed"

# rpb report skips a document of a kind it cannot read instead of
# crashing; with nothing else parsed that is exit 2.  A bench/perf document
# is a kind it reads.
printf '{"kind":"weird"}\n' > "$kind_tmp"
expect_code 2 report "$kind_tmp" -o /dev/null
printf '{"kind":"perf","workload":"regular","meta":{"p":2,"ocaml":"5.1.1","git_sha":"x","host_ok":false,"seed":1},"correct":true,"benchmarks":[{"name":"hist","scale":0,"t1_over_seq":1.0,"tp_over_seq":0.5,"checked_over_unsafe":1.0,"sync_over_unsafe":2.0}]}\n' > "$kind_tmp"
expect_code 0 report "$kind_tmp" -o /dev/null

# The scheduler has no knobs: the retired scheduling flags are unknown
# options, i.e. usage errors.
expect_code 2 check --policy default
expect_code 2 faults --policy default
expect_code 2 profile --policy default
expect_code 2 serve --policy default
expect_code 2 loadgen --policy default
expect_code 2 serve --minor-heap-kb 1

# The retired SLO surface: the slo subcommand, the serve flags that fed
# it and the loadgen in-process server are gone, so each is a usage error.
expect_code 2 slo
expect_code 2 serve --slo x
expect_code 2 serve --slo-fast-s 1
expect_code 2 loadgen --boot

# A worker count below 1 and an output path that cannot be written are
# usage errors, not uncaught exceptions.
unwritable=/nonexistent-dir/out.json
expect_code 2 stats --threads 0
expect_code 2 run hist -s 1 -t 0
expect_code 2 stats --threads 2 --tasks 64 --json "$unwritable"
expect_code 2 stats --threads 2 --tasks 64 --trace "$unwritable"
expect_code 2 profile --bench hist --threads 2 --json "$unwritable"

# rpb stats --trace writes the flight recorder's Chrome trace.
expect_code 0 stats --threads 2 --tasks 64 --trace "$trace_tmp"
[ -s "$trace_tmp" ] || fail "rpb stats --trace left no trace in $trace_tmp"

echo "cli_exit_codes: ok"
