.PHONY: all build typecheck test examples doc clean check-race check-fault \
	profile-smoke report-smoke perf-gate flake-check serve-smoke

all: build

build:
	dune build @all

# Warning gate: compiles every module (including tests and executables that
# the default alias may skip) without linking, so an interface drift — e.g.
# a Pool signature change missing a consumer — fails fast, before any
# test matrix spins up.
typecheck:
	dune build @check

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

# Repeats the two once-flaky tests and six schedule-dependent tests 20
# times each through the Alcotest `test NAME N` filter: test_pool "chunks
# partition", the test_check fault-sweep case whose "injections fired"
# check used to fail by chance, test_prim's "lock exclusion", whose
# domains interleave differently on every run, test_geom's two-worker
# Reserving refinement of 1600 points, whose step sequence depends on the
# schedule because new triangle slots come from a fetch-and-add, and
# test_mq's two-worker exactly-once MultiQueue run, whose worker loops are
# pool tasks that stealing hands to a different worker on every run, and
# test_mq's two-worker sssp cancelled from another domain, whose cancel
# lands wherever the running workers happen to be, and test_graph's
# two-worker spanning forest, whose links race for the same roots and so
# pick different forest edges on every run, and test_parseq's two-worker
# rank_by_key sweep across the block edges, whose blocks stealing hands to
# either worker on every run.  The
# case index is looked up by name, so reordering the suites does not break
# the target; suite names must be one word.
flake-check:
	dune build test/test_pool.exe test/test_check.exe test/test_prim.exe \
	  test/test_geom.exe test/test_mq.exe test/test_graph.exe \
	  test/test_parseq.exe
	set -e; \
	for t in 'test_pool:chunks partition' 'test_check:single bench contract' \
	    'test_prim:lock exclusion' 'test_geom:before cap n=1600 reserving P=2' \
	    'test_mq:exactly once P=2' 'test_mq:cancel sssp P=2' \
	    'test_graph:spanning forest P=2' 'test_parseq:rank_by_key P=2'; do \
	  exe=_build/default/test/$${t%%:*}.exe; name=$${t#*:}; \
	  set -- $$($$exe list | grep -F "$$name." | head -n 1); \
	  test -n "$$2" || { echo "flake-check: no test named $$name" >&2; exit 1; }; \
	  i=0; while [ $$i -lt 20 ]; do \
	    $$exe test "$$1" "$$2" >/dev/null 2>&1 || \
	      { echo "flake-check: $$name failed on run $$((i + 1))" >&2; exit 1; }; \
	    i=$$((i + 1)); \
	  done; \
	  echo "flake-check: $$name passed 20/20"; \
	done

# The work/span profiler on one benchmark per fear tier — sort (F,
# divide-and-conquer), sa (C, checked scatter), hist (S, arbitrary writes) —
# each written as a machine-readable PROFILE_*.json (Bench_json schema v2)
# artifact.  The first step of CI's report-smoke job.
profile-smoke:
	dune exec bin/rpb.exe -- profile --bench sort --threads 4 --scale 0 --json PROFILE_sort.json
	dune exec bin/rpb.exe -- profile --bench sa   --threads 4 --scale 0 --json PROFILE_sa.json
	dune exec bin/rpb.exe -- profile --bench hist --threads 4 --scale 0 --json PROFILE_hist.json

# CI check-race job: the differential oracle (every benchmark under the
# deterministic sequential executor, its shuffled variant, and the
# work-stealing pool, with element-wise output diffs) plus the shadow-array
# race-detector self-check, written as a machine-readable CHECK_*.json
# artifact.
check-race:
	dune exec bin/rpb.exe -- check --seed 42 --json CHECK_report.json

# CI check-fault job: the scheduler fault-injection sweep (every benchmark
# under seeded task-exception / slow-scheduler / degraded-pool schedules;
# each run must either complete with the correct digest or raise cleanly
# before its deadline), written as a machine-readable FAULT_*.json artifact.
# The outer timeout is the hang detector of last resort.
check-fault:
	timeout 900 dune exec bin/rpb.exe -- faults --seed 42 --deadline 30 --json FAULT_report.json

# CI perf-gate job: a same-machine A/B of the repo benchmark (bench/perf,
# declared in BENCHMARK.json) between PERF_BASE and the working tree.
# scripts/perf_gate.sh checks PERF_BASE out into a temporary git worktree,
# runs every workload at seeds 1-3 on both sides (alternating which side
# goes first) into PERF_gate/{base,head}, and lets `perf.exe agree` judge
# each end-to-end metric against its BENCHMARK.json bound.  Exit 3 = a
# metric differs with the head on the worse side; 4 = a wrong output.
# About 11 minutes on a 2-core host.
PERF_BASE ?= HEAD
perf-gate:
	sh scripts/perf_gate.sh $(PERF_BASE)

# CI serve-smoke job: the request server and its live metrics plane end
# to end.  One long-lived server streams a kind=metrics JSONL line every
# 250 ms and keeps the slow-request scheduler-profile log; the chaos load
# generator drives it with a forced-overload burst (32 back-to-back spin
# requests against an admission bound of 16, so load shedding must
# engage) plus mid-request client kills and reconnects.  loadgen exits 4
# unless every request is accounted for (no lost or duplicate replies), no
# reply is malformed, and repeated runs of the same instance agree on the
# digest; mis is in the mix because its digest is of an invariant
# (maximality and independence), not of the raw output.  `rpb top --check`
# then takes consecutive verb=stats snapshots and asserts the snapshot
# invariants: counters monotone, sequence advancing, and every latency
# histogram's totals reconciling with the request status counters (exit 4
# on a violation).  One dashboard from the JSONL and both kind="serve"
# artifacts must carry the latency and live-metrics sections.  The
# boot/drain choreography lives in scripts/with_server.sh: the binary is
# prebuilt and run from _build directly so concurrent processes never
# contend on the dune lock, the server is drained with SIGTERM, and the
# outer timeouts are the hang detectors of last resort.
serve-smoke:
	dune build bin/rpb.exe
	rm -f METRICS_serve.jsonl
	server='--threads 4 --max-queue 16 --preload hist --preload sort --preload mis'; \
	server="$$server --metrics-json METRICS_serve.jsonl --metrics-interval 0.25"; \
	server="$$server --slow-log 4 --slow-pctl 90"; \
	server="$$server --json SERVE_server.json --quiet"; \
	drive='timeout 300 $$RPB loadgen --socket $$SOCK'; \
	drive="$$drive --clients 4 -n 12 --bench hist,sort,mis --bench spin --spin-ms 25"; \
	drive="$$drive --burst 32 --kill-every 9 --seed 42"; \
	drive="$$drive --json SERVE_loadgen.json"; \
	drive="$$drive && timeout 60 \$$RPB top --socket \$$SOCK --check -n 2 --interval 0.3"; \
	scripts/with_server.sh /tmp/rpb-serve-smoke.sock "$$server" "$$drive"
	grep -q '"kind":"metrics"' METRICS_serve.jsonl
	dune exec bin/rpb.exe -- report METRICS_serve.jsonl \
	  SERVE_loadgen.json SERVE_server.json \
	  -o REPORT_serve.html --md REPORT_serve.md
	grep -q 'Serving latency' REPORT_serve.md
	grep -q 'Live metrics' REPORT_serve.md

# CI report-smoke job's second step: the dashboard out of fresh artifacts.
# A quick bench/perf run of the fear workload supplies the paper's tables
# (Table 1 / Fig. 4, Fig. 5), the profile-smoke documents the work/span
# section.
report-smoke:
	sh bench/perf/run.sh fear --quick --json BENCH_smoke_fear.json
	dune exec bin/rpb.exe -- report BENCH_smoke_fear.json PROFILE_*.json \
	  -o REPORT_smoke.html --md REPORT_smoke.md
	test -s REPORT_smoke.html

# CI build-test job, after dune runtest: every example runs to completion.
examples:
	dune exec examples/quickstart.exe
	dune exec examples/fear_spectrum.exe
	dune exec examples/text_index.exe
	dune exec examples/graph_analytics.exe
	dune exec examples/mesh_refinement.exe
	dune exec examples/failure_semantics.exe

doc:
	dune build @doc

clean:
	dune clean
