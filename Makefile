.PHONY: all build typecheck test examples doc clean check-race check-fault \
	profile-smoke report-smoke perf-gate flake-check \
	serve-smoke metrics-smoke slo-smoke

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

# Repeats the two once-flaky tests 20 times each through the
# Alcotest `test NAME N` filter: test_pool "chunks partition" and the
# test_check fault-sweep case whose "injections fired" check used to fail
# by chance.  The case index is looked up by name, so reordering the
# suites does not break the target.
flake-check:
	dune build test/test_pool.exe test/test_check.exe
	set -e; \
	for t in 'test_pool:chunks partition' 'test_check:single bench contract'; do \
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

# CI serve-smoke job: boot the request server in-process and drive it with
# the chaos load generator — a forced-overload burst (32 back-to-back spin
# requests against an admission bound of 16, so load shedding must engage)
# plus mid-request client kills and reconnects.  loadgen exits 4 unless
# every request is accounted for (no lost or duplicate replies), no reply
# is malformed, and repeated runs of the same instance agree on the digest.
# mis is in the mix because its digest is of an invariant (maximality and
# independence), not of the raw output.
# Both kind="serve" artifacts feed the dashboard's latency section.  The
# outer timeout is the hang detector of last resort.
serve-smoke:
	timeout 300 dune exec bin/rpb.exe -- loadgen --boot \
	  --socket /tmp/rpb-serve-smoke.sock \
	  --clients 4 -n 12 --bench hist,sort,mis --bench spin --spin-ms 25 \
	  --burst 32 --max-queue 16 --kill-every 9 --seed 42 \
	  --json SERVE_loadgen.json --server-json SERVE_server.json
	dune exec bin/rpb.exe -- report SERVE_loadgen.json SERVE_server.json \
	  -o REPORT_serve.html --md REPORT_serve.md
	test -s REPORT_serve.md

# CI metrics-smoke job: the live metrics plane end to end.  A long-lived
# server is started with snapshot streaming armed (one kind=metrics JSONL
# line every 250 ms plus the slow-request scheduler-profile log), the
# chaos load generator drives it over the same socket, and `rpb top
# --check` then takes consecutive verb=stats snapshots over the serve
# protocol and asserts the snapshot invariants — counters monotone,
# sequence advancing, and every latency histogram's totals reconciling
# with the request status counters (exit 4 on a violation).  The server
# boot/drain choreography lives in scripts/with_server.sh (shared with
# slo-smoke): the binary is prebuilt and run from _build directly so
# concurrent processes never contend on the dune lock, the server is
# drained with SIGTERM, and the outer timeouts are the hang detectors of
# last resort.
metrics-smoke:
	dune build bin/rpb.exe
	rm -f METRICS_serve.jsonl
	server='--threads 4 --max-queue 16 --preload hist --preload sort'; \
	server="$$server --metrics-json METRICS_serve.jsonl --metrics-interval 0.25"; \
	server="$$server --slow-log 4 --slow-pctl 90"; \
	server="$$server --json SERVE_metrics_server.json --quiet"; \
	drive='timeout 300 $$RPB loadgen --socket $$SOCK'; \
	drive="$$drive --clients 4 -n 12 --bench hist,sort --bench spin --spin-ms 25"; \
	drive="$$drive --burst 24 --kill-every 9 --seed 42"; \
	drive="$$drive --json SERVE_metrics_loadgen.json"; \
	drive="$$drive && timeout 60 \$$RPB top --socket \$$SOCK --check -n 2 --interval 0.3"; \
	scripts/with_server.sh /tmp/rpb-metrics-smoke.sock "$$server" "$$drive"
	grep -q '"kind":"metrics"' METRICS_serve.jsonl
	dune exec bin/rpb.exe -- report METRICS_serve.jsonl \
	  SERVE_metrics_loadgen.json SERVE_metrics_server.json \
	  -o REPORT_metrics.html --md REPORT_metrics.md
	test -s REPORT_metrics.md
	grep -q 'Live metrics' REPORT_metrics.md

# CI slo-smoke job: the SLO engine and health plane end to end.  A server
# boots with a tight latency objective and second-scale burn windows; the
# health verb must report ok at boot, degrade to unhealthy (both windows
# paging) while a spin-heavy load burns the budget — with admission
# visibly tightened (the effective queue cap drops and overload sheds
# carry a scaled retry hint) — and recover to ok once the load stops and
# hysteresis steps the level back down.  The drained JSONL then replays
# offline: `rpb slo --check` must exit 0 against a loose objective and 4
# against the tight one (the injected violation), and the kind=slo
# artifact feeds the dashboard's "SLO & error budget" section.
slo-smoke:
	dune build bin/rpb.exe
	rm -f SLO_metrics.jsonl SLO_replay.json
	server='--threads 2 --max-queue 8'; \
	server="$$server --metrics-json SLO_metrics.jsonl --metrics-interval 0.25"; \
	server="$$server --slo latency:serve.exec_ms:p95<5;avail:0.99"; \
	server="$$server --slo-fast-s 1.5 --slo-slow-s 6 --quiet"; \
	drive='set -e; timeout 30 $$RPB slo --socket $$SOCK --expect ok --wait 10; '; \
	drive="$$drive( i=0; while test \$$i -lt 6; do"; \
	drive="$$drive timeout 60 \$$RPB loadgen --socket \$$SOCK --clients 4 -n 20"; \
	drive="$$drive --bench spin --spin-ms 25 --mean-gap-ms 1 --seed \$$i"; \
	drive="$$drive --max-retries 2 --quiet >/dev/null 2>&1 || true;"; \
	drive="$$drive i=\$$((i + 1)); done ) & load=\$$!;"; \
	drive="$$drive timeout 60 \$$RPB slo --socket \$$SOCK --expect unhealthy --wait 45;"; \
	drive="$$drive wait \$$load;"; \
	drive="$$drive timeout 60 \$$RPB slo --socket \$$SOCK --expect ok --wait 30"; \
	scripts/with_server.sh /tmp/rpb-slo-smoke.sock "$$server" "$$drive"
	grep -q '"slo.level"' SLO_metrics.jsonl
	timeout 60 _build/default/bin/rpb.exe slo SLO_metrics.jsonl \
	  --slo 'latency:serve.exec_ms:p95<5000;avail:0.5' \
	  --fast-s 1.5 --slow-s 6 --check
	timeout 60 _build/default/bin/rpb.exe slo SLO_metrics.jsonl \
	  --slo 'latency:serve.exec_ms:p95<5' --fast-s 1.5 --slow-s 6 \
	  --json SLO_replay.json --check; \
	  test $$? -eq 4
	dune exec bin/rpb.exe -- report SLO_replay.json SLO_metrics.jsonl \
	  -o REPORT_slo.html --md REPORT_slo.md
	grep -q 'SLO & error budget' REPORT_slo.md

# CI report-smoke job's second step: the dashboard out of fresh artifacts.
# A quick bench/perf run of the fear workload supplies the paper's tables
# (Table 1 / Fig. 4, Fig. 5), the profile-smoke documents the work/span
# section.
report-smoke:
	sh bench/perf/run.sh fear --quick --json BENCH_smoke_fear.json
	dune exec bin/rpb.exe -- report BENCH_smoke_fear.json PROFILE_*.json \
	  -o REPORT_smoke.html --md REPORT_smoke.md
	test -s REPORT_smoke.html

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
