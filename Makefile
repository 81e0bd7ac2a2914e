# HumMer build / verify entry points.
#
#   make check   — everything CI needs: formatting, vet, the hummer
#                  contract linter, build, tests, the race detector on
#                  the parallel and serving packages, the chaos
#                  fault-storm, the coverage floor, and the
#                  perf-acceptance benchmarks in short mode.
#   make lint    — the repo's own static-analysis suite
#                  (cmd/hummer-lint): panic containment on every
#                  goroutine, determinism bans in result-producing
#                  packages, ctx discipline, sync/atomic mixing, and
#                  error-wrapping hygiene.
#   make chaos   — the fault-injection chaos suite under -race: a
#                  server hammered by concurrent mixed queries while a
#                  fixed-seed fault schedule fires panics, errors and
#                  delays at every layer.
#   make serve   — launch hummerd on the quickstart example sources.
#   make bench   — the full benchmark suite (longer).
#   make loadtest — fixed-seed closed-loop loadgen smoke + burst
#                  admission tests against an in-process hummerd.
#   make profile — start hummerd with -debug-addr, drive it with the
#                  loadgen, and capture a 10s CPU profile to
#                  profiles/cpu.pprof.
#   make fmt     — rewrite files with gofmt.

GO ?= go

# Packages with sharded worker pools or concurrent query serving:
# always exercised under -race. The root package carries the
# concurrent-DB.Query byte-identity test; plan and core carry the
# ctx-threaded pipeline (cancellation joins worker goroutines, the
# fused-result tier shares results across queries), so ctx-misuse
# regressions surface here; engine carries the batched parallel
# hash-join probe.
RACE_PKGS = . ./internal/parshard ./internal/dupdetect ./internal/dumas \
	./internal/qcache ./internal/server ./internal/plan ./internal/core \
	./internal/engine

# Packages held to the coverage floor (matching + detection core).
COVER_PKGS = ./internal/dumas ./internal/dupdetect ./internal/assign ./internal/strsim
COVER_FLOOR = 70

.PHONY: check fmtcheck fmt vet lint build test race race-stream chaos cover bench bench-short bench-join serve loadtest obs-bench profile

check: fmtcheck vet lint build test race race-stream chaos cover bench-short obs-bench loadtest

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The repo's contracts as code: five analyzers (containment,
# determinism, ctx, atomicmix, errwrap) over the whole module. Exit 1
# on findings; suppression needs //lint:ignore hummer/<rule> <reason>.
lint:
	$(GO) run ./cmd/hummer-lint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel and serving packages must be clean under the race
# detector: the determinism guarantee is worthless if workers race,
# and hummerd serves queries concurrently.
race:
	$(GO) test -race $(RACE_PKGS)

# The streaming/batch API surface (Rows producer goroutines, NDJSON
# streaming, per-statement deadlines) exercised under the race
# detector with verbose-enough selection that a hang is attributable.
# Redundant with `race` on coverage, but a fast, targeted signal when
# iterating on the streaming path.
race-stream:
	$(GO) test -race -run 'Stream|Rows|Batch' . ./internal/plan ./internal/server

# Fault containment under fire: the chaos storm (fixed fault seed
# baked into the test) plus every injection/containment test, all
# under the race detector. Proves panics anywhere become typed
# errors, the cache is never poisoned, goroutines settle, and
# post-chaos results stay byte-identical.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Panic|Fault|Inject' \
		./internal/faultinject ./internal/fault ./internal/parshard \
		./internal/qcache ./internal/plan ./internal/server

# Launch the query service on the quickstart example sources; stop it
# with Ctrl-C (hummerd shuts down gracefully). See README.md for a
# curl-able tour of the API.
serve:
	$(GO) run ./cmd/hummerd -addr :8080 \
		-csv EE_Student=examples/serve/ee_students.csv \
		-csv CS_Students=examples/serve/cs_students.csv

# Coverage floor: each core matching/detection package must keep at
# least $(COVER_FLOOR)% statement coverage.
cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" = "1" ]; then \
			echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		else \
			echo "coverage $$pkg: $$pct% BELOW FLOOR $(COVER_FLOOR)%"; fail=1; \
		fi; \
	done; \
	exit $$fail

# The perf-acceptance benchmarks, one iteration each on small inputs:
# proves the parallel path stays byte-identical and the hot path stays
# allocation-lean without taking minutes. The second line runs DUMAS's
# indexed scoring (rows=400) and the sketch-filtered detector
# (rows=900) once each.
bench-short:
	$(GO) test -short -run '^$$' -bench 'BenchmarkDetect$$|BenchmarkPairComparison' -benchtime 1x ./...
	$(GO) test -short -run '^$$' -bench '^(BenchmarkDUMASMatch|BenchmarkDupDetect)$$/^rows=(400|900)$$' -benchtime 1x .

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Parallel-join perf gate: fails if the batched parallel probe
# regresses more than 10% (plus a small scheduler-noise slack) against
# the sequential streaming probe on the same workload. Timing-based,
# so it runs on demand rather than in `check`.
bench-join:
	HUMMER_BENCH_JOIN=1 $(GO) test -count=1 -run TestParallelJoinRegression -v ./internal/engine

# Tracing-overhead gate: the no-op span path must stay at zero
# allocations (the test asserts it) and the benchmark keeps the number
# visible in CI logs. A regression here taxes every untraced query.
obs-bench:
	$(GO) test -run 'TestNoopSpanZeroAllocs' -bench 'BenchmarkNoopSpan' -benchtime 1000x ./internal/obs

# CPU-profile a loaded server: build both binaries, start hummerd on
# the example sources with the pprof listener up, drive it with the
# loadgen mix in the background, and capture a 10-second CPU profile.
# Inspect with: go tool pprof profiles/cpu.pprof
profile:
	@mkdir -p profiles
	$(GO) build -o profiles/hummerd ./cmd/hummerd
	$(GO) build -o profiles/hummer-loadgen ./cmd/hummer-loadgen
	@./profiles/hummerd -addr 127.0.0.1:18080 -debug-addr 127.0.0.1:18081 \
		-slow-query 250ms \
		-csv EE_Student=examples/serve/ee_students.csv \
		-csv CS_Students=examples/serve/cs_students.csv & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null' EXIT; \
	sleep 1; \
	./profiles/hummer-loadgen -url http://127.0.0.1:18080 -setup \
		-mode open -rate 30 -duration 12s & \
	gen=$$!; \
	curl -fsS -o profiles/cpu.pprof \
		'http://127.0.0.1:18081/debug/pprof/profile?seconds=10' \
		|| { echo "profile capture failed (is something else on 18080/18081?)"; kill $$gen 2>/dev/null; exit 1; }; \
	wait $$gen; \
	echo "wrote profiles/cpu.pprof"

# Production-traffic smoke: the loadgen harness drives its fixed-seed
# closed-loop mix (and a deliberate overload burst) at an in-process
# hummerd — non-zero throughput, per-class percentiles, Retry-After on
# every overload response, and the /metrics histograms must all hold.
loadtest:
	$(GO) test -count=1 -run 'TestLoadgenSmoke|TestBurstAdmission' ./internal/loadgen
