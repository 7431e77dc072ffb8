# Everything is Go stdlib-only; no tools beyond the go toolchain needed.

GO      ?= go
BINDIR  ?= /tmp/starts-bin

.PHONY: build test vet race lint bench bench-dispatch bench-wire bench-peer bench-engine bench-load bench-load-smoke bench-selftest fuzz-smoke warm soak stress tier1 tier2 check cli clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt prints their names) and then
# vets; it is the static half of tier2.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark once with allocation stats; for stable
# numbers (e.g. the SearchCold / SearchCached / SearchWarmed trio in
# EXPERIMENTS.md and BENCH_4.json) drop -benchtime 1x.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -run '^$$' ./...

# warm runs the warm-start comparison at full benchtime: cold pipeline
# vs steady-state hit vs first repeats after a workload replay (the
# warm-replay-ns metric is the one-time startup cost).
warm:
	$(GO) test -bench 'BenchmarkSearch(Cold|Cached|Warmed)$$' -benchmem -run '^$$' .

# bench-dispatch runs the fan-out benchmarks at full benchtime: the
# dispatched fan-out (concurrent identical queries coalescing at the
# dispatch layer) next to the warm-start trio it is compared against in
# BENCH_5.json.
bench-dispatch:
	$(GO) test -bench 'BenchmarkFanoutDispatched' -benchmem -run '^$$' .

# bench-wire runs the multiplexed-transport benchmark (X12: distinct
# concurrent queries, 2ms simulated RTT, one BatchConn wire call per
# queue drain) at full benchtime and regenerates BENCH_7.json from the
# run via tools/benchwire.
bench-wire:
	$(GO) test -bench 'BenchmarkFanoutMultiplexed' -benchmem -run '^$$' . > /tmp/benchwire.out
	$(GO) run ./tools/benchwire < /tmp/benchwire.out > BENCH_7.json
	@cat /tmp/benchwire.out

# bench-peer runs the distributed-cache-tier benchmark (X13: cold
# pipeline vs node-local hit vs cross-peer remote hit over loopback
# HTTP, all at the 2ms simulated source RTT) at full benchtime and
# regenerates BENCH_8.json from the run via tools/benchpeer.
bench-peer:
	$(GO) test -bench 'BenchmarkPeerCluster' -benchmem -run '^$$' . > /tmp/benchpeer.out
	$(GO) run ./tools/benchpeer < /tmp/benchpeer.out > BENCH_8.json
	@cat /tmp/benchpeer.out

# bench-engine runs the engine-scaling benchmarks (X14: block-pruned
# top-k ranked queries at 100k vs 1m docs per source, the exhaustive
# path at 1m as the pruning reference, and heap-vs-full-sort answer
# assembly on a 1m scored set) and regenerates BENCH_9.json from the
# run via tools/benchengine. Building the 1m-doc index dominates setup;
# allow several minutes on a small machine.
bench-engine:
	$(GO) test -bench 'BenchmarkEngine(Scale|Sort)' -benchmem -run '^$$' -timeout 45m ./internal/engine > /tmp/benchengine.out
	$(GO) run ./tools/benchengine < /tmp/benchengine.out > BENCH_9.json
	@cat /tmp/benchengine.out

# bench-load runs the open-loop load harness (X15: streamed TTFR vs
# time-to-last under load, one 500ms-slow source in a 5-source fleet,
# in-process and over loopback HTTP) and regenerates BENCH_10.json.
bench-load:
	$(GO) run ./tools/benchload -out BENCH_10.json

# bench-load-smoke is the CI-sized run: a second of tiny offered load,
# result discarded — it proves the harness, fleet wiring and streamed
# HTTP path still work end to end, not the numbers.
bench-load-smoke:
	$(GO) run ./tools/benchload -rate 10 -duration 1s -docs 40 -queries 8 -out /tmp/bench_load_smoke.json

# bench-selftest vets and tests the benchmark in perfbench/, a separate
# module that `go build ./...` never compiles: it catches an internal API
# change that breaks the benchmark before the benchmark itself is run.
bench-selftest:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod $(GO) vet . && GOWORK=off GOFLAGS=-mod=mod $(GO) test ./...

# fuzz-smoke runs every native fuzz target (func Fuzz* in a package of
# this module) for 10s each: long enough to catch a parser, renderer or
# decoder regression on fresh inputs, short enough for CI. go test -fuzz
# takes one target per run, hence the loop; a failing input is saved
# under the package's testdata/fuzz for replay by plain go test.
fuzz-smoke:
	@set -e; for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "fuzz $$target in $$dir"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$dir; \
		done; \
	done

# soak runs the long-haul resilience scenarios (breaker lifecycle, fault
# injection, adaptive-admission overload) under the race detector.
soak:
	$(GO) test -race -count=1 -timeout 10m -run 'Soak|Acceptance|DeadlineSheds' .

# stress repeats the dispatch layer's concurrency tests 20 times under
# the race detector: all of internal/dispatch, plus core's dispatch,
# batch and resilience tests (their names are read from those files). A
# single -race pass misses rare interleavings between the queue pump,
# the workers that run its groups and the waiters resolving tickets.
stress:
	$(GO) test -race -count=20 ./internal/dispatch
	$(GO) test -race -count=20 -run "^($$(sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p' \
		internal/core/dispatch_test.go internal/core/batch_test.go internal/core/resilience_test.go | paste -sd'|' -))$$" \
		./internal/core

# tier1 is the repo's baseline gate: everything must always pass.
tier1: build test

# tier2 adds static analysis (lint = gofmt + vet), the race detector and
# the overload soak scenarios.
tier2: lint race soak

check: tier1 tier2

# cli builds the command-line surfaces for manual verification
# (see .claude/skills/verify/SKILL.md).
cli:
	$(GO) build -o $(BINDIR) ./cmd/...

clean:
	rm -rf $(BINDIR)
	$(GO) clean
