# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs
# the same gates the workflow runs, so a green `make ci` means a green CI.

GO ?= go

.PHONY: build test race purego bench bench-record bench-check vet fmt-check jobbench-smoke shard-smoke sweep-smoke serve-smoke fleet-smoke federation-smoke loadgen-smoke pprof-smoke examples-smoke lint vuln ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The portable build of internal/numeric's kernels (the purego tag turns
# the amd64 assembly off): vet it, race-test the packages whose parallel
# paths run those kernels (the race detector cannot see memory that
# assembly touches), and keep a non-amd64 build compiling.
purego:
	$(GO) vet -tags purego ./...
	$(GO) test -race -tags purego ./internal/numeric ./internal/snn ./internal/engine ./internal/core
	GOARCH=arm64 $(GO) build ./...

# Quick-mode benchmark smoke run: every benchmark executes exactly one
# iteration end to end. This only proves the benchmarks still run; real
# measurement is bench-record / bench-check below.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Measure the hot kernels with fixed iteration counts (-count=3,
# min-of-runs) and rewrite the committed baseline BENCH_kernel.json.
# Run on a quiet machine when a PR intentionally changes kernel perf,
# then commit the diff.
bench-record:
	./scripts/bench-record.sh

# Same measurement, gated against the committed baseline: fails if any
# tracked benchmark's ns/op regressed more than 25% (override with
# BENCH_TOLERANCE=<fraction>).
bench-check:
	./scripts/bench-check.sh

# Job-level benchmark smoke: jobbench is its own module, so the root
# build and tests never compile it. Vet and race-test it, then run a
# short pipeline window and require correct outputs and no failed ops
# on the JSON summary line.
jobbench-smoke:
	cd jobbench && $(GO) vet ./... && $(GO) test -race ./...
	@last="$$(bash jobbench/run.sh --workload pipeline --seed 1 --seconds 3 --trace 0 | tail -n 1)"; \
		echo "$$last"; \
		echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -q '"failed":0[,}]' || \
		{ echo "jobbench: incorrect outputs or failed ops"; exit 1; }

# Exercise the scheduler's shard matrix the same way the CI does.
shard-smoke: build
	$(GO) run ./cmd/experiments run --workers 4 --shard 1/2 --json > /dev/null
	$(GO) run ./cmd/experiments run --workers 4 --shard 2/2 --json > /dev/null

# Scenario-sweep engine smoke: a tiny multi-axis grid on 2 workers,
# cross-checked byte-identical against the sequential (workers=1) run.
sweep-smoke: build
	./scripts/sweep-smoke.sh

# Job-service smoke: start `sparkxd serve` on a random port, submit a
# tiny sweep twice through the Go client (same deterministic job ID),
# poll to completion, and `cmp` the fetched artifact payload against the
# in-process `sparkxd sweep` output.
serve-smoke: build
	./scripts/serve-smoke.sh

# Distributed-fleet smoke: coordinator + two workers, one killed -9
# mid-job (lease expiry requeues it), result `cmp`-identical to the
# in-process sweep; then a coordinator restart on the same store serves
# the resubmission from the persisted job record without re-executing.
fleet-smoke: build
	./scripts/fleet-smoke.sh

# Federation smoke: a `sparkxd store serve` shared store + two sharded
# coordinators + two workers; a mixed batch submitted through one
# coordinator (the CLI follows 421 misdirects), one coordinator killed
# -9 mid-queue and replaced (queued jobs restored from durable records),
# every artifact `cmp`-identical to the in-process sweep.
federation-smoke: build
	./scripts/federation-smoke.sh

# Observability/admission smoke: coordinator with tight per-submitter
# rate limiting + two workers with /metrics endpoints, driven by
# `sparkxd loadgen`; asserts a clean v1 report (0 failed, 429s retried
# to completion) and nonzero lease/latency series on /metrics.
loadgen-smoke: build
	./scripts/loadgen-smoke.sh

# Diagnostics smoke: every serving binary's -debug-addr listener must
# serve the pprof index, a heap profile, and /debug/vars; the
# coordinator's stderr must be structured JSON keyed by job ID; and
# `sparkxd version` must agree with /v1/healthz.
pprof-smoke: build
	./scripts/pprof-smoke.sh

# Run every example and both CLIs end to end on tiny budgets, including
# the persist-then-resume artifact round-trip of `sparkxd single`.
examples-smoke: build
	$(GO) run ./examples/quickstart -tiny
	$(GO) run ./examples/faultaware -tiny
	$(GO) run ./examples/mapping
	$(GO) run ./examples/voltagesweep
	$(GO) run ./cmd/sparkxd single -neurons 40 -train 60 -test 30 -epochs 1 -artifacts /tmp/sparkxd-arts -quiet
	$(GO) run ./cmd/sparkxd single -neurons 40 -train 60 -test 30 -epochs 1 -resume /tmp/sparkxd-arts -quiet
	$(GO) run ./cmd/dramsim -weights 78400 -policy sparkxd -voltage 1.1

# Static analysis / vulnerability scan; both need their tools on PATH
# (go install honnef.co/go/tools/cmd/staticcheck@v0.4.7,
#  go install golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	staticcheck ./...

vuln:
	govulncheck ./...

ci: build vet fmt-check race purego bench jobbench-smoke examples-smoke sweep-smoke serve-smoke fleet-smoke federation-smoke loadgen-smoke pprof-smoke
