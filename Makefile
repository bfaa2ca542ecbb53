# Tier-1 gate: `make ci` must stay green on every PR.

GO ?= go

# Build identity stamped into the binary (cardnet_build_info metric and
# /healthz). Override VERSION on release builds: `make build VERSION=v1.2`.
VERSION ?= dev
GITSHA ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS = -X main.buildVersion=$(VERSION) -X main.buildSHA=$(GITSHA)

.PHONY: ci lint staticcheck vet build test docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-check bench-cluster bench-kernels

ci: lint staticcheck vet build test docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-check

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Optional deep lint: runs only where the staticcheck binary is already
# installed; CI containers without it skip the step rather than fail.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...

# Documentation contracts: exported identifiers in the ops-facing packages
# carry doc comments, and docs/RUNBOOK.md's flag reference matches the flags
# cmd/cardnet actually defines (both directions). See cmd/docslint.
docs-lint:
	$(GO) run ./cmd/docslint

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test -race ./...

# Stress the serving engine's concurrency surface under the race detector
# beyond the plain `test` pass: repeated runs shuffle goroutine schedules.
race-serving:
	$(GO) test -race -count=3 ./internal/serving ./internal/core -run 'Concurrent|Swap|Saturation|Batcher|Flush|Cache'

# Shake the observability layer under the race detector: sink/registry
# concurrency, trace sampling, the rolling drift monitor, the SLO tracker's
# evaluation loop, triggered profile capture, and metrics federation.
race-obs:
	$(GO) test -race -count=3 ./internal/obs/... -run 'Concurrent|Sink|Trace|Monitor|Drift|Sampler|Tracker|Burn|Capture|Cooldown|Busy|Federate'

# Stress the data-parallel training engine and the shared tensor worker pool
# under the race detector: shard forward/backward over shared weights, ordered
# gradient reduction, and the help-first pool's nested dispatch.
race-train:
	$(GO) test -race -count=3 ./internal/core -run 'Workers|ParallelCloseToSequential|Sharded'
	$(GO) test -race -count=3 ./internal/tensor -run 'Parallel|RunParts|SetWorkers'

# Stress the cluster router under the race detector: ring membership churn,
# concurrent failover with a mid-traffic replica kill, the health prober's
# loop, and the rollout controller — plus the cmd-level router E2E (real
# replicas, real model files, canary promote and forced rollback).
race-cluster:
	$(GO) test -race -count=3 ./internal/cluster
	$(GO) test -race -count=2 ./cmd/cardnet -run 'RouterE2E|RunRouter'

# Stress the compiled inference path under the race detector: one plan shared
# by concurrent estimators (the scratch pool), engine precision tiers, and
# f32 artifacts published by hot swaps under load.
race-infer:
	$(GO) test -race -count=3 ./internal/infer -run 'Concurrent|Plan|Gate'
	$(GO) test -race -count=3 ./internal/serving -run 'Precision|GateFallback|SwapServesNewPlan|SwapUnderLoad'

# Stress the autopilot's closed loop under the race detector: the full
# drift → retrain → shadow → swap cycle, mid-retrain kill and resume, the
# forced-regression reject, and the serve-layer E2E over live HTTP.
race-autopilot:
	$(GO) test -race -count=3 ./internal/autopilot
	$(GO) test -race -count=2 ./cmd/cardnet -run 'Autopilot|HealthzShape'

# Short native-fuzzing pass over the fuzzed parsers of untrusted bytes
# (checkpoint frames, /estimate requests): no panics, and whatever a parser
# accepts honors its contract. New corpus entries stay in the Go build
# cache, not in the tree.
fuzz-smoke:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	$(GO) test ./cmd/cardnet -run '^$$' -fuzz '^FuzzEstimateRequest$$' -fuzztime 5s

# Build, vet and unit-test the benchmark module, so a change that removes
# program API perfbench uses fails here instead of in a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Regenerate the router fleet baseline (results/BENCH_cluster.json): scaling
# over 1/2/4 replicas, a mid-run replica kill (client 5xx must be 0), and the
# cost of cross-process tracing. Single-process performance is measured by
# perfbench (see perfbench/README.md).
bench-cluster:
	$(GO) run ./cmd/cardnet -mode clusterbench -dataset HM-ImageNet -n 1200 \
		-benchout results/BENCH_cluster.json

# Kernel-level GFLOP/s table for the inference fast path: the f64/f32 ABT
# kernels and the zero-skip-vs-branch-free dense matmul comparison, all at a
# Φ hidden-layer shape (256-row batch through a 512×512 layer, paper §9.1.3).
bench-kernels:
	$(GO) test ./internal/tensor -run '^$$' -bench 'KernelABT|ZeroSkip' -benchmem
