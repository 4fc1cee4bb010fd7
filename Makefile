# Developer entry points. Everything here is plain go tool invocations;
# the Makefile just names the common ones.

.PHONY: build test race bench bench-sweep bench-fabric smoke-cores chaos-service alloc-guard

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Full benchmark sweep, one iteration each (regression smoke).
bench:
	go test -bench=. -benchtime=1x ./...

# Sweep-executor perf trajectory: cells/sec at 1/2/4/8 workers over a
# 64-cell grid, recorded to BENCH_sweep.json.
bench-sweep:
	sh scripts/bench_sweep.sh

# Distributed-fabric perf trajectory: a real coordinator plus 1/2/4
# `dwarnd -worker` processes over the 72-cell parallel grid, recorded
# to BENCH_fabric.json.
bench-fabric:
	sh scripts/bench_fabric.sh

# Shared generator-core smoke: the 72-cell grid at -parallel 1 and 8
# gives identical digests and builds exactly 16 cores in each process.
smoke-cores:
	sh scripts/smoke_cores.sh

# Crash/fault drills: journal crash recovery, torn-tail truncation, and
# store-write-error absorption against a real dwarnd via DWARN_CHAOS.
chaos-service:
	sh scripts/chaos_service.sh

# Zero-allocation steady-state guard for the cycle engine.
alloc-guard:
	go test ./internal/sim -run TestStepZeroAllocSteadyState -v
