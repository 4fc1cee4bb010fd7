# Developer entry points. Everything here is plain go tool invocations;
# the Makefile just names the common ones.

.PHONY: build test race bench bench-sweep bench-fabric bench-service bench-ckpt smoke-ckpt chaos-service alloc-guard

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

# Service-level perf trajectory: end-to-end runs/sec and p99
# submit→done latency against a real dwarnd at 1/4/8 concurrent
# clients, cold (every run simulated) and hot (cache-served), recorded
# to BENCH_service.json.
bench-service:
	sh scripts/bench_service.sh

# Checkpoint/fork engine perf trajectory: the 72-cell parallel grid
# with and without checkpointing, recorded to BENCH_ckpt.json.
bench-ckpt:
	sh scripts/bench_ckpt.sh

# Checkpoint/fork engine correctness smoke: one warmup per group and
# digests bit-identical to a serial no-checkpoint run.
smoke-ckpt:
	sh scripts/smoke_ckpt.sh

# Crash/fault drills: journal crash recovery, torn-tail truncation, and
# store-write-error absorption against a real dwarnd via DWARN_CHAOS.
chaos-service:
	sh scripts/chaos_service.sh

# Zero-allocation steady-state guard for the cycle engine.
alloc-guard:
	go test ./internal/sim -run TestStepZeroAllocSteadyState -v
