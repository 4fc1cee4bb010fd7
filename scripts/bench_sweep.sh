#!/bin/sh
# bench_sweep.sh — record the execution layer's sweep throughput.
#
# Runs BenchmarkSweepExecutor (a fixed 64-cell grid through
# internal/exec at 1/2/4/8 workers) and writes BENCH_sweep.json with
# cells/sec per worker count plus the serial→8-worker speedup, so
# future PRs can diff sweep throughput. GOMAXPROCS is recorded
# alongside: the speedup is bounded by the host's cores (a single-core
# runner shows ~1.0x regardless of workers).
#
# Usage:
#   scripts/bench_sweep.sh [output.json]
#   BENCHTIME=3x scripts/bench_sweep.sh
#
# (or `make bench-sweep`)
set -eu

out="${1:-BENCH_sweep.json}"
benchtime="${BENCHTIME:-1x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkSweepExecutor' \
    -benchtime "$benchtime" -count 1 ./internal/exec | tee "$raw"

maxprocs="$(go run ./scripts/maxprocs 2>/dev/null || echo 0)"

# A single-core runner cannot show parallel speedup: the 1..8-worker
# rates all collapse to the serial rate and the recorded speedup is
# meaningless as a regression baseline. Say so loudly and mark the
# output so downstream diffs know to ignore it.
degraded=false
if [ "$maxprocs" -le 1 ]; then
    degraded=true
    echo "bench_sweep: WARNING: GOMAXPROCS=$maxprocs — parallel speedup is" >&2
    echo "bench_sweep: WARNING: meaningless on a single-core runner; results marked degraded" >&2
fi

awk -v benchtime="$benchtime" -v maxprocs="$maxprocs" -v degraded="$degraded" '
BEGIN { n = 0 }
/^BenchmarkSweepExecutor\/workers-/ {
    # BenchmarkSweepExecutor/workers-4-8  N  123456 ns/op  64.00 cells  129.3 cells/sec
    split($1, path, "/")
    w = path[2]
    sub(/^workers-/, "", w)
    sub(/-[0-9]+$/, "", w)   # strip -GOMAXPROCS
    delete m
    for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
    workers[n]  = w
    rate[n]     = m["cells/sec"]
    cells[n]    = m["cells"]
    n++
}
END {
    if (n == 0) { print "bench_sweep: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    serial = 0; best8 = 0
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkSweepExecutor\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"gomaxprocs\": %d,\n", maxprocs
    printf "  \"degraded\": %s,\n", degraded
    printf "  \"grid_cells\": %d,\n", cells[0]
    printf "  \"cells_per_sec\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"workers_%s\": %s%s\n", workers[i], rate[i], (i < n - 1 ? "," : "")
        if (workers[i] == "1") serial = rate[i]
        if (workers[i] == "8") best8 = rate[i]
    }
    printf "  },\n"
    if (serial > 0 && best8 > 0)
        printf "  \"speedup_8_workers\": %.2f\n", best8 / serial
    else
        printf "  \"speedup_8_workers\": null\n"
    printf "}\n"
}' "$raw" > "$out"

echo "bench_sweep: wrote $out"
