#!/bin/sh
# smoke_cores.sh — end-to-end check for the shared generator-core cache.
#
# Runs the 72-cell examples/specs/parallel-grid.json (6 policies × 3
# workloads × 4 seeds) serially and with 8 workers, and asserts:
#
#   1. Each run prints 72 per-cell digest lines.
#   2. The -parallel 1 and -parallel 8 digests are bit-identical.
#   3. Each process built exactly 16 generator cores
#      (dwarn_workload_core_builds_total): 4 seeds × {gzip@thread 0,
#      bzip2@thread 1, twolf@thread 1, mcf@thread 0}. Policies never
#      rebuild a core, and gzip and twolf sit on the same thread in two
#      workloads each, so any other count means a core was built twice
#      or two runs shared a core they must not.
#
# Usage: scripts/smoke_cores.sh   (or `make smoke-cores`)
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

spec="examples/specs/parallel-grid.json"
go build -o "$tmp/smtsim" ./cmd/smtsim

digests() { grep '^[a-z].* digest=' "$1" | sort; }

# metric FILE NAME → value (counters print as integers; 0 if absent).
metric() {
    awk -v name="$2" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$1"
}

for p in 1 8; do
    echo "smoke_cores: -parallel $p run..."
    "$tmp/smtsim" -spec "$spec" -parallel "$p" -metrics "$tmp/p$p.prom" > "$tmp/p$p.out"
    digests "$tmp/p$p.out" > "$tmp/p$p.digests"
    n="$(wc -l < "$tmp/p$p.digests")"
    if [ "$n" -ne 72 ]; then
        echo "smoke_cores: FAIL: -parallel $p printed $n digest lines, want 72" >&2
        exit 1
    fi
    builds="$(metric "$tmp/p$p.prom" dwarn_workload_core_builds_total)"
    if [ "$builds" -ne 16 ]; then
        echo "smoke_cores: FAIL: -parallel $p built $builds generator cores, want 16" >&2
        exit 1
    fi
done

if ! cmp -s "$tmp/p1.digests" "$tmp/p8.digests"; then
    echo "smoke_cores: FAIL: -parallel 8 digests diverge from -parallel 1:" >&2
    diff "$tmp/p1.digests" "$tmp/p8.digests" >&2 || true
    exit 1
fi

echo "smoke_cores: PASS — 72/72 digests identical at -parallel 1 and 8, 16 core builds in each process"
