#!/usr/bin/env bash
# Builds dwarnd and the dwarnbench program from the checkout this script
# sits in, then runs dwarnbench with the given arguments. Run it from
# the repository root:
#
#   bash dwarnbench/run.sh --workload demo-grid --seed 1 --seconds 15 --trace 0
#
# Build caches, binaries and run state stay inside the checkout under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/dwarnbench/go.mod" ]; then
	echo "dwarnbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/dwarnd" ./cmd/dwarnd >&2
(cd dwarnbench && go build -o "$out/dwarnbench" .) >&2
# Write back the build's files, and whatever an earlier run left
# behind, so that writeback does not land on this run's fsyncs.
sync -f "$out"
exec "$out/dwarnbench" -root "$root" -out "$out" "$@"
