#!/bin/sh
# cycle_rate_gate.sh — same-host throughput gate for the cycle engine.
#
# Builds BenchmarkSimulatorCycleRate twice, once from a base commit and
# once from the working tree, runs the two binaries interleaved (base,
# head, base, head, ...) ten times each, and fails if head's median
# ns/cycle on any workload (2-MIX, 4-MIX, 8-MEM) exceeds base's by more
# than 15%. Interleaving spreads the host's drift over both sides; the
# median keeps one noisy run from deciding. Each side's spread (range
# of its runs over their median) is printed beside the verdict, so a
# log shows how much of a difference the host's noise could explain.
# Ten pairs of 200000 cycles take about 30 s of runs. On a noisy 2-vCPU
# host, medians of identical code built twice differed by up to 22%
# over five pairs and by at most 6.3% over ten pairs of this length.
#
# Usage (from anywhere inside the repository):
#   sh scripts/cycle_rate_gate.sh <base-commit>
set -eu

base="${1:?usage: cycle_rate_gate.sh <base-commit>}"
pairs=10
tol=15
benchtime=200000x

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .

i=0
while [ "$i" -lt "$pairs" ]; do
	for side in base head; do
		# BenchmarkSimulatorCycleRate/4-MIX-2  50000  1849 ns/op  ...
		"$work/$side.test" -test.run '^$' -test.bench '^BenchmarkSimulatorCycleRate$' \
			-test.benchtime "$benchtime" |
			awk -v side="$side" '$1 ~ /^BenchmarkSimulatorCycleRate\// {
				wl = $1
				sub(/^BenchmarkSimulatorCycleRate\//, "", wl)
				sub(/-[0-9]+$/, "", wl)
				print side, wl, $3
			}' >>"$work/samples"
	done
	i=$((i + 1))
done

# stats reads one number per line and prints their median and their
# range as a percentage of the median.
stats() {
	sort -n | awk '{ v[NR] = $1 } END {
		if (NR == 0) exit 1
		m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
		print m, (v[NR] - v[1]) / m * 100
	}'
}

echo "cycle-rate gate: base $base vs head, $pairs interleaved pairs of ${benchtime%x} cycles, tolerance +$tol% ns/cycle"
fail=0
for wl in 2-MIX 4-MIX 8-MEM; do
	b=$(awk -v w="$wl" '$1 == "base" && $2 == w { print $3 }' "$work/samples" | stats) || {
		echo "  $wl: no base samples" && fail=1 && continue
	}
	h=$(awk -v w="$wl" '$1 == "head" && $2 == w { print $3 }' "$work/samples" | stats) || {
		echo "  $wl: no head samples" && fail=1 && continue
	}
	if echo "$b $h" | awk -v wl="$wl" -v t="$tol" '{
		d = ($3 - $1) / $1 * 100
		printf "  %-6s base %6.0f ns/cycle (range %4.1f%%)  head %6.0f ns/cycle (range %4.1f%%)  %+6.1f%%\n", wl, $1, $2, $3, $4, d
		exit !(d <= t)
	}'; then :; else
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "cycle-rate gate: head is slower than base by more than $tol% on some workload"
	exit 1
fi
echo "cycle-rate gate: ok"
