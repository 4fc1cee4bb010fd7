package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer than ten samples is one outlier away
// from a different number, so the benchmark refuses to call it a p90.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs and whether at least minBeyond samples lie beyond it. xs need not
// be sorted and is not modified.
func Percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// TailOrMax returns the p-th percentile when enough samples lie beyond
// it, and otherwise the maximum — a value no lower than the true
// percentile — together with whether the percentile itself was
// supported.
func TailOrMax(xs []float64, p float64) (float64, bool) {
	v, ok := Percentile(xs, p)
	if ok || len(xs) == 0 {
		return v, ok
	}
	s := sorted(xs)
	return s[len(s)-1], false
}

// Median is the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
