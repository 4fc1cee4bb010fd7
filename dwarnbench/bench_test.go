package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // nearest rank 90, samples 91..100 beyond
		{99, 0.90, 90, false}, // rank 90 of 99 leaves only 9 beyond
		{20, 0.50, 10, true},  // rank 10, 10 beyond
		{19, 0.50, 10, false}, // rank 10 of 19 leaves 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	}
	for _, c := range cases {
		v, ok := Percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("Percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("Percentile of no samples reported ok")
	}
}

func TestTailOrMaxFallsBackToMax(t *testing.T) {
	if v, ok := TailOrMax(seq(50), 0.99); v != 50 || ok {
		t.Errorf("TailOrMax(1..50, .99) = %v, %v; want the max 50, false", v, ok)
	}
	if v, ok := TailOrMax(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("TailOrMax(1..1000, .99) = %v, %v; want 990, true", v, ok)
	}
}

func TestMedianAndBucketMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	// Three one-second buckets with medians 1, 2 and 100: the burst in
	// the last bucket moves the pooled median but not the bucketed one.
	dues := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond,
		time.Second, 1100 * time.Millisecond, 1200 * time.Millisecond,
		2 * time.Second, 2100 * time.Millisecond, 2200 * time.Millisecond}
	vals := []float64{1, 1, 1, 2, 2, 2, 100, 100, 100}
	if m := bucketMedian(dues, vals, time.Second); m != 2 {
		t.Errorf("bucketMedian = %v, want 2", m)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "spec", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "workload", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "pipeline", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Layer: "pipeline", Start: 25, End: 35},
		{ID: 6, Parent: 0, Layer: "other", Start: 0, End: 1000}, // another tree
	}
	got := selfTimes(spans, 1)
	// Children of 1 cover [10,50] and [90,100]: 50 of its 100.
	want := map[string]int64{"bench": 50, "spec": 20, "workload": 20, "pipeline": 30 + 10}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, got[layer], w)
		}
	}
	if _, ok := got["other"]; ok {
		t.Error("self time leaked in from a span outside the subtree")
	}
}

func TestSelfTimesSumToWallForSequentialChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("t", "cell", "bench", 0)
	for _, layer := range []string{"spec", "workload", "pipeline", "pipeline"} {
		id := tr.begin("t", layer, layer, root)
		time.Sleep(time.Millisecond)
		tr.end(id)
	}
	tr.end(root)
	spans := tr.snapshot()
	var total int64
	for _, v := range selfTimes(spans, root) {
		total += v
	}
	if wall := spans[root-1].dur(); total != wall {
		t.Errorf("self times sum to %d ns, root wall is %d ns", total, wall)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("t", "x", "y", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}

func TestOpenLoopSchedule(t *testing.T) {
	s := schedule(40, time.Second)
	if len(s) != 40 {
		t.Fatalf("40/s over 1s: %d requests, want 40", len(s))
	}
	for i, due := range s {
		if want := time.Duration(i) * 25 * time.Millisecond; due != want {
			t.Fatalf("request %d due at %v, want %v", i, due, want)
		}
	}
	if n := len(schedule(3.5, 2*time.Second)); n != 7 {
		t.Errorf("3.5/s over 2s: %d requests, want 7", n)
	}
	// The schedule does not depend on how fast anything answers: the
	// same rate and duration always give the same due times.
	a, b := schedule(54, 3*time.Second), schedule(54, 3*time.Second)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("schedule is not deterministic")
		}
	}
	// The mix drawn from a seed is the same every time, and every block
	// of ten requests has the same composition.
	ga, gb := newMixGen(7), newMixGen(7)
	ra, rb := ga.requests(40, time.Second), gb.requests(40, time.Second)
	count := map[string]int{}
	for i := range ra {
		if ra[i].kind != rb[i].kind || ra[i].spec != rb[i].spec {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
		count[ra[i].kind]++
		if (i+1)%len(mixBlock) == 0 {
			if count[kindCold] != 4 || count[kindBase] != 1 || count[kindHit] != 5 {
				t.Fatalf("block ending at request %d has %v", i, count)
			}
			count = map[string]int{}
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := []int{2, 3, 1, 2, 3, 2, 1, 2, 3, 2, 2, 3}
	if backlogGrows(flat) {
		t.Error("a steady backlog was reported as growing")
	}
	var rising []int
	for i := 0; i < 30; i++ {
		rising = append(rising, i)
	}
	if !backlogGrows(rising) {
		t.Error("a backlog rising from 0 to 29 was not reported as growing")
	}
	if backlogGrows([]int{0, 50}) {
		t.Error("two samples are too few to call a trend")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tdwarnd\nVmPeak:\t  900000 kB\nVmHWM:\t   36392 kB\nVmRSS:\t   30000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 36392 {
		t.Errorf("parseVmHWM = %d, %v; want 36392", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t1 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("VmHWM in an unexpected unit parsed")
	}
	// The live process's own line parses too.
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if kb, err := parseVmHWM(string(b)); err != nil || kb <= 0 {
			t.Errorf("own VmHWM = %d, %v", kb, err)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	// A command name holding ") (" must not shift the fields.
	stat := "4242 (dw) (arnd) S 1 4242 4242 0 -1 4194560 900 0 0 0 731 152 0 0 20 0 9 0 12345 0 0\n"
	ticks, err := parseCPUTicks(stat)
	if err != nil || ticks != 731+152 {
		t.Errorf("parseCPUTicks = %d, %v; want 883", ticks, err)
	}
	if _, err := parseCPUTicks("4242 (dwarnd) S 1 2 3"); err == nil {
		t.Error("truncated stat line parsed")
	}
	if _, err := parseCPUTicks("no name here"); err == nil {
		t.Error("stat line without a command name parsed")
	}
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		if _, err := parseCPUTicks(string(b)); err != nil {
			t.Errorf("own stat line: %v", err)
		}
	}
}

func TestComparePinned(t *testing.T) {
	a := pinnedCell{Policy: "dwarn", Workload: "2-MIX", Seed: 5, Warmup: 2000, Measure: 6000, Throughput: 1.5, Digest: "aa"}
	b := a
	b.Seed = 6
	want := []pinnedCell{a, b}
	if bad := comparePinned(want, []pinnedCell{b, a}); len(bad) != 0 {
		t.Errorf("identical outputs in another order: %v", bad)
	}
	changed := a
	changed.Digest = "ab"
	if bad := comparePinned(want, []pinnedCell{changed, b}); len(bad) != 1 {
		t.Errorf("one changed digest gave %d mismatches, want 1", len(bad))
	}
	tput := a
	tput.Throughput = math.Nextafter(1.5, 2)
	if bad := comparePinned(want, []pinnedCell{tput, b}); len(bad) != 1 {
		t.Errorf("a throughput one ulp off gave %d mismatches, want 1", len(bad))
	}
	if bad := comparePinned(want, []pinnedCell{a}); len(bad) != 1 || !strings.Contains(bad[0], "no output") {
		t.Errorf("a missing cell gave %v", bad)
	}
}

func TestPinnedFilesMatchTheWorkloadCells(t *testing.T) {
	for _, wl := range []string{"paper-cells", "demo-grid", "run-mix", "remote-grid"} {
		for _, seed := range pinnedSeeds {
			raw, err := os.ReadFile(filepath.Join("testdata", "pinned", pinnedName(wl, seed)))
			if err != nil {
				t.Fatal(err)
			}
			var pf pinnedFile
			if err := json.Unmarshal(raw, &pf); err != nil {
				t.Fatal(err)
			}
			keys := map[string]bool{}
			for _, c := range pf.Cells {
				keys[c.key()] = true
			}
			cells := expectedCells(wl, seed)
			if wl == "remote-grid" {
				cells = expectedCells("demo-grid", seed)
			}
			if len(cells) != len(pf.Cells) {
				t.Errorf("%s seed %d: %d pinned cells, workload has %d", wl, seed, len(pf.Cells), len(cells))
			}
			for _, c := range cells {
				if !keys[specKey(c)] {
					t.Errorf("%s seed %d: cell %s is not pinned", wl, seed, specKey(c))
				}
			}
		}
	}
}

// TestRecomputeMatchesPinned runs one pinned demo cell through dwarn.Run:
// the pinned files and the in-process check agree on this checkout.
func TestRecomputeMatchesPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pinned", pinnedName("demo-grid", 1)))
	if err != nil {
		t.Fatal(err)
	}
	var pf pinnedFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatal(err)
	}
	c := pf.Cells[0]
	spec := runReq{Policy: policyRef{c.Policy}, Workload: workloadRef{c.Workload}, Seed: c.Seed,
		WarmupCycles: c.Warmup, MeasureCycles: c.Measure}
	r, err := recompute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bad := comparePinned([]pinnedCell{c}, []pinnedCell{observed(spec, r)}); len(bad) != 0 {
		t.Errorf("dwarn.Run disagrees with the pinned output: %v", bad)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestIsBenchmarkJSON keeps BENCHMARK.json the rendering of the
// manifest table and inside the limits its readers enforce.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	m := manifest()
	want, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the manifest; run: bash dwarnbench/run.sh -write-manifest")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound != 0 {
			t.Errorf("per-layer %s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
	}
	if n := 4 + 22*len(m.Workloads); float64(n*(m.RunSeconds+10)) > 3000 {
		t.Errorf("%d runs of %d s plus set-up do not fit the time budget", n, m.RunSeconds)
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(1, 1, 0) != deriveSeed(1, 1, 0) {
		t.Fatal("deriveSeed is not deterministic")
	}
	seen := map[uint64]bool{}
	for s := uint64(1); s <= 3; s++ {
		for stream := uint64(1); stream <= 6; stream++ {
			for i := uint64(0); i < 100; i++ {
				v := deriveSeed(s, stream, i)
				if v == 0 || seen[v] {
					t.Fatalf("deriveSeed(%d, %d, %d) = %d repeats or is zero", s, stream, i, v)
				}
				seen[v] = true
			}
		}
	}
}
