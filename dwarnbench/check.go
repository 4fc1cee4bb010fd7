package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"dwarn"
	"dwarn/internal/sim"
)

// The output check. For seeds 1 (the default) and 2 (held out while the
// benchmark was written) the expected per-cell throughput and counter
// digest of the first sweep (grids) or the hit pool (run-mix) are
// pinned under testdata/pinned. For every seed, a few sampled service
// results are recomputed in-process with dwarn.Run from the same
// checkout and must match exactly. Every mismatch counts against
// error_ratio.

// pinnedCell is one expected output.
type pinnedCell struct {
	Policy     string  `json:"policy"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Warmup     int64   `json:"warmup_cycles"`
	Measure    int64   `json:"measure_cycles"`
	Throughput float64 `json:"throughput"`
	Digest     string  `json:"digest"`
}

func (p pinnedCell) key() string {
	return fmt.Sprintf("%s/%s/%d/%d+%d", p.Policy, p.Workload, p.Seed, p.Warmup, p.Measure)
}

type pinnedFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Cells    []pinnedCell `json:"cells"`
}

// pinnedSeeds are the seeds with pinned outputs.
var pinnedSeeds = []uint64{1, 2}

// pinnedName maps a workload to its pinned file; remote-grid runs the
// demo-grid cells and shares its file.
func pinnedName(workload string, seed uint64) string {
	if workload == "remote-grid" {
		workload = "demo-grid"
	}
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

func observed(spec runReq, r *sim.Result) pinnedCell {
	return pinnedCell{
		Policy: spec.Policy.Name, Workload: spec.Workload.Name, Seed: spec.Seed,
		Warmup: spec.WarmupCycles, Measure: spec.MeasureCycles,
		Throughput: r.Throughput, Digest: r.CounterDigest(),
	}
}

// comparePinned returns one message per expected cell that is missing
// from got or differs from it.
func comparePinned(want, got []pinnedCell) []string {
	byKey := map[string]pinnedCell{}
	for _, g := range got {
		byKey[g.key()] = g
	}
	var out []string
	for _, w := range want {
		g, ok := byKey[w.key()]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: no output", w.key()))
		case g.Digest != w.Digest || g.Throughput != w.Throughput:
			out = append(out, fmt.Sprintf("%s: throughput %v digest %.12s, pinned %v %.12s",
				w.key(), g.Throughput, g.Digest, w.Throughput, w.Digest))
		}
	}
	return out
}

// checkPinned compares observed cells with the pinned file of this
// workload and seed, when there is one.
func (b *bench) checkPinned(got []pinnedCell) {
	path := filepath.Join(b.root, "dwarnbench", "testdata", "pinned", pinnedName(b.workload, b.seed))
	raw, err := os.ReadFile(path)
	if err != nil {
		for _, s := range pinnedSeeds {
			if s == b.seed {
				b.op()
				b.fail("pinned outputs for seed %d: %v", b.seed, err)
			}
		}
		return
	}
	var pf pinnedFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		b.op()
		b.fail("pinned outputs %s: %v", path, err)
		return
	}
	for range pf.Cells {
		b.op()
	}
	bad := comparePinned(pf.Cells, got)
	for _, m := range bad {
		b.fail("pinned output mismatch: %s", m)
	}
	b.notef("pinned outputs: %d of %d cells match %s", len(pf.Cells)-len(bad), len(pf.Cells), filepath.Base(path))
}

// recompute runs spec in-process with dwarn.Run.
func recompute(spec runReq) (*sim.Result, error) {
	wl, err := dwarn.Workload(spec.Workload.Name)
	if err != nil {
		return nil, err
	}
	return dwarn.Run(dwarn.Options{Policy: spec.Policy.Name, Workload: wl, Seed: spec.Seed,
		WarmupCycles: spec.WarmupCycles, MeasureCycles: spec.MeasureCycles})
}

// checkRecomputed recomputes n service results chosen by the seed and
// counts each disagreement as a failure.
func (b *bench) checkRecomputed(specs []runReq, results []*sim.Result, n int) {
	rng := rand.New(rand.NewPCG(b.seed, 0x636865636b))
	idx := rng.Perm(len(specs))
	checked := 0
	for _, i := range idx {
		if checked == n {
			break
		}
		if results[i] == nil {
			continue
		}
		checked++
		b.op()
		want, err := recompute(specs[i])
		if err != nil {
			b.fail("recompute %s: %v", specKey(specs[i]), err)
			continue
		}
		if bad := comparePinned([]pinnedCell{observed(specs[i], want)}, []pinnedCell{observed(specs[i], results[i])}); len(bad) > 0 {
			b.fail("service result differs from dwarn.Run: %s", bad[0])
		}
	}
	b.notef("recomputed %d sampled results in-process with dwarn.Run", checked)
}

// checkGrid checks a grid run's outputs: the first sweep against the
// pinned file, and sampled cells against dwarn.Run.
func (b *bench) checkGrid(g gridDef, cells []cellOutcome, results []*sim.Result) {
	first := len(g.policies) * len(g.workloads) * g.seedsPerSweep
	var got []pinnedCell
	specs := make([]runReq, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
		if i < first && results[i] != nil {
			got = append(got, observed(c.spec, results[i]))
		}
	}
	b.checkPinned(got)
	n := 3
	if g.measure > 100000 {
		n = 1 // a paper-protocol cell costs most of a second to recompute
	}
	b.checkRecomputed(specs, results, n)
}

// checkSampled recomputes a few cold runs of a run-mix pass.
func (b *bench) checkSampled(lr *loopResult) {
	var specs []runReq
	var results []*sim.Result
	for i, o := range lr.out {
		if lr.reqs[i].kind != kindHit && o.err == nil && o.result != nil {
			s := lr.reqs[i].spec
			s.Baselines = false
			specs = append(specs, s)
			results = append(results, o.result)
		}
	}
	b.checkRecomputed(specs, results, 3)
}

func poolCells(specs []runReq, results []*sim.Result) []pinnedCell {
	out := make([]pinnedCell, len(specs))
	for i, s := range specs {
		out[i] = observed(s, results[i])
	}
	return out
}

// expectedCells lists the cells a workload pins for a seed.
func expectedCells(workload string, seed uint64) []runReq {
	if workload == "run-mix" {
		return newMixGen(seed).pool
	}
	g := grids[workload]
	sw := g.sweep(seed, 0)
	var out []runReq
	// Sweep expansion order: policies outermost, then workloads, then
	// seeds; the comparison is by key, so order only affects the file.
	for _, p := range sw.Policies {
		for _, w := range sw.Workloads {
			for _, s := range sw.Seeds {
				out = append(out, runReq{Policy: p, Workload: w, Seed: s, WarmupCycles: sw.WarmupCycles, MeasureCycles: sw.MeasureCycles})
			}
		}
	}
	return out
}

// writePinned recomputes every pinned file with dwarn.Run.
func writePinned(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, wl := range []string{"paper-cells", "demo-grid", "run-mix"} {
		for _, seed := range pinnedSeeds {
			pf := pinnedFile{Workload: wl, Seed: seed}
			for _, spec := range expectedCells(wl, seed) {
				r, err := recompute(spec)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				pf.Cells = append(pf.Cells, observed(spec, r))
			}
			sort.Slice(pf.Cells, func(i, j int) bool { return pf.Cells[i].key() < pf.Cells[j].key() })
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pf); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, pinnedName(wl, seed)), buf.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
