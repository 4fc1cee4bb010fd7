package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dwarn/internal/sim"
)

// gridDef is one sweep-shaped workload.
type gridDef struct {
	policies        []string
	workloads       []string
	seedsPerSweep   int
	warmup, measure int64
	baselines       bool
	topo            string
}

var paperPolicies = []string{"icount", "stall", "flush", "dg", "pdg", "dwarn"}

var grids = map[string]gridDef{
	"paper-cells": {
		policies: []string{"icount", "flush", "dwarn"}, workloads: []string{"2-MIX", "4-MIX", "8-MEM"},
		seedsPerSweep: 1, warmup: 60000, measure: 150000, topo: topoLocal,
	},
	"demo-grid": {
		policies: paperPolicies, workloads: []string{"2-ILP", "2-MIX", "2-MEM"},
		seedsPerSweep: 4, warmup: 2000, measure: 6000, baselines: true, topo: topoLocal,
	},
	"remote-grid": {
		policies: paperPolicies, workloads: []string{"2-ILP", "2-MIX", "2-MEM"},
		seedsPerSweep: 4, warmup: 2000, measure: 6000, topo: topoRemote,
	},
}

// minRunSamples keeps sweeping past the window until the cell latency
// rests on enough cells; minHitSamples does the same for the hit
// re-fetches, which repeat after each sweep until it has
// minHitsPerSweep, so hit timings spread over the window instead of one
// burst at its end.
// rssAfterSweeps is the fixed amount of work after which peak RSS is
// read.
const (
	minRunSamples   = 2 * minBeyond
	minHitSamples   = 11 * minBeyond
	minHitsPerSweep = 30
	rssAfterSweeps  = 2
)

// sweep returns the grid's iter-th sweep; every iteration has fresh
// seeds, so every cell of the timed window is simulated.
func (g gridDef) sweep(seed uint64, iter int) sweepReq {
	r := sweepReq{WarmupCycles: g.warmup, MeasureCycles: g.measure, Baselines: g.baselines}
	for _, p := range g.policies {
		r.Policies = append(r.Policies, policyRef{p})
	}
	for _, w := range g.workloads {
		r.Workloads = append(r.Workloads, workloadRef{w})
	}
	for k := 0; k < g.seedsPerSweep; k++ {
		r.Seeds = append(r.Seeds, deriveSeed(seed, 1, uint64(iter*g.seedsPerSweep+k)))
	}
	return r
}

// cellOutcome is one sweep cell as the client saw it.
type cellOutcome struct {
	spec       runReq
	fp         string
	throughput float64
	latency    time.Duration // sweep POST to the cell's terminal event
	cellTime   time.Duration // started event to terminal event
}

type sweepOutcome struct {
	wall  time.Duration
	cells []cellOutcome
}

// runSweep submits one sweep and follows its SSE stream to the end
// frame. Cells that fail count against error_ratio.
func (b *bench) runSweep(ctx context.Context, base string, req sweepReq, trace string, parent int) (*sweepOutcome, error) {
	t0 := time.Now()
	root := b.tr.begin(trace, "sweep", "bench", parent)
	defer b.tr.end(root)
	post := b.tr.begin(trace, "POST /v2/sweeps", "service", root)
	var acc sweepAccepted
	err := b.c.postJSON(ctx, base+"/v2/sweeps", trace, req, &acc)
	b.tr.end(post)
	accepted := time.Now()
	if err != nil {
		return nil, err
	}
	started := map[int]time.Time{}
	ended := map[int]time.Time{}
	states := map[int]sweepEvent{}
	var end sweepEnd
	gotEnd := false
	err = b.c.stream(ctx, base+"/v2/sweeps/"+acc.ID+"/events", trace, func(event string, data []byte) bool {
		now := time.Now()
		switch event {
		case "cell":
			var ev sweepEvent
			if json.Unmarshal(data, &ev) != nil {
				return true
			}
			if ev.State == "started" {
				started[ev.Index] = now
			} else {
				ended[ev.Index] = now
				states[ev.Index] = ev
			}
		case "end":
			gotEnd = json.Unmarshal(data, &end) == nil
			return false
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("sweep %s events: %w", acc.ID, err)
	}
	if !gotEnd {
		return nil, fmt.Errorf("sweep %s: stream closed without an end frame", acc.ID)
	}
	out := &sweepOutcome{wall: time.Since(t0)}
	for i, c := range end.Cells {
		b.op()
		ev := states[i]
		if c.State != "done" || c.Throughput == nil {
			b.fail("sweep %s cell %d (%s/%s/%d): %s %s", acc.ID, i, c.Policy, c.Workload, c.Seed, c.State, ev.Error)
			continue
		}
		if ev.Throughput == nil || *ev.Throughput != *c.Throughput {
			b.fail("sweep %s cell %d: SSE throughput disagrees with the end frame", acc.ID, i)
		}
		if req.Baselines && c.Hmean == nil {
			b.fail("sweep %s cell %d: baselines requested but no hmean", acc.ID, i)
		}
		co := cellOutcome{
			spec: runReq{Policy: policyRef{c.Policy}, Workload: workloadRef{c.Workload}, Seed: c.Seed,
				WarmupCycles: req.WarmupCycles, MeasureCycles: req.MeasureCycles},
			fp: c.Fingerprint, throughput: *c.Throughput,
			latency: ended[i].Sub(t0),
		}
		if s, ok := started[i]; ok {
			co.cellTime = ended[i].Sub(s)
			b.tr.add(trace, "queued", "exec", root, accepted, s)
			b.tr.add(trace, fmt.Sprintf("cell %d", i), "exec", root, s, ended[i])
		}
		out.cells = append(out.cells, co)
	}
	if end.State != "done" || len(end.Cells) != end.Total || end.Total == 0 {
		b.op()
		b.fail("sweep %s ended %s listing %d of %d cells", acc.ID, end.State, len(end.Cells), end.Total)
	}
	return out, nil
}

// runGrid is the paper-cells, demo-grid and remote-grid workload:
// set-up, an untimed warm-up sweep, then sweeps with fresh seeds until
// the window has passed. After each sweep its cells are re-fetched as
// cache hits and checked, so hit timings spread over the window like
// the sweeps. The gated rates divide the window's cells and simulated
// uops by the dwarnd CPU time its sweeps used, which time stolen by
// other tenants of the host does not inflate. The wall-time figures are
// printed as medians over the window's sweeps: the host's noise comes
// in bursts of about a second, which a median of per-sweep figures
// rides out and a window total does not.
func (b *bench) runGrid(ctx context.Context, g gridDef) error {
	topo, err := b.setup(ctx, g.topo)
	if err != nil {
		return err
	}
	defer topo.stop()
	warm := gridDef{policies: paperPolicies, workloads: []string{"2-MIX"}, seedsPerSweep: 1, warmup: 2000, measure: 6000}.sweep(b.seed, -1)
	if _, err := b.runSweep(ctx, topo.base, warm, "", 0); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}

	var cells []cellOutcome
	var results []*sim.Result
	var rates, p50s, hits, cellTimes []float64
	var uops uint64
	var cpuSecs, wallSecs float64
	begin := time.Now()
	for iter := 0; iter < rssAfterSweeps || time.Since(begin) < time.Duration(b.seconds)*time.Second || len(cells) < minRunSamples; iter++ {
		cpu0, err := topo.cpuSeconds()
		if err != nil {
			return err
		}
		so, err := b.runSweep(ctx, topo.base, g.sweep(b.seed, iter), "", 0)
		if err != nil {
			return err
		}
		cpu1, err := topo.cpuSeconds()
		if err != nil {
			return err
		}
		cpuSecs += cpu1 - cpu0
		if iter == rssAfterSweeps-1 {
			if err := b.recordRSS(topo); err != nil {
				return err
			}
		}
		res, h := b.refetch(ctx, topo.base, so.cells, true)
		for len(so.cells) > 0 && len(h) < minHitsPerSweep {
			_, more := b.refetch(ctx, topo.base, so.cells, false)
			if len(more) == 0 {
				break
			}
			h = append(h, more...)
		}
		var lat []float64
		for i, c := range so.cells {
			lat = append(lat, ms(c.latency))
			if c.cellTime > 0 {
				cellTimes = append(cellTimes, ms(c.cellTime))
			}
			if res[i] != nil {
				uops += committedUops(res[i])
			}
		}
		secs := so.wall.Seconds()
		wallSecs += secs
		rates = append(rates, float64(len(so.cells))/secs)
		p50s = append(p50s, Median(lat))
		hits = append(hits, h...)
		cells = append(cells, so.cells...)
		results = append(results, res...)
	}
	for len(hits) < minHitSamples {
		_, h := b.refetch(ctx, topo.base, cells, false)
		if len(h) == 0 {
			break
		}
		hits = append(hits, h...)
	}

	b.notef("%d sweeps, %d cells; per-sweep cells per wall second %v", len(rates), len(cells), rounded(rates))
	if cpuSecs <= 0 {
		return fmt.Errorf("dwarnd used no CPU time over the sweeps")
	}
	b.notef("dwarnd CPU time over the sweeps: %.2f s", cpuSecs)
	b.metric("cells_per_cpu_s", float64(len(cells))/cpuSecs, len(cells))
	b.metric("sim_muops_per_cpu_s", float64(uops)/cpuSecs/1e6, len(cells))
	b.figure("cells_per_s", "1/s", Median(rates), len(cells), "median of per-sweep cells per wall second")
	b.figure("sim_muops_per_s", "Muop/s", float64(uops)/wallSecs/1e6, len(cells), "simulated uops over the sweeps' wall time")
	b.notef("cell latency, median of per-sweep medians: %.3f ms (n=%d)", Median(p50s), len(cells))
	b.tail("cell latency, sweep POST to done event, all sweeps", latencies(cells))
	b.tail("cell time, started to done event", cellTimes)
	b.tail("cache-hit round trip, POST /v2/runs", hits)
	b.checkGrid(g, cells, results)
	if err := b.finishTopology(topo); err != nil {
		return err
	}
	return b.finishSetup(ctx, g.topo)
}

func latencies(cells []cellOutcome) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = ms(c.latency)
	}
	return out
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*10) / 10
	}
	return out
}

// refetch asks for every cell again through POST /v2/runs, which must
// answer from cache; with verify it also decodes each result and checks
// it against the sweep's fingerprint and throughput. It returns each
// cell's result (nil unless verified) and the hit round trips in ms.
func (b *bench) refetch(ctx context.Context, base string, cells []cellOutcome, verify bool) ([]*sim.Result, []float64) {
	results := make([]*sim.Result, len(cells))
	var hits []float64
	for i, c := range cells {
		b.op()
		var v jobView
		d, err := b.c.postTimed(ctx, base+"/v2/runs", "", c.spec, &v)
		if err != nil {
			b.fail("re-fetch %s: %v", specKey(c.spec), err)
			continue
		}
		if v.State != "done" || !v.Cached {
			b.fail("re-fetch %s: state %s cached %v, want a cache hit", specKey(c.spec), v.State, v.Cached)
			continue
		}
		hits = append(hits, ms(d))
		if !verify {
			continue
		}
		r, err := v.simResult()
		if err != nil {
			b.fail("re-fetch %s: %v", specKey(c.spec), err)
			continue
		}
		if v.Fingerprint != c.fp || r.Throughput != c.throughput {
			b.fail("re-fetch %s: fingerprint/throughput differ from the sweep's", specKey(c.spec))
			continue
		}
		results[i] = r
	}
	return results, hits
}
