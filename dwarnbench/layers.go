package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/pipeline"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/workload"
)

// The traced run. It gives the per-layer metrics from three sources:
//
//   - the workload's own service traffic, once, with spans around every
//     call and a trace id sent as X-Request-ID;
//   - a fabric probe that runs the same demo cells on one local dwarnd
//     and on a coordinator plus one remote worker;
//   - in-process calls into the exported functions of spec, core,
//     workload, pipeline, sim, exec and journal, with spans around each.
//
// It never calls the checkpoint engine or the service's job manager
// and sets no Checkpoints option. End-to-end metrics come only from
// untraced runs.

// cellShape is one single-cell protocol.
type cellShape struct {
	label           string
	workload        string
	policy          string
	warmup, measure int64
}

var (
	demoCell  = cellShape{"demo", "2-MIX", "dwarn", 2000, 6000}
	paperCell = cellShape{"paper", "4-MIX", "dwarn", 60000, 150000}
)

func (c cellShape) spec(seed uint64) spec.RunSpec {
	return spec.RunSpec{Policy: spec.Policy{Name: c.policy}, Workload: spec.Workload{Name: c.workload},
		Seed: seed, WarmupCycles: c.warmup, MeasureCycles: c.measure}
}

func (b *bench) tracedRun(ctx context.Context) error {
	if err := b.tracedService(ctx); err != nil {
		return err
	}
	if err := b.fabricProbe(ctx); err != nil {
		return err
	}
	if err := b.engineProbes(); err != nil {
		return err
	}
	if err := b.execProbe(ctx); err != nil {
		return err
	}
	if err := b.journalProbe(); err != nil {
		return err
	}
	rej := 0
	for _, n := range b.c.rejectCounts() {
		rej += n
	}
	b.metric("service.rejects", float64(rej), rej)
	return nil
}

// traceID names one traced request.
func (b *bench) traceID(what string, i int) string {
	return fmt.Sprintf("dwarnbench-%s-%d-%s-%d", b.workload, b.seed, what, i)
}

// tracedService runs the workload's traffic once on its own topology
// (one sweep for the grids), then the run-mix loop for five seconds,
// which gives the service.* and loadgen metrics on every workload. On
// run-mix it then searches for max_rps.
func (b *bench) tracedService(ctx context.Context) error {
	kind := topoStore
	if g, ok := grids[b.workload]; ok {
		kind = g.topo
	}
	topo, _, err := b.l.launch(ctx, b.c, kind)
	if err != nil {
		return err
	}
	defer topo.stop()
	if g, ok := grids[b.workload]; ok {
		trace := b.traceID("sweep", 0)
		if _, err := b.runSweep(ctx, topo.base, g.sweep(b.seed, 0), trace, 0); err != nil {
			return err
		}
	}
	mg := newMixGen(b.seed)
	pool, err := b.runPool(ctx, topo.base, mg.pool)
	if err != nil {
		return err
	}
	lr := b.openLoop(ctx, topo.base, mg.requests(mixRate, 5*time.Second), true)
	b.checkLoop(lr, pool)
	var submit, hit, lag, late []float64
	for i, o := range lr.out {
		late = append(late, ms(o.late))
		if o.err != nil {
			continue
		}
		switch lr.reqs[i].kind {
		case kindCold:
			submit = append(submit, ms(o.submit))
			lag = append(lag, ms(o.lag))
		case kindHit:
			hit = append(hit, ms(o.submit))
		}
	}
	b.metric("service.submit_ms", Median(submit), len(submit))
	b.metric("service.hit_ms", Median(hit), len(hit))
	b.metric("service.done_lag_ms", Median(lag), len(lag))
	b.notef("service.done_lag_ms is observed done minus the server's finish time, polling every %s (mean per-run poll gap %.3f ms)", pollInterval, ms(lr.pollMean))
	lp, ok := TailOrMax(late, 0.99)
	if !ok {
		b.notef("loadgen.late_p99_ms: %d samples is too few for p99; reporting the maximum, an upper bound", len(late))
	}
	b.metric("loadgen.late_p99_ms", lp, len(late))
	if b.workload == "run-mix" {
		b.searchMaxRPS(ctx, topo.base, mg)
	}
	return b.finishTopology(topo)
}

// fabricProbe runs the same demo cells without baselines on a local
// dwarnd and on a coordinator with one remote worker, and reports the
// difference of the median cell times (started to done event) and the
// coordinator's requeue count. Both topologies stay up while the probe
// alternates between them for fabricRounds rounds of fresh seeds,
// switching which goes first, so that drift in host speed hits both
// sides alike.
func (b *bench) fabricProbe(ctx context.Context) error {
	const fabricRounds = 4
	g := grids["remote-grid"]
	g.seedsPerSweep = 1
	kinds := []string{topoLocal, topoRemote}
	topos := map[string]*topology{}
	defer func() {
		for _, t := range topos {
			t.stop()
		}
	}()
	for _, kind := range kinds {
		t, _, err := b.l.launch(ctx, b.c, kind)
		if err != nil {
			return err
		}
		topos[kind] = t
	}
	times := map[string][]float64{}
	for r := 0; r < fabricRounds; r++ {
		req := g.sweep(b.seed, 1<<20+r)
		for k := range kinds {
			kind := kinds[(k+r)%len(kinds)]
			so, err := b.runSweep(ctx, topos[kind].base, req, b.traceID("fabric-"+kind, r), 0)
			if err != nil {
				return err
			}
			for _, c := range so.cells {
				times[kind] = append(times[kind], ms(c.cellTime))
			}
		}
	}
	var fs fabricStatus
	if err := b.c.getJSON(ctx, topos[topoRemote].base+"/v2/fabric", "", &fs); err != nil {
		return err
	}
	b.metric("fabric.remote_overhead_ms", Median(times[topoRemote])-Median(times[topoLocal]), len(times[topoRemote]))
	b.metric("fabric.requeues", float64(fs.RequeuesTotal), 1)
	return nil
}

// cellRun is what one hand-assembled cell measured.
type cellRun struct {
	root          int
	wall          time.Duration
	cycleTime     time.Duration // both pipeline.Run spans
	cycles        int64         // warmup + measure
	measureCycles int64
	committed     uint64
	mallocs       uint64 // during the measured cycles
	digest        string // the assembled result's counter digest
}

// budgetCell runs one cell as the sequence of exported calls sim.Run
// makes on its path without checkpoints, with a span around each, so
// the cell's wall time splits into layer self times. sim's cache
// prewarm is unexported, so prewarmCaches replays it through the same
// exported memory-hierarchy calls.
func (b *bench) budgetCell(tr *tracer, c cellShape, seed uint64) (*cellRun, error) {
	trace := b.traceID("cell-"+c.label, int(seed%1000))
	t0 := time.Now()
	out := &cellRun{root: tr.begin(trace, "cell "+c.label, "bench", 0)}
	span := func(name, layer string, f func() error) error {
		id := tr.begin(trace, name, layer, out.root)
		err := f()
		tr.end(id)
		return err
	}
	rs := c.spec(seed)
	var res *spec.Resolved
	if err := span("spec.Resolve", "spec", func() (err error) { res, err = rs.Resolve(nil); return }); err != nil {
		return nil, err
	}
	var pol pipeline.FetchPolicy
	if err := span("core.NewPolicyParams", "core", func() (err error) {
		pol, err = core.NewPolicyParams(res.Options.Policy, res.Options.PolicyParams)
		return
	}); err != nil {
		return nil, err
	}
	wl := res.Options.Workload
	var srcs []workload.Source
	if err := span("workload.Generators", "workload", func() (err error) { srcs, err = wl.Generators(res.Options.Seed); return }); err != nil {
		return nil, err
	}
	cfg := res.Options.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	var cpu *pipeline.CPU
	if err := span("pipeline.New", "pipeline", func() (err error) { cpu, err = pipeline.New(cfg, pol, srcs); return }); err != nil {
		return nil, err
	}
	_ = span("sim prewarm", "sim", func() error { prewarmCaches(cpu, srcs); return nil })
	cycles := func(n int64) func() error {
		return func() error {
			t := time.Now()
			cpu.Run(n)
			out.cycleTime += time.Since(t)
			return nil
		}
	}
	_ = span("pipeline.Run warmup", "pipeline", cycles(c.warmup))
	_ = span("pipeline.ResetStats", "pipeline", func() error { cpu.ResetStats(); return nil })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_ = span("pipeline.Run measure", "pipeline", cycles(c.measure))
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	_ = span("sim result assembly", "sim", func() error {
		r := sim.Result{Workload: wl.Name, Policy: pol.Name(), Machine: cfg.Name, Cycles: cpu.Stats.Cycles,
			Threads: make([]sim.ThreadResult, cpu.NumThreads())}
		for i := range r.Threads {
			st := cpu.ThreadStats(i)
			r.Threads[i] = sim.ThreadResult{Benchmark: wl.Benchmarks[i], IPC: st.IPC(r.Cycles), Pipeline: st,
				Mem: cpu.Mem().Threads[i], Bpred: cpu.Bpred().Stats[i]}
			r.Throughput += r.Threads[i].IPC
		}
		out.committed = committedUops(&r)
		out.digest = r.CounterDigest()
		return nil
	})
	out.measureCycles = cpu.Stats.Cycles
	out.cycles = c.warmup + c.measure
	tr.end(out.root)
	out.wall = time.Since(t0)
	return out, nil
}

// engineProbes measures the engine layers on one demo-protocol and one
// paper-protocol cell, prints their budget tables, and measures the
// tracing overhead on the demo cell.
func (b *bench) engineProbes() error {
	seed := deriveSeed(b.seed, 4, 0)
	runs := map[string]*cellRun{}
	for _, c := range []cellShape{demoCell, paperCell} {
		r, err := b.budgetCell(b.tr, c, seed)
		if err != nil {
			return err
		}
		runs[c.label] = r
		printBudget(os.Stdout, fmt.Sprintf("%s cell (%s %s, %d+%d cycles)", c.label, c.workload, c.policy, c.warmup, c.measure), b.tr.snapshot(), r.root)
	}
	p := runs["paper"]
	nsPerCycle := float64(p.cycleTime.Nanoseconds()) / float64(p.cycles)
	b.metric("pipeline.ns_per_cycle", nsPerCycle, int(p.cycles))
	b.metric("pipeline.allocs_per_cycle", float64(p.mallocs)/float64(p.measureCycles), int(p.measureCycles))
	b.metric("pipeline.uops_per_cycle", float64(p.committed)/float64(p.measureCycles), int(p.measureCycles))

	// Tracing overhead: the demo cell with and without spans,
	// interleaved, alternating which goes first, each after a GC so
	// neither pays for the other's garbage.
	var on, off []float64
	for i := 0; i < 9; i++ {
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 0
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			runtime.GC()
			r, err := b.budgetCell(tr, demoCell, seed)
			if err != nil {
				return err
			}
			if traced {
				on = append(on, ms(r.wall))
			} else {
				off = append(off, ms(r.wall))
			}
		}
	}
	b.metric("trace.overhead_pct", 100*(Median(on)-Median(off))/Median(off), len(on))

	// sim.run_ms: the real entry point on the same cells. sim.fixed_ms
	// is what a demo cell costs beyond its cycles (generator build,
	// prewarm and result assembly), taken from sim.Run alone: the same
	// spec run for one warmup and one measured cycle, which is where
	// the run time extrapolates to at zero cycles. The two are
	// interleaved so that drift in host speed hits both alike. It is
	// reported for the demo cell, where it is comparable to the cycles;
	// a paper cell's fixed part is a few percent of its run.
	fixed := demoCell
	fixed.warmup, fixed.measure = 1, 1
	var walls, fixedWalls []float64
	for i := 0; i < 7; i++ {
		for _, c := range []cellShape{demoCell, fixed} {
			t, r, err := timeSimRun(c, seed)
			if err != nil {
				return err
			}
			if c == demoCell {
				walls = append(walls, t)
				if i == 0 {
					b.checkBudgetCell(runs[c.label], r)
				}
			} else {
				fixedWalls = append(fixedWalls, t)
			}
		}
	}
	b.metric("sim.run_ms.demo", Median(walls), len(walls))
	b.metric("sim.fixed_ms", Median(fixedWalls), len(fixedWalls))
	t, r, err := timeSimRun(paperCell, seed)
	if err != nil {
		return err
	}
	b.checkBudgetCell(p, r)
	b.metric("sim.run_ms.paper", t, 1)

	// Generator build and Next, on the paper cell's workload.
	rs := paperCell.spec(seed)
	res, err := rs.Resolve(nil)
	if err != nil {
		return err
	}
	wl := res.Options.Workload
	var builds []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := wl.Generators(deriveSeed(b.seed, 5, uint64(i))); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t)))
	}
	b.metric("workload.gen_build_ms", Median(builds), len(builds))
	srcs, err := wl.Generators(seed)
	if err != nil {
		return err
	}
	const nexts = 1 << 20
	var per []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		for j := 0; j < nexts; j++ {
			srcs[j%len(srcs)].Next()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/nexts)
	}
	b.metric("workload.next_ns", Median(per), 3*nexts)

	// spec.Resolve on the paper-cells specs.
	var resolves []float64
	g := grids["paper-cells"]
	for i := 0; i < 30; i++ {
		for _, p := range g.policies {
			for _, w := range g.workloads {
				rs := spec.RunSpec{Policy: spec.Policy{Name: p}, Workload: spec.Workload{Name: w}, Seed: seed,
					WarmupCycles: g.warmup, MeasureCycles: g.measure}
				t := time.Now()
				if _, err := rs.Resolve(nil); err != nil {
					return err
				}
				resolves = append(resolves, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	b.metric("spec.resolve_us", Median(resolves), len(resolves))
	return nil
}

// timeSimRun times one sim.Run of cell c, in ms.
func timeSimRun(c cellShape, seed uint64) (float64, *sim.Result, error) {
	rs := c.spec(seed)
	res, err := rs.Resolve(nil)
	if err != nil {
		return 0, nil, err
	}
	t := time.Now()
	r, err := sim.Run(res.Options)
	if err != nil {
		return 0, nil, err
	}
	return ms(time.Since(t)), r, nil
}

// checkBudgetCell fails the run unless the hand-assembled cell counted
// exactly what sim.Run counts for the same spec, which shows that the
// budget describes the cell the program runs.
func (b *bench) checkBudgetCell(c *cellRun, want *sim.Result) {
	b.op()
	if d := want.CounterDigest(); c.digest != d {
		b.fail("budget cell digest %s, sim.Run gives %s", c.digest, d)
	}
}

// prewarmCaches installs each thread's working set into the caches and
// DTLBs the way sim.Run does before its warmup cycles: code, hot and
// mid regions into the L2 and hot regions into the L1D, interleaving
// threads line by line, then mid and hot pages into each thread's DTLB.
func prewarmCaches(cpu *pipeline.CPU, srcs []workload.Source) {
	mem := cpu.Mem()
	fps := make([]workload.Footprint, len(srcs))
	maxLines := 0
	for i, src := range srcs {
		fps[i] = src.Footprint()
		for _, n := range []int{fps[i].CodeBytes, fps[i].HotBytes, fps[i].MidBytes} {
			maxLines = max(maxLines, (n+63)/64)
		}
	}
	for off := 0; off < maxLines*64; off += 64 {
		for t := range fps {
			fp := &fps[t]
			if off < fp.MidBytes {
				mem.L2.Touch(fp.MidBase + uint64(off))
			}
			if off < fp.CodeBytes {
				mem.L2.Touch(fp.CodeBase + uint64(off))
			}
			if off < fp.HotBytes {
				mem.L2.Touch(fp.HotBase + uint64(off))
				mem.L1D.Touch(fp.HotBase + uint64(off))
			}
		}
	}
	page := cpu.Config().PageBytes
	for t := range fps {
		fp := &fps[t]
		for _, r := range [][2]uint64{{fp.MidBase, uint64(fp.MidBytes)}, {fp.HotBase, uint64(fp.HotBytes)}} {
			for off := uint64(0); off < r[1]; off += uint64(page) {
				mem.DTLB[t].Access(r[0] + off)
			}
		}
	}
}

// execProbe runs one seed of the demo grid plus every cell's solo
// baselines through an in-process exec.Executor and reads the cell
// events: queue wait (Execute call to started), cell time (started to
// terminal), busy ratio (cell time over workers x makespan) and the
// share of solo baseline requests served without a simulation.
func (b *bench) execProbe(ctx context.Context) error {
	g := grids["demo-grid"]
	g.seedsPerSweep = 2
	sw := g.sweep(b.seed, 1<<21)
	var cells []*spec.Resolved
	for _, p := range sw.Policies {
		for _, w := range sw.Workloads {
			for _, s := range sw.Seeds {
				rs := spec.RunSpec{Policy: spec.Policy{Name: p.Name}, Workload: spec.Workload{Name: w.Name}, Seed: s,
					WarmupCycles: sw.WarmupCycles, MeasureCycles: sw.MeasureCycles}
				r, err := rs.Resolve(nil)
				if err != nil {
					return err
				}
				cells = append(cells, r)
			}
		}
	}
	nGrid := len(cells)
	for _, c := range cells[:nGrid] {
		for _, bench := range c.Options.Workload.Benchmarks {
			solo := spec.SoloBaseline(c.Spec, bench)
			r, err := solo.Resolve(nil)
			if err != nil {
				return err
			}
			cells = append(cells, r)
		}
	}
	ex := exec.New(exec.Options{Workers: b.nproc, Registry: obs.NewRegistry()})
	var mu sync.Mutex
	started := map[int]time.Time{}
	ended := map[int]time.Time{}
	cached := 0
	t0 := time.Now()
	trace := b.traceID("exec", 0)
	root := b.tr.begin(trace, "exec.Execute", "exec", 0)
	results := ex.Execute(ctx, cells, func(ev exec.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.State {
		case exec.CellStarted:
			started[ev.Index] = now
		case exec.CellCached:
			ended[ev.Index] = now
			if ev.Index >= nGrid {
				cached++
			}
		default:
			ended[ev.Index] = now
		}
	})
	b.tr.end(root)
	makespan := time.Since(t0)
	for _, r := range results {
		b.op()
		if r.Err != nil {
			b.fail("exec probe cell %d: %v", r.Index, r.Err)
		}
	}
	var waits, times []float64
	var busy time.Duration
	for i, s := range started {
		waits = append(waits, ms(s.Sub(t0)))
		times = append(times, ms(ended[i].Sub(s)))
		busy += ended[i].Sub(s)
		b.tr.add(trace, fmt.Sprintf("cell %d", i), "sim", root, s, ended[i])
	}
	b.metric("exec.queue_wait_ms", Median(waits), len(waits))
	b.metric("exec.cell_ms", Median(times), len(times))
	b.metric("exec.busy_ratio", busy.Seconds()/(float64(ex.Workers())*makespan.Seconds()), len(times))
	b.metric("exec.cached_ratio", float64(cached)/float64(len(cells)-nGrid), len(cells)-nGrid)
	return nil
}

// journalProbe appends cell records to a journal in the run directory,
// on the same filesystem as run-mix's -store, and times each Append.
func (b *bench) journalProbe() error {
	path := filepath.Join(b.dir, "journal-probe", "journal.log")
	j, _, err := journal.Open(path)
	if err != nil {
		return err
	}
	trace := b.traceID("journal", 0)
	var us []float64
	for i := 0; i < 200; i++ {
		rec := journal.Record{Type: journal.TypeCell, ID: "sweep-000001",
			Fingerprint: fmt.Sprintf("%064x", deriveSeed(b.seed, 6, uint64(i)))}
		id := b.tr.begin(trace, "journal.Append", "journal", 0)
		t := time.Now()
		err := j.Append(rec)
		d := time.Since(t)
		b.tr.end(id)
		if err != nil {
			j.Close()
			return err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	p50, _ := Percentile(us, 0.5)
	p90, ok := Percentile(us, 0.9)
	if !ok {
		return fmt.Errorf("journal probe: too few samples for p90")
	}
	b.metric("journal.append_us.p50", p50, len(us))
	b.metric("journal.append_us.p90", p90, len(us))
	return nil
}
