package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"dwarn/internal/sim"
)

// run-mix: an open loop of POST /v2/runs at a fixed offered rate
// against dwarnd -store (journal + DirStore on), mixing cold runs with
// unique seeds, repeats of earlier specs (cache hits) and runs that ask
// for solo baselines. Every request is timed from when it was due to
// be sent to when its done state was observed by polling
// GET /v2/runs/{id} every pollInterval.
const (
	// mixRate is the fixed offered rate: a quarter of the 70-80/s the
	// mix met on a 2-vCPU host with an idle disk, and about half of what
	// it sustained once its own fsyncs had slowed the shared disk, so
	// the run path is busy but its latency does not ride on queueing.
	mixRate = 20.0
	// poolSize specs are run before the window; hits repeat them.
	poolSize = 16
	// pollInterval is how often an outstanding run's state is polled.
	pollInterval = time.Millisecond
	// latencyLimit is the p90 a search step must stay under to count
	// as met.
	latencyLimit = 250 * time.Millisecond
	// The max_rps search offers mixRate × searchFactor^k for at most
	// searchSteps steps of at least searchStep each. It runs in the
	// traced run-mix run only: near overload every step fsyncs hundreds
	// of results and checkpoints, and the disk debt it leaves would slow
	// the untraced runs after it.
	searchFactor = 1.6
	searchSteps  = 6
	searchStep   = 2 * time.Second
	// runTimeout fails a request not done within it.
	runTimeout = 30 * time.Second
)

var mixPolicies = []string{"icount", "stall", "flush", "dg", "pdg", "dwarn"}
var mixWorkloads = []string{"2-ILP", "2-MIX", "2-MEM"}

const (
	kindCold = "cold"
	kindHit  = "hit"
	kindBase = "baseline"
)

// mixReq is one scheduled request of the open loop.
type mixReq struct {
	due  time.Duration // offset from the loop's start
	kind string
	spec runReq
}

// mixOutcome is what became of one mixReq.
type mixOutcome struct {
	late    time.Duration // actual send - due
	latency time.Duration // done observed - due
	submit  time.Duration // POST round trip
	lag     time.Duration // done observed - server finish time
	result  *sim.Result
	cached  bool
	err     error
}

// schedule returns the due offsets of an open loop at rate requests
// per second over d: evenly spaced, the first due at zero.
func schedule(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// mixBlock is the composition of every ten consecutive requests, in an
// order the seed shuffles per block. Every simulated run makes dwarnd
// -store fsync a result and a checkpoint image of about 270 KB, and a
// baseline run three of each; at mixRate these shares keep a window's
// writes to about 60 MB, which a shared virtual disk absorbs without
// slowing the runs after it.
var mixBlock = [...]string{kindCold, kindCold, kindCold, kindCold, kindBase,
	kindHit, kindHit, kindHit, kindHit, kindHit}

// mixGen draws the mix's requests from the bench seed. Fixed shares per
// block, and simulated runs that rotate through every policy and
// workload, keep a window's simulated work the same from seed to seed;
// the seed changes the programs, the order and which runs repeat.
type mixGen struct {
	seed  uint64
	rng   *rand.Rand
	pool  []runReq
	cold  uint64
	drawn int
	block [len(mixBlock)]string
}

func newMixGen(seed uint64) *mixGen {
	g := &mixGen{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x6d6978))}
	for i := 0; i < poolSize; i++ {
		g.pool = append(g.pool, g.fresh(false))
	}
	return g
}

// fresh returns a run spec with a seed no other request of this run
// uses.
func (g *mixGen) fresh(baselines bool) runReq {
	k := int(g.cold)
	g.cold++
	return runReq{
		Policy:        policyRef{mixPolicies[k%len(mixPolicies)]},
		Workload:      workloadRef{mixWorkloads[k/len(mixPolicies)%len(mixWorkloads)]},
		Seed:          deriveSeed(g.seed, 3, g.cold),
		WarmupCycles:  2000,
		MeasureCycles: 6000,
		Baselines:     baselines,
	}
}

func (g *mixGen) requests(rate float64, d time.Duration) []*mixReq {
	var out []*mixReq
	for _, due := range schedule(rate, d) {
		pos := g.drawn % len(mixBlock)
		if pos == 0 {
			g.block = mixBlock
			g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		}
		g.drawn++
		r := &mixReq{due: due, kind: g.block[pos]}
		switch r.kind {
		case kindCold:
			r.spec = g.fresh(false)
		case kindBase:
			r.spec = g.fresh(true)
		default:
			r.spec = g.pool[g.rng.IntN(len(g.pool))]
		}
		out = append(out, r)
	}
	return out
}

// loopResult is one open-loop pass.
type loopResult struct {
	reqs     []*mixReq
	out      []mixOutcome
	elapsed  time.Duration // first due to last done
	backlog  []int         // due-but-not-done count at each poll tick
	pollMean time.Duration // mean time between two polls of one run
}

// openLoop sends reqs on their schedule over at most nproc connections
// and polls outstanding runs until every request is done or failed.
// When traced, each request carries its own trace id and leaves a span
// from due to done with its POST as a child.
func (b *bench) openLoop(ctx context.Context, base string, reqs []*mixReq, traced bool) *loopResult {
	start := time.Now()
	lr := &loopResult{reqs: reqs, out: make([]mixOutcome, len(reqs))}
	traces := make([]string, len(reqs))
	if traced {
		for i := range reqs {
			traces[i] = b.traceID("run", i)
		}
	}
	dueAt := func(i int) time.Time { return start.Add(reqs[i].due) }

	var mu sync.Mutex
	outstanding := map[int]string{} // request index -> job id
	finished := make([]bool, len(reqs))
	finish := func(i int, now time.Time) {
		finished[i] = true
		lr.out[i].latency = now.Sub(dueAt(i))
	}

	// The buffer holds the whole schedule, so the scheduler never
	// blocks and a stalled sender shows up as lateness.
	jobs := make(chan int, len(reqs))
	go func() {
		defer close(jobs)
		for i := range reqs {
			if d := time.Until(dueAt(i)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			jobs <- i
		}
	}()

	var senders sync.WaitGroup
	for w := 0; w < max(1, b.nproc-1); w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range jobs {
				sent := time.Now()
				o := &lr.out[i]
				o.late = sent.Sub(dueAt(i))
				var v jobView
				rt, err := b.c.postTimed(ctx, base+"/v2/runs", traces[i], reqs[i].spec, &v)
				now := time.Now()
				o.submit = rt
				mu.Lock()
				switch {
				case err != nil:
					o.err = err
					finish(i, now)
				case v.State == "done":
					o.cached = v.Cached
					o.result, o.err = v.simResult()
					finish(i, now)
				case v.State == "failed" || v.State == "canceled":
					o.err = fmt.Errorf("run %s %s: %s", v.ID, v.State, v.Error)
					finish(i, now)
				default:
					outstanding[i] = v.ID
				}
				mu.Unlock()
			}
		}()
	}
	sendersDone := make(chan struct{})
	go func() {
		senders.Wait()
		close(sendersDone)
	}()

	// The poller runs here: one GET per outstanding run per tick.
	var polls int
	lastPoll := map[int]time.Time{}
	var pollGaps time.Duration
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-ctx.Done():
			<-sendersDone
			return lr
		}
		now := time.Now()
		mu.Lock()
		ids := make(map[int]string, len(outstanding))
		for i, id := range outstanding {
			ids[i] = id
		}
		n := 0
		for i := range reqs {
			if !finished[i] && !dueAt(i).After(now) {
				n++
			}
		}
		mu.Unlock()
		lr.backlog = append(lr.backlog, n)
		for i, id := range ids {
			t := time.Now()
			if p, ok := lastPoll[i]; ok {
				pollGaps += t.Sub(p)
				polls++
			}
			lastPoll[i] = t
			var v jobView
			err := b.c.poll(ctx, base+"/v2/runs/"+id, traces[i], &v)
			seen := time.Now()
			mu.Lock()
			o := &lr.out[i]
			switch {
			case err != nil:
				o.err = err
				finish(i, seen)
				delete(outstanding, i)
			case v.State == "done":
				o.result, o.err = v.simResult()
				if v.FinishedAt != nil {
					o.lag = seen.Sub(*v.FinishedAt)
				}
				finish(i, seen)
				delete(outstanding, i)
			case v.State == "failed" || v.State == "canceled":
				o.err = fmt.Errorf("run %s %s: %s", id, v.State, v.Error)
				finish(i, seen)
				delete(outstanding, i)
			case seen.Sub(dueAt(i)) > runTimeout:
				o.err = fmt.Errorf("run %s not done after %s", id, runTimeout)
				finish(i, seen)
				delete(outstanding, i)
			}
			mu.Unlock()
		}
		select {
		case <-sendersDone:
			mu.Lock()
			left := len(outstanding)
			mu.Unlock()
			if left == 0 {
				var last time.Duration
				for i := range reqs {
					last = max(last, reqs[i].due+lr.out[i].latency)
				}
				lr.elapsed = last
				if polls > 0 {
					lr.pollMean = pollGaps / time.Duration(polls)
				}
				if traced {
					for i, o := range lr.out {
						due := dueAt(i)
						root := b.tr.add(traces[i], "run "+reqs[i].kind, "loadgen", 0, due, due.Add(o.latency))
						sent := due.Add(o.late)
						b.tr.add(traces[i], "POST /v2/runs", "service", root, sent, sent.Add(o.submit))
					}
				}
				return lr
			}
		default:
		}
	}
}

// backlogGrows reports whether the due-but-not-done count rose over a
// step: the mean of its last third exceeds the mean of its first third
// by more than half again plus two requests. A step that ends with its
// backlog growing was overloaded, whatever its latency percentiles say.
func backlogGrows(samples []int) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	first, last := mean(samples[:n]), mean(samples[len(samples)-n:])
	return last > first*1.5+2
}

// latencies collects the latency (ms) of the outcomes whose request
// kind is one of kinds and that succeeded.
func (lr *loopResult) latencies(kinds ...string) []float64 {
	var out []float64
	for i, o := range lr.out {
		if o.err != nil {
			continue
		}
		for _, k := range kinds {
			if lr.reqs[i].kind == k {
				out = append(out, ms(o.latency))
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// lateMedian is the run-mix latency median for one request kind: the
// median over one-second buckets of due time of each bucket's median.
// The host's noise comes in bursts of about a second; a median of
// bucket medians rides them out where a pooled median shifts with them.
func lateMedian(lr *loopResult, kind string) float64 {
	dues := make([]time.Duration, 0, len(lr.out))
	vals := make([]float64, 0, len(lr.out))
	for i, o := range lr.out {
		if o.err == nil && lr.reqs[i].kind == kind {
			dues = append(dues, lr.reqs[i].due)
			vals = append(vals, ms(o.latency))
		}
	}
	return bucketMedian(dues, vals, time.Second)
}

// bucketMedian groups vals by due/width and returns the median of the
// per-bucket medians; empty buckets are skipped.
func bucketMedian(dues []time.Duration, vals []float64, width time.Duration) float64 {
	buckets := map[int64][]float64{}
	for i, d := range dues {
		k := int64(d / width)
		buckets[k] = append(buckets[k], vals[i])
	}
	meds := make([]float64, 0, len(buckets))
	for _, xs := range buckets {
		meds = append(meds, Median(xs))
	}
	return Median(meds)
}

// runMix is the run-mix workload: setup, pool, the timed window at
// mixRate, the max_rps search, and the output checks.
func (b *bench) runMix(ctx context.Context) error {
	topo, err := b.setup(ctx, topoStore)
	if err != nil {
		return err
	}
	defer topo.stop()
	g := newMixGen(b.seed)
	pool, err := b.runPool(ctx, topo.base, g.pool)
	if err != nil {
		return err
	}

	b.checkPinned(poolCells(g.pool, pool))
	cpu0, err := topo.cpuSeconds()
	if err != nil {
		return err
	}
	window := b.openLoop(ctx, topo.base, g.requests(mixRate, time.Duration(b.seconds)*time.Second), false)
	cpu1, err := topo.cpuSeconds()
	if err != nil {
		return err
	}
	b.checkLoop(window, pool)
	if err := b.recordRSS(topo); err != nil {
		return err
	}
	cold := window.latencies(kindCold)
	hits := window.latencies(kindHit)
	var completed int
	var uops uint64
	for i, o := range window.out {
		if o.err == nil {
			completed++
			if window.reqs[i].kind != kindHit && o.result != nil {
				uops += committedUops(o.result)
			}
		}
	}
	// The offered rate is fixed, so completions per wall second would
	// only echo mixRate; per second of dwarnd CPU time, a slower engine
	// or service path lowers them.
	secs := cpu1 - cpu0
	if secs <= 0 {
		return fmt.Errorf("dwarnd used no CPU time over the window")
	}
	b.notef("run-mix: dwarnd CPU time over the window %.2f s of %.2f s wall", secs, window.elapsed.Seconds())
	b.metric("cells_per_cpu_s", float64(completed)/secs, completed)
	b.metric("sim_muops_per_cpu_s", float64(uops)/secs/1e6, completed)
	b.figure("run_p50_ms", "ms", lateMedian(window, kindCold), len(cold), "cold runs, median of one-second bucket medians")
	b.p90Figure("run_p90_ms", cold, "cold runs, all samples")
	b.figure("hit_p50_ms", "ms", lateMedian(window, kindHit), len(hits), "repeats, median of one-second bucket medians")
	b.p90Figure("hit_p90_ms", hits, "repeats, all samples")
	b.tail("cold run latency, all samples", cold)
	b.tail("hit latency, all samples", hits)
	b.notef("run-mix: offered %.1f/s for %d s, %d requests (%d cold, %d hits, %d baseline), poll interval %s (mean per-run poll gap %.2f ms)",
		mixRate, b.seconds, len(window.reqs), len(cold), len(hits), len(window.latencies(kindBase)),
		pollInterval, ms(window.pollMean))
	b.tail("baseline run latency", window.latencies(kindBase))
	late := make([]float64, len(window.out))
	for i, o := range window.out {
		late[i] = ms(o.late)
	}
	lp, ok := TailOrMax(late, 0.99)
	b.notef("run-mix: loadgen lateness p99%s %.3f ms (n=%d)", map[bool]string{true: "", false: " (max; too few samples for p99)"}[ok], lp, len(late))

	b.checkSampled(window)
	if err := b.finishTopology(topo); err != nil {
		return err
	}
	return b.finishSetup(ctx, topoStore)
}

// runPool submits the hit pool before the window and waits for every
// run, so in-window repeats are true cache hits.
func (b *bench) runPool(ctx context.Context, base string, specs []runReq) ([]*sim.Result, error) {
	reqs := make([]*mixReq, len(specs))
	for i, s := range specs {
		reqs[i] = &mixReq{due: time.Duration(i) * 5 * time.Millisecond, kind: kindCold, spec: s}
	}
	lr := b.openLoop(ctx, base, reqs, false)
	out := make([]*sim.Result, len(specs))
	for i, o := range lr.out {
		if o.err != nil {
			return nil, fmt.Errorf("pool run %d: %w", i, o.err)
		}
		out[i] = o.result
	}
	return out, nil
}

// checkLoop verifies every outcome of a pass: failures count against
// error_ratio, and every hit must be served from cache with the
// counters of the pool run it repeats.
func (b *bench) checkLoop(lr *loopResult, pool []*sim.Result) {
	digests := map[string]string{}
	g := newMixGen(b.seed)
	for i, s := range g.pool {
		digests[specKey(s)] = pool[i].CounterDigest()
	}
	for i, o := range lr.out {
		r := lr.reqs[i]
		b.op()
		if o.err != nil {
			b.fail("%s run: %v", r.kind, o.err)
			continue
		}
		if o.result == nil {
			b.fail("%s run returned no result", r.kind)
			continue
		}
		if r.kind == kindHit {
			b.op()
			if !o.cached {
				b.fail("repeat of %s was not served from cache", specKey(r.spec))
			} else if d := o.result.CounterDigest(); d != digests[specKey(r.spec)] {
				b.fail("repeat of %s: digest %s, pool run had %s", specKey(r.spec), d, digests[specKey(r.spec)])
			}
		}
	}
}

func specKey(s runReq) string {
	return fmt.Sprintf("%s/%s/%d/%d+%d", s.Policy.Name, s.Workload.Name, s.Seed, s.WarmupCycles, s.MeasureCycles)
}

// searchMaxRPS offers the mix at mixRate and then at rates searchFactor
// apart until a step misses the latency limit, fails a request or grows
// its backlog, and reports the highest rate met. Each step lasts long
// enough for a p90 with ten samples beyond it. The steps send no trace
// ids and record no spans.
//
// Search steps are overload probes: their refusals are the signal
// being searched for, so they are reported per step and in
// service.rejects but not counted against error_ratio.
func (b *bench) searchMaxRPS(ctx context.Context, base string, g *mixGen) {
	best, capped := 0.0, true
	rate := mixRate
	steps := 0
	for step := 0; step < searchSteps; step++ {
		steps++
		d := max(searchStep, time.Duration(float64(11*minBeyond)/rate*float64(time.Second)))
		lr := b.openLoop(ctx, base, g.requests(rate, d), false)
		all := lr.latencies(kindCold, kindHit, kindBase)
		errs := 0
		for _, o := range lr.out {
			if o.err != nil {
				errs++
			}
		}
		p90, ok := Percentile(all, 0.90)
		grew := backlogGrows(lr.backlog)
		met := ok && p90 < ms(latencyLimit) && !grew && errs == 0
		b.notef("run-mix step: offered %.1f/s: p90 %.1f ms (n=%d, supported=%v), backlog grows %v, errors %d -> %s",
			rate, p90, len(all), ok, grew, errs, map[bool]string{true: "met", false: "missed"}[met])
		if !met {
			capped = false
			break
		}
		best = rate
		rate *= searchFactor
	}
	bound := ""
	if capped {
		bound = "; every step was met, so the maximum lies higher"
	}
	b.figure("max_rps", "1/s", best, steps, fmt.Sprintf("highest step with p90 under %s, no errors and no growing backlog%s", latencyLimit, bound))
}
