package pipeline

import (
	"testing"
	"testing/quick"

	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// icountPolicy is a minimal in-package ICOUNT so pipeline tests do not
// import internal/core (which imports pipeline).
type icountPolicy struct{ cpu *CPU }

func (p *icountPolicy) Name() string                    { return "test-icount" }
func (p *icountPolicy) Attach(c *CPU)                   { p.cpu = c }
func (p *icountPolicy) Tick(int64)                      {}
func (p *icountPolicy) OnFetch(*DynInst, int64)         {}
func (p *icountPolicy) OnLoadAccess(*DynInst, int64)    {}
func (p *icountPolicy) OnL2Miss(*DynInst, int64)        {}
func (p *icountPolicy) OnLoadReturning(*DynInst, int64) {}
func (p *icountPolicy) OnLoadReturn(*DynInst, int64)    {}
func (p *icountPolicy) OnSquash(*DynInst, int64)        {}
func (p *icountPolicy) Reset()                          {}
func (p *icountPolicy) Priority(now int64, dst []int) []int {
	type kv struct{ t, c int }
	var order []kv
	for t := 0; t < p.cpu.NumThreads(); t++ {
		order = append(order, kv{t, p.cpu.PreIssueCount(t)})
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].c < order[i].c {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, o := range order {
		dst = append(dst, o.t)
	}
	return dst
}

// flushEverything is a hostile policy for stress tests: it flushes after
// every missing load it sees.
type flushEverything struct {
	icountPolicy
}

func (p *flushEverything) Name() string { return "test-flusher" }
func (p *flushEverything) OnLoadAccess(d *DynInst, now int64) {
	if d.MemRes.SawMiss() {
		p.cpu.FlushAfter(d)
	}
}

func newCPU(t testing.TB, wlName string, pol FetchPolicy) *CPU {
	t.Helper()
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(config.Baseline(), pol, gens)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestSoloCommitsInstructions(t *testing.T) {
	wl := workload.Workload{Name: "solo", Threads: 1, Benchmarks: []string{"gzip"}}
	gens, _ := wl.Generators(42)
	cpu, err := New(config.Baseline(), &icountPolicy{}, gens)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(30000)
	st := cpu.ThreadStats(0)
	if st.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if ipc := st.IPC(30000); ipc < 0.2 || ipc > 8 {
		t.Fatalf("gzip solo IPC %.3f implausible", ipc)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ThreadStats {
		cpu := newCPU(t, "2-MIX", &icountPolicy{})
		cpu.Run(20000)
		return cpu.ThreadStats(1)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestInvariantsUnderICOUNT(t *testing.T) {
	cpu := newCPU(t, "4-MIX", &icountPolicy{})
	for i := 0; i < 20; i++ {
		cpu.Run(2000)
		if err := cpu.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", cpu.Now(), err)
		}
	}
}

func TestInvariantsUnderHostileFlushing(t *testing.T) {
	cpu := newCPU(t, "4-MEM", &flushEverything{})
	for i := 0; i < 20; i++ {
		cpu.Run(2000)
		if err := cpu.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", cpu.Now(), err)
		}
	}
	var flushed uint64
	for i := 0; i < cpu.NumThreads(); i++ {
		flushed += cpu.ThreadStats(i).FlushSquashed
	}
	if flushed == 0 {
		t.Error("hostile flusher never flushed on a MEM workload")
	}
}

func TestFetchedNeverLessThanCommitted(t *testing.T) {
	cpu := newCPU(t, "2-MEM", &icountPolicy{})
	cpu.Run(30000)
	for i := 0; i < cpu.NumThreads(); i++ {
		st := cpu.ThreadStats(i)
		if st.Committed > st.Fetched {
			t.Errorf("t%d committed %d > fetched %d", i, st.Committed, st.Fetched)
		}
	}
}

func TestResetStatsPreservesState(t *testing.T) {
	cpu := newCPU(t, "2-ILP", &icountPolicy{})
	cpu.Run(20000)
	before := cpu.ThreadStats(0).Committed
	if before == 0 {
		t.Fatal("warmup committed nothing")
	}
	cpu.ResetStats()
	if cpu.ThreadStats(0).Committed != 0 {
		t.Error("stats survived reset")
	}
	cpu.Run(5000)
	if cpu.ThreadStats(0).Committed == 0 {
		t.Error("machine wedged after ResetStats")
	}
}

func TestMissCounterReturnsToZero(t *testing.T) {
	cpu := newCPU(t, "2-MEM", &icountPolicy{})
	cpu.Run(40000)
	// In a quiescent window the in-flight counters must repeatedly
	// return to a small value: track the minimum.
	minSeen := 1 << 30
	for i := 0; i < 3000; i++ {
		cpu.Step()
		if v := cpu.L1DMissInFlight(0); v < minSeen {
			minSeen = v
		}
	}
	if minSeen > 2 {
		t.Errorf("mcf's miss counter never drained below %d (leak?)", minSeen)
	}
}

func TestRejectsTooManyThreads(t *testing.T) {
	cfg := config.Baseline()
	cfg.HardwareContexts = 2
	wl, _ := workload.GetWorkload("4-MIX")
	gens, _ := wl.Generators(42)
	if _, err := New(cfg, &icountPolicy{}, gens); err == nil {
		t.Error("4 threads on 2 contexts accepted")
	}
}

func TestRejectsNoThreads(t *testing.T) {
	if _, err := New(config.Baseline(), &icountPolicy{}, nil); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestRejectsInvalidConfig(t *testing.T) {
	cfg := config.Baseline()
	cfg.FetchWidth = 0
	wl := workload.Workload{Name: "solo", Threads: 1, Benchmarks: []string{"gzip"}}
	gens, _ := wl.Generators(42)
	if _, err := New(cfg, &icountPolicy{}, gens); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSmallAndDeepMachinesRun(t *testing.T) {
	for _, cfg := range []*config.Processor{config.Small(), config.Deep()} {
		wl, _ := workload.GetWorkload("2-MIX")
		gens, _ := wl.Generators(42)
		cpu, err := New(cfg, &icountPolicy{}, gens)
		if err != nil {
			t.Fatal(err)
		}
		cpu.Run(20000)
		if cpu.ThreadStats(0).Committed == 0 && cpu.ThreadStats(1).Committed == 0 {
			t.Errorf("%s machine committed nothing", cfg.Name)
		}
		if err := cpu.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestFlushAfterRepaysFetch(t *testing.T) {
	// After a FlushAfter, the squashed correct-path instructions are
	// re-fetched: total fetched grows beyond the stream position.
	cpu := newCPU(t, "2-MEM", &flushEverything{})
	cpu.Run(30000)
	st := cpu.ThreadStats(0) // mcf
	if st.FlushSquashed == 0 {
		t.Fatal("no flushes on mcf")
	}
	if st.Fetched < st.Committed+st.FlushSquashed/2 {
		t.Errorf("fetched %d seems too low for %d flushed", st.Fetched, st.FlushSquashed)
	}
}

func TestPreIssueCountTracksOccupancy(t *testing.T) {
	cpu := newCPU(t, "4-MIX", &icountPolicy{})
	cpu.Run(10000)
	for i := 0; i < cpu.NumThreads(); i++ {
		if c := cpu.PreIssueCount(i); c < 0 || c > cpu.Config().FetchQueueSize+96 {
			t.Errorf("t%d pre-issue count %d out of range", i, c)
		}
	}
}

func TestQueueOccupancyBounded(t *testing.T) {
	cpu := newCPU(t, "8-MEM", &icountPolicy{})
	cfg := cpu.Config()
	caps := map[isa.Queue]int{isa.QInt: cfg.IntQueueSize, isa.QFP: cfg.FPQueueSize, isa.QLS: cfg.LSQueueSize}
	for i := 0; i < 200; i++ {
		cpu.Run(100)
		total := 0
		for q, capacity := range caps {
			n := cpu.QueueLen(q)
			if n < 0 || n > capacity {
				t.Fatalf("queue %v holds %d, capacity %d", q, n, capacity)
			}
			total += n
		}
		// QueueLen is live occupancy: squashed and issued instructions
		// do not count, so the queues hold exactly the threads'
		// queued instructions.
		queued := 0
		for _, th := range cpu.threads {
			queued += th.inQueues
		}
		if total != queued {
			t.Fatalf("cycle %d: queues report %d entries, threads have %d queued", cpu.Now(), total, queued)
		}
	}
}

// TestSweepWaitersReclaimsStaleNodes drains the consumer-list pool with
// references to one unready register, squashes two of the consumers,
// and registers one more: waitOn must sweep the two stale nodes back
// to the free list, and the wakeup must ready exactly the live
// consumers, oldest first.
func TestSweepWaitersReclaimsStaleNodes(t *testing.T) {
	cpu := newCPU(t, "2-MIX", &icountPolicy{})
	const pool = 4
	cpu.initWaitPool(pool)
	p := cpu.intFree[0]
	cpu.intReady.clear(p)
	consumer := func(age uint64) *DynInst {
		d := cpu.arena.get()
		d.Age, d.state, d.queue = age, stInQueue, isa.QInt
		cpu.waitOn(false, p, d)
		return d
	}
	var ds []*DynInst
	for age := uint64(1); age <= pool; age++ {
		ds = append(ds, consumer(age))
	}
	if cpu.waitFree >= 0 {
		t.Fatal("pool not exhausted")
	}
	cpu.arena.put(ds[1])
	cpu.arena.put(ds[3])
	// The arena hands ds[3] straight back: a recycled instruction whose
	// stale reference is still on the list.
	late := consumer(10)
	if late != ds[3] {
		t.Fatal("arena did not recycle the squashed instruction")
	}
	n := 0
	for i := cpu.waitHead[p]; i >= 0; i = cpu.waitNodes[i].next {
		n++
	}
	if n != 3 {
		t.Fatalf("consumer list holds %d nodes after the sweep, want 3", n)
	}
	cpu.setRegReady(false, p)
	want := []*DynInst{ds[0], ds[2], late}
	got := cpu.ready[isa.QInt]
	if len(got) != len(want) {
		t.Fatalf("ready list holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || got[i].pending != 0 {
			t.Fatalf("ready[%d] = age %d pending %d, want age %d pending 0", i, got[i].Age, got[i].pending, want[i].Age)
		}
	}
	free := 0
	for i := cpu.waitFree; i >= 0; i = cpu.waitNodes[i].next {
		free++
	}
	if free != pool {
		t.Fatalf("%d nodes free after the wakeup, want %d", free, pool)
	}
}

// TestTightConsumerPoolKeepsResults shrinks the consumer-list pool to
// one node above the most live references the queues can hold. On 2-MEM
// under the hostile flusher stale references then fill the pool, so
// waitOn has to sweep it; the counters must match a run with the stock
// pool exactly, and the accounting must stay intact.
func TestTightConsumerPoolKeepsResults(t *testing.T) {
	cfg := config.Baseline()
	tight := 2*(cfg.IntQueueSize+cfg.FPQueueSize+cfg.LSQueueSize) + 1
	run := func(pool int) (*CPU, int) {
		cpu := newCPU(t, "2-MEM", &flushEverything{})
		if pool > 0 {
			cpu.initWaitPool(pool)
		}
		dry := 0
		for cpu.Now() < 20000 {
			cpu.Step()
			if cpu.waitFree < 0 {
				dry++
			}
			if cpu.Now()%1000 == 0 {
				if err := cpu.CheckInvariants(); err != nil {
					t.Fatalf("pool %d, cycle %d: %v", pool, cpu.Now(), err)
				}
			}
		}
		return cpu, dry
	}
	stock, stockDry := run(0)
	small, smallDry := run(tight)
	if stockDry != 0 {
		t.Errorf("stock pool ran dry at the end of %d cycles, want 0", stockDry)
	}
	if smallDry == 0 {
		t.Fatal("tight pool never ran dry: the sweep went untested")
	}
	t.Logf("tight pool of %d nodes ran dry at the end of %d cycles", tight, smallDry)
	for i := 0; i < stock.NumThreads(); i++ {
		if a, b := stock.ThreadStats(i), small.ThreadStats(i); a != b {
			t.Errorf("t%d: stock pool %+v, tight pool %+v", i, a, b)
		}
	}
}

func TestDumpStateRenders(t *testing.T) {
	cpu := newCPU(t, "2-MIX", &icountPolicy{})
	cpu.Run(1000)
	if s := cpu.DumpState(); len(s) < 20 {
		t.Errorf("dump suspiciously short: %q", s)
	}
}

func TestQuickInvariantsAcrossSeedsAndWorkloads(t *testing.T) {
	wls := []string{"2-ILP", "2-MEM", "4-MIX"}
	f := func(seed uint64, pick uint8) bool {
		wl, err := workload.GetWorkload(wls[int(pick)%len(wls)])
		if err != nil {
			return false
		}
		gens, err := wl.Generators(seed%1000 + 1)
		if err != nil {
			return false
		}
		cpu, err := New(config.Baseline(), &icountPolicy{}, gens)
		if err != nil {
			return false
		}
		cpu.Run(4000)
		return cpu.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
