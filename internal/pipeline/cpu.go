package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"dwarn/internal/bpred"
	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/mem/hierarchy"
	"dwarn/internal/workload"
)

// CPUStats aggregates whole-core counters for a measurement interval.
type CPUStats struct {
	Cycles int64
}

// regBitset tracks physical-register ready bits, one bit per register.
// The hot regReady/setRegReady paths touch a handful of cache lines
// instead of a 384-entry []bool.
type regBitset []uint64

func newRegBitset(n int) regBitset { return make(regBitset, (n+63)/64) }

func (b regBitset) get(p int32) bool { return b[p>>6]&(1<<(uint32(p)&63)) != 0 }
func (b regBitset) set(p int32)      { b[p>>6] |= 1 << (uint32(p) & 63) }
func (b regBitset) clear(p int32)    { b[p>>6] &^= 1 << (uint32(p) & 63) }

// CPU is one simulated SMT core running a fixed set of threads under a
// fetch policy. It is not safe for concurrent use; run one CPU per
// goroutine.
type CPU struct {
	cfg    *config.Processor
	policy FetchPolicy
	mem    *hierarchy.Hierarchy
	bp     *bpred.Predictor

	threads []*thread

	now    int64
	ageCtr uint64
	events eventQueue
	arena  instArena

	// Shared physical register files: free lists and ready bitsets.
	intFree  []int32
	fpFree   []int32
	intReady regBitset
	fpReady  regBitset

	// Shared issue queues. No queue holds its entries: an instruction
	// is "in queue q" while it is stInQueue, and the queues exist as
	// counters plus wakeup-driven ready lists (see issue).
	//   inQ   live occupancy: dispatched and neither issued nor squashed;
	//   occ   what dispatch checks against qCap: inQ as of the start of
	//         this cycle's issue phase plus this cycle's dispatches, so
	//         slots freed by issue open up only the next cycle;
	//   ready the queued instructions whose sources are all ready,
	//         age-sorted, capacity qCap (ready ⊆ queued).
	qCap  [isa.NumQueues]int
	inQ   [isa.NumQueues]int
	occ   [isa.NumQueues]int
	ready [isa.NumQueues][]*DynInst

	// Consumer lists: for each physical register (int registers first,
	// then fp from fpWaitBase), a linked list through waitNodes of the
	// queued instructions waiting on it, woken by setRegReady. Unused
	// nodes form the free list at waitFree; -1 ends every list.
	waitHead   []int32
	waitNodes  []waitNode
	waitFree   int32
	fpWaitBase int32

	// Scratch buffers reused across cycles.
	prioBuf   []int
	replayBuf []isa.Uop

	// dispatchOrder is the front-end thread order for this cycle: the
	// policy's fetch priority with any omitted (gated) threads at the
	// end. The in-order front end is a unit — a thread the policy has
	// deprioritised should not push buffered instructions into the
	// shared queues ahead of preferred threads.
	dispatchOrder []int

	// lastCommitAt backs the livelock detector.
	lastCommitAt int64

	// Observability counters kept outside ThreadStats: ThreadStats
	// feeds the golden counter digests, so telemetry-only counters live
	// here. issued counts instructions launched into execution per
	// thread; gateCycles attributes each cycle's fetch-gate decision
	// class per thread, filled only while gate sampling is enabled
	// (timeline runs) via the policy's ClassifyingPolicy view when it
	// has one.
	issued       []uint64
	gateCycles   [][NumGateClasses]uint64
	gateSampling bool
	classifier   ClassifyingPolicy

	// Stats for the current measurement interval.
	Stats CPUStats
}

// eventHorizon bounds how far ahead of now any event can be scheduled:
// the worst-case load (DTLB miss, L1 miss, L2 miss) plus slack for the
// address-generation cycle and the longest execution latencies. The
// calendar queue's ring is sized from it so overflow stays empty.
func eventHorizon(cfg *config.Processor) int64 {
	h := int64(cfg.TLBMissPenalty) + int64(cfg.DCache.HitLatency) +
		int64(cfg.L1ToL2Latency) + int64(cfg.MemLatency)
	if l := int64(cfg.FPLatency); l > int64(cfg.IntMulLatency) {
		h += l
	} else {
		h += int64(cfg.IntMulLatency)
	}
	return h + 8
}

// New builds a CPU running one thread per uop source under the given
// policy. len(srcs) must not exceed cfg.HardwareContexts. Sources may
// be live synthetic generators or trace replayers — the pipeline sees
// only the workload.Source seam.
func New(cfg *config.Processor, policy FetchPolicy, srcs []workload.Source) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one thread")
	}
	if len(srcs) > cfg.HardwareContexts {
		return nil, fmt.Errorf("pipeline: %d threads exceed %d hardware contexts", len(srcs), cfg.HardwareContexts)
	}
	n := len(srcs)
	c := &CPU{
		cfg:    cfg,
		policy: policy,
		mem:    hierarchy.New(cfg, n),
		bp:     bpred.New(cfg.Bpred, n),
		now:    1,
	}
	c.events.init(eventHorizon(cfg), c.now)
	c.qCap[isa.QInt] = cfg.IntQueueSize
	c.qCap[isa.QFP] = cfg.FPQueueSize
	c.qCap[isa.QLS] = cfg.LSQueueSize
	for q := range c.ready {
		c.ready[q] = make([]*DynInst, 0, c.qCap[q])
	}
	c.fpWaitBase = int32(cfg.PhysIntRegs)
	// Each queued instruction holds at most two live references, so a
	// pool twice that size is at least half free after a sweep.
	c.initWaitPool(4 * (cfg.IntQueueSize + cfg.FPQueueSize + cfg.LSQueueSize))

	// Physical registers: each running context permanently holds its 32
	// architectural mappings; the remainder forms the shared rename pool.
	c.intReady = newRegBitset(cfg.PhysIntRegs)
	c.fpReady = newRegBitset(cfg.PhysFPRegs)
	c.threads = make([]*thread, n)
	for i, src := range srcs {
		t := &thread{id: i, src: src}
		for a := 0; a < isa.NumIntRegs; a++ {
			p := int32(i*isa.NumIntRegs + a)
			t.intMap[a] = p
			c.intReady.set(p)
		}
		for a := 0; a < isa.NumFPRegs; a++ {
			p := int32(i*isa.NumFPRegs + a)
			t.fpMap[a] = p
			c.fpReady.set(p)
		}
		c.threads[i] = t
	}
	for p := int32(n * isa.NumIntRegs); p < int32(cfg.PhysIntRegs); p++ {
		c.intFree = append(c.intFree, p)
	}
	for p := int32(n * isa.NumFPRegs); p < int32(cfg.PhysFPRegs); p++ {
		c.fpFree = append(c.fpFree, p)
	}
	c.issued = make([]uint64, n)
	c.gateCycles = make([][NumGateClasses]uint64, n)

	policy.Attach(c)
	return c, nil
}

// Config returns the machine description.
func (c *CPU) Config() *config.Processor { return c.cfg }

// Mem returns the memory hierarchy (read access for experiments/tests).
func (c *CPU) Mem() *hierarchy.Hierarchy { return c.mem }

// Bpred returns the branch predictor (read access for experiments/tests).
func (c *CPU) Bpred() *bpred.Predictor { return c.bp }

// Policy returns the attached fetch policy.
func (c *CPU) Policy() FetchPolicy { return c.policy }

// NumThreads returns the number of running hardware contexts.
func (c *CPU) NumThreads() int { return len(c.threads) }

// Now returns the current cycle.
func (c *CPU) Now() int64 { return c.now }

// PreIssueCount returns the number of thread t's instructions in the
// front end and issue queues — the ICOUNT priority input.
func (c *CPU) PreIssueCount(t int) int {
	th := c.threads[t]
	return th.feq.len() + th.inQueues
}

// L1DMissInFlight returns thread t's outstanding L1 data-miss count —
// the hardware counter DWarn and DG consult.
func (c *CPU) L1DMissInFlight(t int) int { return c.threads[t].l1MissInFlight }

// ROBOccupancy returns the number of in-flight instructions in thread
// t's reorder buffer.
func (c *CPU) ROBOccupancy(t int) int { return c.threads[t].rob.len() }

// ThreadStats returns a copy of thread t's counters for the current
// measurement interval.
func (c *CPU) ThreadStats(t int) ThreadStats { return c.threads[t].stats }

// IssuedUops returns thread t's instructions launched into execution
// during the current measurement interval. Kept outside ThreadStats so
// the golden counter digests (which hash ThreadStats verbatim) are
// unchanged by telemetry.
func (c *CPU) IssuedUops(t int) uint64 { return c.issued[t] }

// EnableGateSampling turns on per-cycle fetch-gate attribution: from
// now on each cycle charges every thread's GateCycles bucket with the
// policy's decision class. Off by default so runs without timeline
// sampling pay nothing for it.
func (c *CPU) EnableGateSampling() {
	c.gateSampling = true
	c.classifier, _ = c.policy.(ClassifyingPolicy)
}

// GateCycles returns thread t's cycles-per-gate-class counters for the
// current measurement interval (all zero unless EnableGateSampling was
// called).
func (c *CPU) GateCycles(t int) [NumGateClasses]uint64 { return c.gateCycles[t] }

// ResetStats zeroes all measurement counters (pipeline, memory,
// predictor) while preserving microarchitectural state, so measurement
// starts from a warmed-up machine.
func (c *CPU) ResetStats() {
	c.Stats = CPUStats{}
	for _, t := range c.threads {
		t.stats = ThreadStats{}
	}
	for i := range c.issued {
		c.issued[i] = 0
		c.gateCycles[i] = [NumGateClasses]uint64{}
	}
	c.mem.ResetStats()
	for i := range c.bp.Stats {
		c.bp.Stats[i] = bpred.Stats{}
	}
	c.lastCommitAt = c.now
}

func (c *CPU) schedule(at int64, kind evKind, inst *DynInst) {
	c.events.schedule(at, kind, inst)
}

// allocReg pops a free physical register for the given space, returning
// -1 if none is available.
func (c *CPU) allocReg(fp bool) int32 {
	if fp {
		if n := len(c.fpFree); n > 0 {
			p := c.fpFree[n-1]
			c.fpFree = c.fpFree[:n-1]
			return p
		}
		return -1
	}
	if n := len(c.intFree); n > 0 {
		p := c.intFree[n-1]
		c.intFree = c.intFree[:n-1]
		return p
	}
	return -1
}

func (c *CPU) freeReg(fp bool, p int32) {
	if fp {
		c.fpFree = append(c.fpFree, p)
	} else {
		c.intFree = append(c.intFree, p)
	}
}

// FreeIntRegs and FreeFPRegs report rename-pool headroom (observability
// for tests and resource-aware policies).
func (c *CPU) FreeIntRegs() int { return len(c.intFree) }
func (c *CPU) FreeFPRegs() int  { return len(c.fpFree) }

// QueueLen returns the live occupancy of issue queue q: instructions
// dispatched into it and neither issued nor squashed.
func (c *CPU) QueueLen(q isa.Queue) int { return c.inQ[q] }

// usesFPRegs reports which register space an instruction's operands live
// in (the synthetic ISA never mixes spaces within one instruction).
func usesFPRegs(class isa.Class) bool { return class.UsesFP() }

// regReady reports whether physical register p of the given space holds
// a value.
func (c *CPU) regReady(fp bool, p int32) bool {
	if p < 0 {
		return true
	}
	if fp {
		return c.fpReady.get(p)
	}
	return c.intReady.get(p)
}

// setRegReady marks physical register p as holding a value and wakes
// its consumers: each loses one pending source, and those left with
// none join their queue's ready list. The list's nodes return to the
// free list.
func (c *CPU) setRegReady(fp bool, p int32) {
	if p < 0 {
		return
	}
	k := p
	if fp {
		c.fpReady.set(p)
		k += c.fpWaitBase
	} else {
		c.intReady.set(p)
	}
	for i := c.waitHead[k]; i >= 0; {
		w := &c.waitNodes[i]
		if d := w.d; d.gen == w.gen {
			if d.pending--; d.pending == 0 {
				c.markReady(d)
			}
		}
		next := w.next
		w.next = c.waitFree
		c.waitFree = i
		i = next
	}
	c.waitHead[k] = -1
}

// waitNode is one consumer-list entry: a generation-checked reference
// to an instruction waiting on a physical register. A squashed consumer
// is not unlinked: the arena's generation bump at recycling makes its
// reference stale, and wakeup and sweepWaiters skip it.
type waitNode struct {
	d    *DynInst
	gen  uint32
	next int32
}

// initWaitPool gives every physical register an empty consumer list
// and threads all n pool nodes onto the free list.
func (c *CPU) initWaitPool(n int) {
	c.waitHead = make([]int32, c.cfg.PhysIntRegs+c.cfg.PhysFPRegs)
	for k := range c.waitHead {
		c.waitHead[k] = -1
	}
	c.waitNodes = make([]waitNode, n)
	for i := range c.waitNodes {
		c.waitNodes[i].next = int32(i + 1)
	}
	c.waitNodes[n-1].next = -1
	c.waitFree = 0
}

// waitOn records that d reads physical register p. If p has no value
// yet, d gains a pending source and joins p's consumer list.
func (c *CPU) waitOn(fp bool, p int32, d *DynInst) {
	if c.regReady(fp, p) {
		return
	}
	if fp {
		p += c.fpWaitBase
	}
	if c.waitFree < 0 {
		c.sweepWaiters()
	}
	i := c.waitFree
	w := &c.waitNodes[i]
	c.waitFree = w.next
	*w = waitNode{d: d, gen: d.gen, next: c.waitHead[p]}
	c.waitHead[p] = i
	d.pending++
}

// sweepWaiters returns every stale consumer-list node to the free list.
// waitOn calls it when the pool runs dry, which only stale nodes can
// cause: live references never exceed half the pool.
func (c *CPU) sweepWaiters() {
	for k := range c.waitHead {
		link := &c.waitHead[k]
		for i := *link; i >= 0; i = *link {
			w := &c.waitNodes[i]
			if w.d.gen == w.gen {
				link = &w.next
				continue
			}
			*link = w.next
			w.next = c.waitFree
			c.waitFree = i
		}
	}
}

// markReady inserts d, whose sources are now all ready, into its
// queue's age-sorted ready list. Wakeups and dispatches arrive mostly
// youngest-last, so the common case is a plain append.
func (c *CPU) markReady(d *DynInst) {
	rs := append(c.ready[d.queue], d)
	for i := len(rs) - 1; i > 0 && rs[i-1].Age > d.Age; i-- {
		rs[i], rs[i-1] = rs[i-1], rs[i]
	}
	c.ready[d.queue] = rs
}

// FlushAfter squashes every instruction of inst's thread younger than
// inst, queueing the squashed correct-path instructions for re-fetch.
// It implements the FLUSH policy's response action; the offending load
// itself survives. It returns the number of squashed instructions.
func (c *CPU) FlushAfter(inst *DynInst) int {
	if inst.Squashed() {
		return 0
	}
	t := c.threads[inst.Thread]
	n := c.squashYounger(t, inst.Age, true)
	t.stats.FlushSquashed += uint64(n)
	return n
}

// squashYounger removes every instruction of t younger than age from the
// pipeline. When replay is true (policy flush) the squashed correct-path
// uops are queued for re-fetch in program order; when false (branch
// misprediction) they are dropped. Returns the number squashed.
//
// Squashed instructions are recycled into the arena immediately: the
// generation bump invalidates their pending events and consumer-list
// references, and they leave the ready lists before this returns.
func (c *CPU) squashYounger(t *thread, age uint64, replay bool) int {
	wasWP := t.wrongPath
	// A peeked-but-unfetched uop must not leak: push a correct-path one
	// back onto the replay stack (it is younger than everything being
	// squashed, so it is re-fetched after them), drop a wrong-path one.
	t.dropPeek(wasWP)

	count := 0
	// The oldest squashed correct-path branch decides the predictor
	// restore point. Its checkpoint is copied out because the DynInst is
	// recycled before the walk finishes.
	var oldestBranchAge uint64
	var oldestBranchPred bpred.Prediction
	haveBranch := false
	pendingSquashed := false
	replayBuf := c.replayBuf[:0]

	note := func(d *DynInst) {
		count++
		if d.U.Class.IsBranch() && !d.U.WrongPath {
			if !haveBranch || d.Age < oldestBranchAge {
				oldestBranchAge, oldestBranchPred, haveBranch = d.Age, d.Pred, true
			}
		}
		if d.U.Class == isa.Load {
			// Policies tracking this load (miss counters, PDG's
			// predicted-miss count) rebalance here.
			c.policy.OnSquash(d, c.now)
		}
		if replay && !d.U.WrongPath {
			replayBuf = append(replayBuf, d.U)
		}
		if d == t.pendingBranch {
			pendingSquashed = true
		}
		c.arena.put(d)
	}

	// Front-end queue first (all entries are younger than any dispatched
	// instruction, but guard on age anyway); keep survivors in order.
	if n := t.feq.len(); n > 0 {
		kept := 0
		for i := 0; i < n; i++ {
			d := t.feq.at(i)
			if d.Age > age {
				d.state = stSquashed
				note(d)
			} else {
				t.feq.buf[t.feq.head+kept] = d
				kept++
			}
		}
		t.feq.truncate(kept)
	}

	// ROB tail walk: undo renaming youngest-first so the map ends up at
	// its pre-squash state.
	cut := t.rob.len()
	readySquashed := false
	for cut > 0 && t.rob.at(cut-1).Age > age {
		d := t.rob.at(cut - 1)
		cut--
		if d.state == stInQueue && d.pending == 0 {
			readySquashed = true
		}
		c.squashInFlight(t, d)
		note(d)
	}
	t.rob.truncate(cut)
	if readySquashed {
		c.dropSquashedReady()
	}

	// Replay order: squashed uops are older than whatever was already
	// on the stack (including the peeked uop pushed above), so they are
	// fetched first — pushed last, youngest-to-oldest. Correct-path uops
	// of one thread have strictly increasing Seq, which is exactly
	// program order.
	if replay && len(replayBuf) > 0 {
		sortUopsBySeq(replayBuf)
		for i := len(replayBuf) - 1; i >= 0; i-- {
			t.replay = append(t.replay, replayBuf[i])
		}
	}
	c.replayBuf = replayBuf[:0]

	// Restore speculative predictor state to the oldest squashed branch.
	if haveBranch {
		c.bp.Restore(t.id, oldestBranchPred.Before)
	}

	// If the unresolved mispredicted branch died, leave wrong-path mode:
	// fetch resumes from the replay stack / generator.
	if pendingSquashed {
		t.pendingBranch = nil
		t.wrongPath = false
	}
	return count
}

// squashInFlight tears down one dispatched instruction: issue-queue
// slot, rename mapping, physical register, and the thread's in-flight
// miss counter.
func (c *CPU) squashInFlight(t *thread, d *DynInst) {
	if d.state == stInQueue {
		t.inQueues--
		c.inQ[d.queue]--
	}
	if d.U.Class == isa.Load && d.missCounted {
		t.l1MissInFlight--
		d.missCounted = false
	}
	if d.destPhys >= 0 {
		fp := d.fpRegs
		// Restore the previous mapping and recycle the register.
		arch := d.U.Dest
		if fp {
			t.fpMap[arch] = d.prevPhys
		} else {
			t.intMap[arch] = d.prevPhys
		}
		c.freeReg(fp, d.destPhys)
		d.destPhys = -1
	}
	d.state = stSquashed
}

// dropSquashedReady removes squashed instructions from the ready lists,
// keeping the survivors' age order. squashYounger calls it once per
// squash rather than once per instruction.
func (c *CPU) dropSquashedReady() {
	for q, rs := range c.ready {
		kept := rs[:0]
		for _, d := range rs {
			if d.state == stInQueue {
				kept = append(kept, d)
			}
		}
		c.ready[q] = kept
	}
}

// seqSortCutoff is the batch size above which sortUopsBySeq switches
// from insertion sort to the library sort: full-ROB FLUSH squashes on
// 8-thread MEM workloads hand it hundreds of uops, where insertion
// sort's O(n²) worst case dominated squash cost.
const seqSortCutoff = 32

// sortUopsBySeq sorts by dynamic sequence number (program order for
// correct-path uops of a single thread). Small, mostly-ordered batches
// use insertion sort; large flush batches fall back to slices.SortFunc.
// Seq values are unique within a batch, so both produce the same order.
func sortUopsBySeq(us []isa.Uop) {
	if len(us) > seqSortCutoff {
		slices.SortFunc(us, func(a, b isa.Uop) int { return cmp.Compare(a.Seq, b.Seq) })
		return
	}
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j].Seq < us[j-1].Seq; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
}

// DumpState renders a diagnostic snapshot of the pipeline for debugging
// and livelock reports.
func (c *CPU) DumpState() string {
	s := fmt.Sprintf("cycle %d: freeInt=%d freeFP=%d q[int]=%d q[fp]=%d q[ls]=%d ready=%d/%d/%d events=%d\n",
		c.now, len(c.intFree), len(c.fpFree),
		c.inQ[0], c.inQ[1], c.inQ[2], len(c.ready[0]), len(c.ready[1]), len(c.ready[2]), c.events.len())
	for _, t := range c.threads {
		s += fmt.Sprintf("  t%d: feq=%d rob=%d inQ=%d missInFlight=%d wrongPath=%v replay=%d icacheReadyAt=%d redirectAt=%d\n",
			t.id, t.feq.len(), t.rob.len(), t.inQueues, t.l1MissInFlight, t.wrongPath, len(t.replay), t.icacheReadyAt, t.redirectAt)
		if t.rob.len() > 0 {
			d := t.rob.front()
			s += fmt.Sprintf("      robHead: class=%v state=%d age=%d seq=%d wp=%v completeAt=%d pc=%x\n",
				d.U.Class, d.state, d.Age, d.U.Seq, d.U.WrongPath, d.completeAt, d.U.PC)
		}
		if t.feq.len() > 0 {
			d := t.feq.front()
			s += fmt.Sprintf("      feqHead: class=%v state=%d age=%d readyAt=%d\n", d.U.Class, d.state, d.Age, d.frontEndReadyAt)
		}
	}
	return s
}

// CheckInvariants validates the resource-accounting invariants the
// squash/flush/commit machinery must preserve. Tests call it after
// arbitrary run prefixes; a violation indicates a leak (registers,
// queue slots, miss counters) that would silently skew results.
func (c *CPU) CheckInvariants() error {
	// Physical registers: every architecturally mapped register and
	// every in-flight destination must be live exactly once; together
	// with the free lists they must account for the whole file.
	intLive := make(map[int32]string)
	fpLive := make(map[int32]string)
	claim := func(m map[int32]string, p int32, who string) error {
		if p < 0 {
			return nil
		}
		if prev, ok := m[p]; ok {
			return fmt.Errorf("pipeline: phys reg %d claimed by both %s and %s", p, prev, who)
		}
		m[p] = who
		return nil
	}
	for _, t := range c.threads {
		for a, p := range t.intMap {
			if err := claim(intLive, p, fmt.Sprintf("t%d intMap[r%d]", t.id, a)); err != nil {
				return err
			}
		}
		for a, p := range t.fpMap {
			if err := claim(fpLive, p, fmt.Sprintf("t%d fpMap[f%d]", t.id, a)); err != nil {
				return err
			}
		}
		for i := 0; i < t.rob.len(); i++ {
			d := t.rob.at(i)
			if d.destPhys < 0 {
				continue
			}
			m := intLive
			if usesFPRegs(d.U.Class) {
				m = fpLive
			}
			// The current mapping for the dest arch reg is the youngest
			// writer's reg; older in-flight writers hold regs not in
			// any map. Either way the reg must not be free.
			if _, mapped := m[d.destPhys]; !mapped {
				if err := claim(m, d.destPhys, fmt.Sprintf("t%d rob seq %d", t.id, d.U.Seq)); err != nil {
					return err
				}
			}
		}
	}
	for _, p := range c.intFree {
		if who, ok := intLive[p]; ok {
			return fmt.Errorf("pipeline: int reg %d both free and live (%s)", p, who)
		}
		intLive[p] = "free"
	}
	for _, p := range c.fpFree {
		if who, ok := fpLive[p]; ok {
			return fmt.Errorf("pipeline: fp reg %d both free and live (%s)", p, who)
		}
		fpLive[p] = "free"
	}

	// Issue queues. The queued instructions are the stInQueue ROB
	// entries: their count must match the per-queue and per-thread
	// counters, no queue may exceed its capacity, and each ready list
	// must be age-sorted (issue's oldest-first merge depends on it) and
	// hold exactly the queued instructions whose sources are ready.
	var inQ [isa.NumQueues]int
	var wantReady [isa.NumQueues]int
	threadInQ := make([]int, len(c.threads))
	for _, t := range c.threads {
		for i := 0; i < t.rob.len(); i++ {
			d := t.rob.at(i)
			if d.state != stInQueue {
				continue
			}
			inQ[d.queue]++
			threadInQ[t.id]++
			srcsReady := c.regReady(d.fpRegs, d.src1Phys) && c.regReady(d.fpRegs, d.src2Phys)
			if srcsReady != (d.pending == 0) {
				return fmt.Errorf("pipeline: t%d seq %d has pending=%d but sources ready=%v", t.id, d.U.Seq, d.pending, srcsReady)
			}
			if srcsReady {
				wantReady[d.queue]++
			}
		}
	}
	for q := range c.ready {
		if c.inQ[q] != inQ[q] {
			return fmt.Errorf("pipeline: queue %d counter %d but %d instructions queued", q, c.inQ[q], inQ[q])
		}
		if c.inQ[q] > c.qCap[q] {
			return fmt.Errorf("pipeline: queue %d holds %d entries, capacity %d", q, c.inQ[q], c.qCap[q])
		}
		rs := c.ready[q]
		for i, d := range rs {
			if d.state != stInQueue || d.pending != 0 || d.queue != isa.Queue(q) {
				return fmt.Errorf("pipeline: ready list %d entry %d (state %d, pending %d, queue %v) is not a ready queued instruction", q, i, d.state, d.pending, d.queue)
			}
			if i > 0 && d.Age <= rs[i-1].Age {
				return fmt.Errorf("pipeline: ready list %d not age-sorted at %d", q, i)
			}
		}
		// Entries are distinct (strictly increasing ages) ready queued
		// instructions, so equal counts mean equal sets.
		if len(rs) != wantReady[q] {
			return fmt.Errorf("pipeline: ready list %d holds %d entries, %d queued instructions are ready", q, len(rs), wantReady[q])
		}
	}
	// Consumer lists: every queued instruction still waiting on a value
	// is referenced once per unready source; a live reference never
	// points at anything else.
	waits := make(map[*DynInst]int)
	for k, i := range c.waitHead {
		for ; i >= 0; i = c.waitNodes[i].next {
			w := c.waitNodes[i]
			if w.d.gen != w.gen {
				continue
			}
			if w.d.state != stInQueue || w.d.pending == 0 {
				return fmt.Errorf("pipeline: consumer list %d holds a live reference to a non-waiting instruction (state %d)", k, w.d.state)
			}
			waits[w.d]++
		}
	}
	for _, t := range c.threads {
		for i := 0; i < t.rob.len(); i++ {
			if d := t.rob.at(i); d.state == stInQueue && waits[d] != int(d.pending) {
				return fmt.Errorf("pipeline: t%d seq %d has pending=%d but %d consumer-list references", t.id, d.U.Seq, d.pending, waits[d])
			}
		}
	}
	for _, t := range c.threads {
		if t.inQueues != threadInQ[t.id] {
			return fmt.Errorf("pipeline: t%d inQueues=%d but %d of its instructions are queued", t.id, t.inQueues, threadInQ[t.id])
		}
		if t.l1MissInFlight < 0 {
			return fmt.Errorf("pipeline: t%d negative miss counter %d", t.id, t.l1MissInFlight)
		}
		if t.rob.len() > c.cfg.ROBSizePerThread {
			return fmt.Errorf("pipeline: t%d ROB %d exceeds %d", t.id, t.rob.len(), c.cfg.ROBSizePerThread)
		}
		// ROB must be in age order with no squashed entries.
		for i := 1; i < t.rob.len(); i++ {
			if t.rob.at(i).Age <= t.rob.at(i-1).Age {
				return fmt.Errorf("pipeline: t%d ROB out of order at %d", t.id, i)
			}
		}
		for i := 0; i < t.rob.len(); i++ {
			if st := t.rob.at(i).state; st == stSquashed || st == stCommitted {
				return fmt.Errorf("pipeline: t%d ROB holds %v entry", t.id, st)
			}
		}
	}
	return nil
}
