package pipeline

import (
	"fmt"

	"dwarn/internal/isa"
)

// Step advances the machine by one cycle. Phases run in reverse pipeline
// order so same-cycle effects flow naturally: completions wake issue,
// issue vacates queue slots for dispatch, dispatch vacates the front-end
// queue for fetch.
func (c *CPU) Step() {
	now := c.now
	c.processEvents(now)
	c.policy.Tick(now)
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	c.Stats.Cycles++
	c.now = now + 1

	if now-c.lastCommitAt > livelockWindow {
		panic(fmt.Sprintf("pipeline: no instruction committed for %d cycles at cycle %d (policy %s)\n%s",
			livelockWindow, now, c.policy.Name(), c.DumpState()))
	}
}

// livelockWindow bounds how long the core may go without committing
// anything before the simulator declares a modelling bug. The largest
// legitimate gap is a pile-up of TLB misses and memory accesses, well
// under this bound.
const livelockWindow = 100_000

// Run advances the machine n cycles.
func (c *CPU) Run(n int64) {
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// processEvents applies all events scheduled for cycle now, in schedule
// order (the calendar bucket preserves it). An event whose generation
// no longer matches its instruction's is stale — the instruction was
// squashed and recycled — and is dropped.
func (c *CPU) processEvents(now int64) {
	bucket := c.events.bucketFor(now)
	for i := 0; i < len(bucket); i++ {
		ev := bucket[i]
		d := ev.inst
		if ev.gen != d.gen || d.state == stSquashed {
			continue
		}
		switch ev.kind {
		case evComplete:
			c.complete(d, now)
		case evLoadAccess:
			c.loadAccess(d, now)
		case evL2Miss:
			c.policy.OnL2Miss(d, now)
		case evLoadReturning:
			c.policy.OnLoadReturning(d, now)
		case evBranchResolve:
			c.resolveBranch(d, now)
		}
	}
	c.events.advance(now)
}

// complete marks an instruction's result available and wakes dependents.
func (c *CPU) complete(d *DynInst, now int64) {
	d.state = stDone
	c.setRegReady(d.fpRegs, d.destPhys)
	if d.U.Class == isa.Load {
		t := c.threads[d.Thread]
		if d.missCounted {
			t.l1MissInFlight--
			d.missCounted = false
		}
		// Every completing load is reported: policies track hitting
		// loads too (PDG counts predicted-miss loads that in fact hit).
		c.policy.OnLoadReturn(d, now)
	}
}

// loadAccess fires when a load's D-cache access resolves its tag check:
// the L1 and TLB outcomes become architecturally visible and the miss
// counters the policies watch are updated.
func (c *CPU) loadAccess(d *DynInst, now int64) {
	if d.MemRes.SawMiss() {
		t := c.threads[d.Thread]
		t.l1MissInFlight++
		d.missCounted = true
	}
	c.policy.OnLoadAccess(d, now)
}

// resolveBranch executes a branch: trains the predictor and recovers
// from mispredictions by squashing and redirecting fetch.
func (c *CPU) resolveBranch(d *DynInst, now int64) {
	d.state = stDone
	if d.U.WrongPath {
		return
	}
	c.bp.Resolve(d.Thread, &d.U, d.Pred)
	if !d.Pred.Mispredicted {
		return
	}
	t := c.threads[d.Thread]
	n := c.squashYounger(t, d.Age, false)
	t.stats.MispredictSquashed += uint64(n)
	c.bp.Squash(d.Thread, &d.U, d.Pred)
	if t.pendingBranch == d {
		t.pendingBranch = nil
	}
	t.wrongPath = false
	t.redirectAt = now + int64(c.cfg.MispredictRedirect)
}

// commit retires completed instructions in order, up to CommitWidth per
// cycle shared across threads (rotating the starting thread for
// fairness).
func (c *CPU) commit(now int64) {
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	start := int(now) % n
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[(start+i)%n]
		for budget > 0 && t.rob.len() > 0 {
			d := t.rob.front()
			if d.state != stDone {
				break
			}
			c.retire(t, d)
			t.rob.popFront()
			budget--
			c.lastCommitAt = now
		}
	}
}

// retire commits one instruction and recycles it. By commit time every
// event for the instruction has fired (all are scheduled at or before
// completeAt, and completion is what makes it committable) and it left
// the ready list when it issued — so the arena may hand it back to
// fetch immediately.
func (c *CPU) retire(t *thread, d *DynInst) {
	d.state = stCommitted
	if d.destPhys >= 0 && d.prevPhys >= 0 {
		c.freeReg(d.fpRegs, d.prevPhys)
	}
	t.stats.Committed++
	if d.U.Class == isa.Load {
		t.stats.Loads++
		if d.MemRes.L1Miss {
			t.stats.LoadL1Misses++
			if d.MemRes.L2Miss {
				t.stats.LoadL2Misses++
			}
		}
	}
	c.arena.put(d)
}

// issue selects ready instructions oldest-first across the shared
// queues, bounded by issue width and per-class functional unit counts.
//
// Selection is wakeup-driven: completions move an instruction onto its
// queue's age-sorted ready list once its last source is written (see
// setRegReady), so issue never looks at a waiting instruction. It is a
// three-way merge over the ready lists that visits candidates in global
// age order and stops as soon as the issue budget or all units are
// spent. Every ready-list entry can issue, so each queue issues a
// prefix of its list. Readiness cannot change during the phase
// (completions only land in processEvents), so the issued set is the
// oldest ready instructions per class, exactly as a scan of the whole
// queue would find them.
func (c *CPU) issue(now int64) {
	// Slots vacated by this cycle's issue open up for dispatch only
	// next cycle.
	c.occ = c.inQ

	budget := c.cfg.IssueWidth
	units := [isa.NumQueues]int{
		isa.QInt: c.cfg.IntUnits,
		isa.QFP:  c.cfg.FPUnits,
		isa.QLS:  c.cfg.LSUnits,
	}
	var idx [isa.NumQueues]int
	for budget > 0 {
		best := -1
		var bestAge uint64
		for q, rs := range c.ready {
			if i := idx[q]; units[q] > 0 && i < len(rs) && (best < 0 || rs[i].Age < bestAge) {
				best, bestAge = q, rs[i].Age
			}
		}
		if best < 0 {
			break
		}
		c.issueOne(c.ready[best][idx[best]], now)
		idx[best]++
		units[best]--
		budget--
	}
	for q, n := range idx {
		if n > 0 {
			rs := c.ready[q]
			c.ready[q] = rs[:copy(rs, rs[n:])]
		}
	}
}

// issueOne launches one instruction into execution.
func (c *CPU) issueOne(d *DynInst, now int64) {
	d.state = stExecuting
	c.threads[d.Thread].inQueues--
	c.inQ[d.queue]--
	c.issued[d.Thread]++

	switch d.U.Class {
	case isa.IntALU:
		d.completeAt = now + 1
		c.schedule(d.completeAt, evComplete, d)
	case isa.IntMul:
		d.completeAt = now + int64(c.cfg.IntMulLatency)
		c.schedule(d.completeAt, evComplete, d)
	case isa.FPALU, isa.FPMul:
		d.completeAt = now + int64(c.cfg.FPLatency)
		c.schedule(d.completeAt, evComplete, d)
	case isa.CondBranch, isa.Jump, isa.Call, isa.Ret:
		d.completeAt = now + 1
		c.schedule(d.completeAt, evBranchResolve, d)
	case isa.Load:
		// One cycle of address generation, then the D-cache access.
		accessAt := now + 1
		d.MemRes = c.mem.Load(d.Thread, d.U.Mem.Addr, accessAt)
		d.completeAt = d.MemRes.CompleteAt
		c.schedule(accessAt, evLoadAccess, d)
		c.schedule(d.completeAt, evComplete, d)
		if d.MemRes.L2Miss {
			l2At := accessAt + int64(c.cfg.DCache.HitLatency) + int64(c.cfg.L1ToL2Latency)
			c.schedule(l2At, evL2Miss, d)
		}
		if d.MemRes.SawMiss() {
			if ret := d.completeAt - 2; ret > accessAt {
				c.schedule(ret, evLoadReturning, d)
			}
		}
	case isa.Store:
		// Stores update cache/TLB state at the access but retire
		// through a store buffer: the pipeline sees them complete right
		// after address generation.
		accessAt := now + 1
		d.MemRes = c.mem.Store(d.Thread, d.U.Mem.Addr, accessAt)
		d.completeAt = accessAt + 1
		c.schedule(d.completeAt, evComplete, d)
	}
}

// dispatch renames and inserts front-end instructions into the issue
// queues, up to DecodeWidth per cycle, visiting threads in the fetch
// policy's priority order from the previous fetch cycle (falling back
// to round-robin before the first fetch).
//
// A thread whose dispatchOne fails is skipped for the rest of the
// phase: nothing during dispatch can unblock it. Its front-end queue
// only drains, its ROB has not committed, queue occupancy only rises
// and the free lists only shrink.
func (c *CPU) dispatch(now int64) {
	budget := c.cfg.DecodeWidth
	n := len(c.threads)
	order := c.dispatchOrder
	if len(order) != n {
		order = order[:0]
		start := int(now) % n
		for i := 0; i < n; i++ {
			order = append(order, (start+i)%n)
		}
	}
	var blocked uint64
	progress := true
	for budget > 0 && progress {
		progress = false
		for _, tid := range order {
			if budget == 0 {
				break
			}
			if blocked&(1<<tid) != 0 {
				continue
			}
			if c.dispatchOne(c.threads[tid], now) {
				budget--
				progress = true
			} else {
				blocked |= 1 << tid
			}
		}
	}
}

// dispatchOne tries to rename and dispatch t's oldest front-end
// instruction; it reports whether one was dispatched. In-order: the
// first blocked instruction stalls the thread.
func (c *CPU) dispatchOne(t *thread, now int64) bool {
	if t.feq.len() == 0 {
		return false
	}
	d := t.feq.front()
	if d.frontEndReadyAt > now {
		return false
	}
	if t.rob.len() >= c.cfg.ROBSizePerThread {
		return false
	}
	q := d.U.Class.QueueFor()
	if c.occ[q] >= c.qCap[q] {
		return false
	}
	fp := d.fpRegs
	if d.U.HasDest() {
		// Check before popping so a failed allocation leaves no trace.
		if fp && len(c.fpFree) == 0 || !fp && len(c.intFree) == 0 {
			return false
		}
	}

	// Rename: read sources, then allocate the destination.
	d.src1Phys = c.lookupMap(t, fp, d.U.Src1)
	d.src2Phys = c.lookupMap(t, fp, d.U.Src2)
	d.destPhys, d.prevPhys = -1, -1
	if d.U.HasDest() {
		p := c.allocReg(fp)
		arch := d.U.Dest
		if fp {
			d.prevPhys = t.fpMap[arch]
			t.fpMap[arch] = p
			c.fpReady.clear(p)
		} else {
			d.prevPhys = t.intMap[arch]
			t.intMap[arch] = p
			c.intReady.clear(p)
		}
		d.destPhys = p
	}

	d.state = stInQueue
	d.queue = q
	c.waitOn(fp, d.src1Phys, d)
	c.waitOn(fp, d.src2Phys, d)
	if d.pending == 0 {
		c.markReady(d)
	}
	c.inQ[q]++
	c.occ[q]++
	t.inQueues++
	t.rob.push(d)
	t.feq.popFront()
	return true
}

func (c *CPU) lookupMap(t *thread, fp bool, r isa.Reg) int32 {
	if r == isa.NoReg {
		return -1
	}
	if fp {
		return t.fpMap[r]
	}
	return t.intMap[r]
}

// fetch asks the policy for thread priorities and fills the fetch
// bandwidth following the x.y mechanism: up to FetchThreads threads
// supply up to FetchWidth total instructions, each thread fetching
// sequentially until a predicted-taken branch or I-cache line boundary.
func (c *CPU) fetch(now int64) {
	order := c.policy.Priority(now, c.prioBuf[:0])
	c.prioBuf = order[:0]

	// Record the order for next cycle's dispatch, appending any threads
	// the policy omitted (gated) at the tail.
	c.dispatchOrder = c.dispatchOrder[:0]
	seen := 0
	for _, tid := range order {
		c.dispatchOrder = append(c.dispatchOrder, tid)
		seen |= 1 << tid
	}
	for t := 0; t < len(c.threads); t++ {
		if seen&(1<<t) == 0 {
			c.dispatchOrder = append(c.dispatchOrder, t)
		}
	}
	if c.gateSampling {
		c.attributeGates(seen)
	}

	slots := c.cfg.FetchWidth
	threadsUsed := 0
	for _, tid := range order {
		if threadsUsed >= c.cfg.FetchThreads || slots == 0 {
			break
		}
		t := c.threads[tid]
		if t.icacheReadyAt > now {
			t.stats.FetchBlockedICache++
			continue
		}
		if t.redirectAt > now {
			t.stats.FetchBlockedRedirect++
			continue
		}
		if t.feq.len() >= c.cfg.FetchQueueSize {
			t.stats.FetchBlockedFeqFull++
			continue
		}
		threadsUsed++
		t.stats.FetchCycles++
		slots -= c.fetchFrom(t, slots, now)
	}
}

// attributeGates charges this cycle to each thread's fetch-gate
// decision class — the policy's own classification when it exposes
// one, otherwise the structural view of the priority list (listed =
// normal, omitted = gated). Called only while gate sampling is
// enabled; it allocates nothing.
func (c *CPU) attributeGates(seen int) {
	for t := range c.threads {
		cls := GateNormal
		switch {
		case c.classifier != nil:
			cls = c.classifier.GateClass(t)
		case seen&(1<<t) == 0:
			cls = GateGated
		}
		c.gateCycles[t][cls]++
	}
}

// fetchFrom fetches up to budget instructions from t, returning the
// number fetched.
func (c *CPU) fetchFrom(t *thread, budget int, now int64) int {
	first := t.peek()
	lineMask := ^uint64(c.cfg.ICache.LineBytes - 1)
	if t.ifillValid && first.PC&lineMask == t.ifillLine {
		// The outstanding fill carries exactly this line: consume the
		// forwarded data and refresh the cache copy.
		t.ifillValid = false
		c.mem.TouchI(first.PC)
	} else {
		t.ifillValid = false
		fr := c.mem.Fetch(t.id, first.PC, now)
		if fr.Miss {
			t.icacheReadyAt = fr.CompleteAt
			t.ifillLine = first.PC & lineMask
			t.ifillValid = true
			return 0
		}
	}
	lineStart := first.PC & lineMask

	n := 0
	for n < budget && t.feq.len() < c.cfg.FetchQueueSize {
		u := t.peek()
		if u.PC&lineMask != lineStart {
			break
		}
		uop := t.consume()
		d := c.arena.get()
		d.U = uop
		d.Thread = t.id
		d.Age = c.ageCtr
		d.fpRegs = usesFPRegs(uop.Class)
		d.destPhys, d.prevPhys, d.src1Phys, d.src2Phys = -1, -1, -1, -1
		d.frontEndReadyAt = now + int64(c.cfg.FrontEndLatency)
		c.ageCtr++
		t.stats.Fetched++
		if uop.WrongPath {
			t.stats.WrongPathFetched++
		}
		n++
		t.feq.push(d)
		c.policy.OnFetch(d, now)

		if !uop.Class.IsBranch() {
			continue
		}
		// Branch handling: wrong-path branches bypass the predictor and
		// simply steer wrong-path fetch; correct-path branches are
		// predicted, and a misprediction flips the thread into
		// wrong-path mode at the bogus next PC.
		if uop.WrongPath {
			if uop.Branch.Taken {
				break // fetch stops at a taken branch
			}
			continue
		}
		d.Pred = c.bp.Predict(t.id, &d.U)
		if d.Pred.Mispredicted {
			t.pendingBranch = d
			t.wrongPath = true
			t.src.StartWrongPath(uop.Seq, t.src.WrongPathPC(&d.U, d.Pred.Taken))
		} else if d.Pred.Resteer {
			// Decode recomputes the direct target: a short fetch bubble.
			t.redirectAt = now + resteerPenalty
		}
		if d.Pred.Taken {
			break // the front end redirects; no more fetch this cycle
		}
	}
	return n
}

// resteerPenalty is the fetch bubble for a BTB miss on a direct branch
// whose target decode recomputes (two decode stages).
const resteerPenalty = 2
