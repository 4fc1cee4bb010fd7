package pipeline

import "fmt"

// CoreState is the serializable scalar state of a CPU at a quiescent
// point (no instructions anywhere in the pipeline). The interesting
// machine state at such a point lives in the memory hierarchy and the
// predictor, which snapshot themselves; what remains core-side is the
// clock and the age/commit bookkeeping derived from it.
type CoreState struct {
	Now          int64
	AgeCtr       uint64
	LastCommitAt int64
	NumThreads   int
}

// Quiescent verifies the pipeline holds no in-flight work: empty
// front-end queues, ROBs, issue queues and event calendar, no wrong-path
// fetch, no pending replay, no outstanding miss accounting. Snapshots
// are only taken (and restored) at quiescent points — serializing
// in-flight DynInsts would drag the whole arena, event queue, and
// rename state into the format for no benefit, since the only snapshot
// site (post-prewarm, pre-warmup) is quiescent by construction.
func (c *CPU) Quiescent() error {
	if n := c.events.len(); n != 0 {
		return fmt.Errorf("pipeline: %d events in flight", n)
	}
	for q, n := range c.inQ {
		if n != 0 {
			return fmt.Errorf("pipeline: issue queue %d holds %d entries", q, n)
		}
	}
	for _, t := range c.threads {
		switch {
		case t.feq.len() != 0:
			return fmt.Errorf("pipeline: t%d front-end queue holds %d entries", t.id, t.feq.len())
		case t.rob.len() != 0:
			return fmt.Errorf("pipeline: t%d ROB holds %d entries", t.id, t.rob.len())
		case t.inQueues != 0:
			return fmt.Errorf("pipeline: t%d has %d instructions in issue queues", t.id, t.inQueues)
		case t.hasPeek:
			return fmt.Errorf("pipeline: t%d holds a peeked uop", t.id)
		case t.wrongPath || t.pendingBranch != nil:
			return fmt.Errorf("pipeline: t%d is on the wrong path", t.id)
		case len(t.replay) != 0:
			return fmt.Errorf("pipeline: t%d has %d replay uops", t.id, len(t.replay))
		case t.l1MissInFlight != 0:
			return fmt.Errorf("pipeline: t%d has %d L1 misses in flight", t.id, t.l1MissInFlight)
		case t.icacheReadyAt > c.now || t.redirectAt > c.now:
			return fmt.Errorf("pipeline: t%d front end is stalled", t.id)
		}
	}
	return nil
}

// CoreState snapshots the core's scalar state. It fails unless the
// pipeline is quiescent; see Quiescent.
func (c *CPU) CoreState() (CoreState, error) {
	if err := c.Quiescent(); err != nil {
		return CoreState{}, err
	}
	return CoreState{
		Now:          c.now,
		AgeCtr:       c.ageCtr,
		LastCommitAt: c.lastCommitAt,
		NumThreads:   len(c.threads),
	}, nil
}

// SetCoreState overwrites the core's scalar state from a snapshot taken
// on an identically shaped, quiescent CPU. The target must itself be
// quiescent (freshly built, typically): register files, rename maps and
// queues are deterministic functions of the configuration at a quiescent
// point, so only the scalars need restoring.
func (c *CPU) SetCoreState(st CoreState) error {
	if st.NumThreads != len(c.threads) {
		return fmt.Errorf("pipeline: snapshot has %d threads, CPU has %d", st.NumThreads, len(c.threads))
	}
	if err := c.Quiescent(); err != nil {
		return fmt.Errorf("pipeline: restore target not quiescent: %w", err)
	}
	c.now = st.Now
	c.ageCtr = st.AgeCtr
	c.lastCommitAt = st.LastCommitAt
	c.events.init(eventHorizon(c.cfg), c.now)
	return nil
}
