package pipeline

import (
	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// ThreadStats aggregates per-thread pipeline behaviour over a
// measurement interval.
type ThreadStats struct {
	// Fetched counts every fetched uop, including wrong-path uops and
	// FLUSH-replayed re-fetches (the paper's Figure 2 denominator).
	Fetched uint64
	// WrongPathFetched counts the wrong-path subset.
	WrongPathFetched uint64
	// Committed counts retired (correct-path) instructions.
	Committed uint64
	// FlushSquashed counts instructions squashed by policy-initiated
	// flushes (the paper's Figure 2 numerator).
	FlushSquashed uint64
	// MispredictSquashed counts instructions squashed on branch
	// misprediction recovery.
	MispredictSquashed uint64
	// Fetch availability accounting: cycles this thread was offered a
	// fetch slot and took it, or could not because of an outstanding
	// I-cache miss, a redirect bubble, or a full fetch queue.
	FetchCycles          uint64
	FetchBlockedICache   uint64
	FetchBlockedRedirect uint64
	FetchBlockedFeqFull  uint64
	// Loads counts committed loads; LoadL1Misses/LoadL2Misses count
	// committed loads whose access missed (per-thread cache behaviour
	// as the policies observed it).
	Loads        uint64
	LoadL1Misses uint64
	LoadL2Misses uint64
}

// IPC returns committed instructions per cycle over cycles.
func (t *ThreadStats) IPC(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(t.Committed) / float64(cycles)
}

// CommittedL1MissRate returns L1 misses per committed load — the
// per-program miss rate the paper's Table 2(a) reports. (The memory
// system's own counters include wrong-path and replayed accesses, which
// real hardware counters would too.)
func (t *ThreadStats) CommittedL1MissRate() float64 {
	if t.Loads == 0 {
		return 0
	}
	return float64(t.LoadL1Misses) / float64(t.Loads)
}

// CommittedL2MissRate returns L2 misses per committed load.
func (t *ThreadStats) CommittedL2MissRate() float64 {
	if t.Loads == 0 {
		return 0
	}
	return float64(t.LoadL2Misses) / float64(t.Loads)
}

// CommittedL1ToL2Ratio returns the fraction of committed loads' L1
// misses that also missed L2.
func (t *ThreadStats) CommittedL1ToL2Ratio() float64 {
	if t.LoadL1Misses == 0 {
		return 0
	}
	return float64(t.LoadL2Misses) / float64(t.LoadL1Misses)
}

// thread is the per-hardware-context pipeline state.
type thread struct {
	id  int
	src workload.Source

	// Fetch-side state: a one-uop lookahead for the current stream,
	// held by value so peeking never allocates.
	peeked    isa.Uop
	hasPeek   bool
	wrongPath bool
	// pendingBranch is the unresolved mispredicted correct-path branch
	// this thread is fetching wrong-path behind, if any.
	pendingBranch *DynInst
	// replay holds correct-path uops squashed by a policy flush, to be
	// re-fetched before consuming the generator again. It is a LIFO
	// stack in reverse fetch order — the next uop to re-fetch is the
	// last element — so both the consume side and the squash side are
	// cheap appends/pops that reuse capacity instead of prepends that
	// reallocate.
	replay []isa.Uop
	// icacheReadyAt blocks fetch until an I-miss fill arrives. The fill
	// is forwarded to the waiting fetch: ifillLine records which line
	// the outstanding fill carries, and the retry consumes it without
	// re-probing the cache (whose copy may have been evicted by a
	// set-colliding fill in the meantime — without forwarding, mutually
	// evicting threads can livelock the fetch engine).
	icacheReadyAt int64
	ifillLine     uint64
	ifillValid    bool
	// redirectAt blocks fetch until a misprediction redirect completes.
	redirectAt int64

	// Front-end queue: fetched uops traversing decode/rename.
	feq instDeque

	// rob is the per-thread reorder buffer in program order.
	rob instDeque

	// Rename map: architectural -> physical register.
	intMap [isa.NumIntRegs]int32
	fpMap  [isa.NumFPRegs]int32

	// inQueues counts this thread's uops currently in issue queues;
	// PreIssueCount (ICOUNT) is len(feq)+inQueues.
	inQueues int

	// l1MissInFlight counts this thread's outstanding L1 data-missing
	// loads (the DWarn/DG hardware counter).
	l1MissInFlight int

	// Stats for the current measurement interval.
	stats ThreadStats
}

// peek returns the next uop to fetch without consuming it.
func (t *thread) peek() *isa.Uop {
	if !t.hasPeek {
		switch {
		case t.wrongPath:
			t.peeked = t.src.NextWrongPath()
		case len(t.replay) > 0:
			t.peeked = t.replay[len(t.replay)-1]
			t.replay = t.replay[:len(t.replay)-1]
		default:
			t.peeked = t.src.Next()
		}
		t.hasPeek = true
	}
	return &t.peeked
}

// consume takes the peeked uop.
func (t *thread) consume() isa.Uop {
	u := *t.peek()
	t.hasPeek = false
	return u
}

// dropPeek discards a peeked uop when the fetch stream changes
// (entering or leaving wrong-path mode). A peeked correct-path
// uop must be preserved, not dropped: it is the youngest un-fetched uop,
// so it goes back on top of the replay stack (re-fetched first — until
// squashYounger pushes the even older squashed uops above it). A peeked
// wrong-path uop is simply discarded.
func (t *thread) dropPeek(wasWrongPath bool) {
	if !t.hasPeek {
		return
	}
	if !wasWrongPath {
		t.replay = append(t.replay, t.peeked)
	}
	t.hasPeek = false
}
