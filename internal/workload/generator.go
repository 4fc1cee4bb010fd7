package workload

import (
	"fmt"
	"sync"

	"dwarn/internal/isa"
	"dwarn/internal/obs"
	"dwarn/internal/rng"
)

// Virtual address space layout per generator instance. Threads receive
// disjoint bases, so cross-thread interference happens only through
// shared cache capacity and set conflicts (low index bits), as on real
// SMT hardware.
const (
	codeOffset = 0x0000_0000
	hotOffset  = 0x1000_0000
	midOffset  = 0x2000_0000
	farOffset  = 0x4000_0000
	farRegion  = 1 << 30 // far stream wraps after 1 GiB (never, in practice)
	lineBytes  = 64
)

// Generator produces the dynamic instruction stream for one thread: the
// correct path by walking the synthetic CFG, and — on demand — a
// deterministic wrong-path stream for fetches past a mispredicted
// branch.
type Generator struct {
	prof *Profile
	prog *program
	r    *rng.Source
	base uint64

	// Correct-path walker state.
	walk      *walker
	curSlot   int
	seq       uint64
	intWrites uint64
	fpWrites  uint64
	midCursor uint64
	farCursor uint64

	// Region mixture actually used for dynamic accesses.
	farW, midW   float64
	sFarW, sMidW float64
	loadAdj      regionAdjust
	storeAdj     regionAdjust

	// meta is the recordable identity of this stream; wp synthesizes
	// wrong-path episodes from it (separate RNG; never advances the
	// walker). A trace replayer reconstructs the identical synthesizer
	// from the recorded meta alone.
	meta ReplayMeta
	wp   WrongPathSynth
}

// genCore is everything about a generator that is immutable once built
// and deterministic in (prof, seed, base): the static program with its
// assigned data homes, the calibrated region weights and adjustments,
// the replay metadata, and the walker RNG's initial state. Cores are
// the expensive part of generator construction (program synthesis plus
// two 300k-instruction calibration walks), and nothing in them depends
// on the fetch policy, so every sweep cell of a (workload, seed) group
// shares one core; see NewGeneratorShared.
type genCore struct {
	prof *Profile
	base uint64
	prog *program

	farW, midW   float64
	sFarW, sMidW float64
	loadAdj      regionAdjust
	storeAdj     regionAdjust
	meta         ReplayMeta
	walkRNG      uint64
}

// buildCore runs the full deterministic construction for (prof, seed,
// base).
func buildCore(prof *Profile, seed, base uint64) *genCore {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(seed)
	progR := root.Split(1)
	walkR := root.Split(2)
	prog := buildProgram(prof, progR)
	c := &genCore{
		prof:    prof,
		base:    base,
		prog:    prog,
		walkRNG: walkR.State(),
	}
	c.farW = prof.L2MissRate / homeFidelity
	c.midW = (prof.L1MissRate - prof.L2MissRate) / homeFidelity
	if c.farW+c.midW > 1 {
		s := c.farW + c.midW
		c.farW /= s
		c.midW /= s
	}
	c.sFarW = c.farW * prof.StoreMissScale
	c.sMidW = c.midW * prof.StoreMissScale
	c.loadAdj, c.storeAdj = prog.assignHomes(prof, progR, c.farW, c.midW, c.sFarW, c.sMidW)

	starts := make([]int32, len(prog.blocks))
	for i, b := range prog.blocks {
		starts[i] = int32(b.first)
	}
	c.meta = ReplayMeta{
		Benchmark: prof.Name,
		Base:      base,
		LoadFrac:  prof.LoadFrac, StoreFrac: prof.StoreFrac,
		BranchFrac: prof.BranchFrac, IntMulFrac: prof.IntMulFrac, FPFrac: prof.FPFrac,
		FarW: c.farW, MidW: c.midW,
		BlockStarts: starts,
	}
	return c
}

// newFromCore assembles a fresh generator (walker at the entry block,
// cursors zeroed, walker RNG at its initial state) over a — possibly
// shared — immutable core.
func newFromCore(c *genCore) *Generator {
	g := &Generator{
		prof: c.prof,
		prog: c.prog,
		r:    rng.New(0),
		base: c.base,
		farW: c.farW, midW: c.midW,
		sFarW: c.sFarW, sMidW: c.sMidW,
		loadAdj:  c.loadAdj,
		storeAdj: c.storeAdj,
		meta:     c.meta,
	}
	g.r.SetState(c.walkRNG)
	g.walk = newWalker(c.prog)
	g.meta.Footprint = g.Footprint()
	g.meta.StartPC = g.StartPC()
	g.wp = NewWrongPathSynth(&g.meta)
	return g
}

// NewGenerator builds the synthetic benchmark prof at the given address
// base. The same (prof, seed, base) always yields the same stream.
func NewGenerator(prof *Profile, seed, base uint64) *Generator {
	return newFromCore(buildCore(prof, seed, base))
}

// coreCache memoizes built cores for every synthetic run. Keyed by
// profile identity (the registered *Profile pointer, so a re-registered
// benchmark never aliases a stale program), seed, and base. Bounded:
// cores hold the full static program, so the cache keeps the most
// recent handful — enough for the paper's grids, where every cell of a
// policy or threshold sweep shares one (workload, seed) group.
var coreCache struct {
	sync.Mutex
	m     map[coreKey]*coreEntry
	order []coreKey
}

type coreKey struct {
	prof *Profile
	seed uint64
	base uint64
}

// coreEntry is one cached core. The build is single-flight: callers on
// one key wait on once for a single buildCore, which runs outside the
// cache lock so different keys still build in parallel.
type coreEntry struct {
	once sync.Once
	core *genCore
}

const coreCacheMax = 32

// coreBuilds counts buildCore runs through the shared cache — how many
// program calibrations a process actually paid for. A sweep's cells
// differ only in policy, so it should read one per (benchmark, seed,
// base) the sweep touches.
var coreBuilds = obs.Default.Counter("dwarn_workload_core_builds_total",
	"Generator cores built (program synthesis and calibration); runs sharing a (benchmark, seed, address base) reuse one.")

// NewGeneratorShared is NewGenerator through the process-wide core
// cache: the first call for a (prof, seed, base) triple pays for
// program construction and calibration, concurrent callers on the same
// triple wait for that one build, and every later call assembles a
// fresh generator over the shared immutable core. Streams are
// bit-identical to NewGenerator's.
func NewGeneratorShared(prof *Profile, seed, base uint64) *Generator {
	k := coreKey{prof: prof, seed: seed, base: base}
	coreCache.Lock()
	if coreCache.m == nil {
		coreCache.m = make(map[coreKey]*coreEntry)
	}
	e, ok := coreCache.m[k]
	if !ok {
		e = &coreEntry{}
		coreCache.m[k] = e
		coreCache.order = append(coreCache.order, k)
		if len(coreCache.order) > coreCacheMax {
			old := coreCache.order[0]
			coreCache.order = coreCache.order[1:]
			delete(coreCache.m, old)
		}
	}
	coreCache.Unlock()
	e.once.Do(func() {
		e.core = buildCore(prof, seed, base)
		coreBuilds.Inc()
	})
	return newFromCore(e.core)
}

// ReplayMeta implements Source: the metadata a trace must record so a
// replayer reproduces this stream (including wrong paths) byte-exactly.
func (g *Generator) ReplayMeta() ReplayMeta { return g.meta }

// Profile returns the benchmark profile driving this generator.
func (g *Generator) Profile() *Profile { return g.prof }

// StartPC is the first instruction's address.
func (g *Generator) StartPC() uint64 { return g.blockPC(0) }

// blockPC returns the address of the first instruction of block b.
func (g *Generator) blockPC(b int32) uint64 {
	return g.base + codeOffset + uint64(g.prog.blocks[b].first)*4
}

// slotPC returns the address of slot s in block b.
func (g *Generator) slotPC(b, s int) uint64 {
	return g.base + codeOffset + uint64(g.prog.blocks[b].first+s)*4
}

// Next produces the next correct-path uop. The caller must consume the
// stream strictly in fetch order; a fetch policy that squashes and
// re-fetches (FLUSH) must buffer and replay uops itself rather than
// asking the generator to rewind.
func (g *Generator) Next() isa.Uop {
	cur := g.walk.cur
	blk := g.prog.blocks[cur]
	slot := g.curSlot
	st := g.prog.insts[blk.first+slot]

	u := isa.Uop{
		Seq:   g.seq,
		PC:    g.slotPC(int(cur), slot),
		Class: st.class,
	}
	g.seq++
	g.fillOperands(&u)

	switch {
	case st.class.IsMem():
		u.Mem.Addr = g.dataAddr(st.class, st.region)
	case st.class.IsBranch():
		g.resolveBranch(&u, &g.prog.insts[blk.first+slot], blk.first+slot)
		g.curSlot = 0
		return u
	}

	// Advance within the block (every block ends in a terminator, so a
	// non-branch slot is never the last one).
	g.curSlot = slot + 1
	return u
}

// resolveBranch samples the branch outcome, fills u.Branch, and moves
// the walker to the successor block.
func (g *Generator) resolveBranch(u *isa.Uop, st *staticInst, slot int) {
	u.Branch.Taken = true
	switch st.class {
	case isa.CondBranch:
		taken := g.walk.condTaken(st, slot, g.r)
		u.Branch.Taken = taken
		u.Branch.Target = g.blockPC(st.target)
		g.walk.advance(st, taken, g.r)
	case isa.Jump, isa.Call:
		u.Branch.Target = g.blockPC(st.target)
		g.walk.advance(st, true, g.r)
	case isa.Ret:
		tgt, ok := g.walk.retTarget()
		if !ok {
			tgt = g.prog.entryLevel0(g.r)
		}
		u.Branch.Target = g.blockPC(tgt)
		g.walk.advanceTo(tgt)
	}
}

// fillOperands assigns destination and source architectural registers
// using the round-robin-writer / geometric-distance dependency model.
func (g *Generator) fillOperands(u *isa.Uop) {
	u.Dest, u.Src1, u.Src2 = isa.NoReg, isa.NoReg, isa.NoReg
	switch u.Class {
	case isa.IntALU, isa.IntMul:
		u.Src1 = g.intSrc(g.r, g.intWrites)
		if g.r.Bool(g.prof.TwoSrcFrac) {
			u.Src2 = g.intSrc(g.r, g.intWrites)
		}
		u.Dest = roundRobinDest(&g.intWrites)
	case isa.FPALU, isa.FPMul:
		u.Src1 = g.fpSrc(g.r, g.fpWrites)
		if g.r.Bool(g.prof.TwoSrcFrac) {
			u.Src2 = g.fpSrc(g.r, g.fpWrites)
		}
		u.Dest = roundRobinDest(&g.fpWrites)
	case isa.Load:
		u.Src1 = g.intSrc(g.r, g.intWrites)
		u.Dest = roundRobinDest(&g.intWrites)
	case isa.Store:
		u.Src1 = g.intSrc(g.r, g.intWrites) // data
		u.Src2 = g.intSrc(g.r, g.intWrites) // base
	case isa.CondBranch:
		u.Src1 = g.intSrc(g.r, g.intWrites)
	case isa.Ret, isa.Jump, isa.Call:
		// No register operands in the synthetic model.
	}
}

// intSrc picks a source register d writes back, d geometric with mean
// MeanDepDist; writers are round-robin so the register identifies the
// producing instruction. A NoSrcFrac share of reads are ready at rename
// (immediates, globals, long-dead values) — without them the dependence
// graph is far more serial than compiled code.
func (g *Generator) intSrc(r *rng.Source, writes uint64) isa.Reg {
	if r.Bool(g.prof.NoSrcFrac) {
		return isa.NoReg
	}
	d := uint64(1 + r.Geometric(1/g.prof.MeanDepDist))
	if d > 29 {
		d = 29
	}
	if d > writes {
		return isa.Reg(1 + r.Intn(30))
	}
	return isa.Reg(1 + (writes-d)%30)
}

func (g *Generator) fpSrc(r *rng.Source, writes uint64) isa.Reg {
	d := uint64(1 + r.Geometric(1/g.prof.MeanDepDist))
	if d > 29 {
		d = 29
	}
	if d > writes {
		return isa.Reg(1 + r.Intn(30))
	}
	return isa.Reg(1 + (writes-d)%30)
}

// dataAddr produces the effective address for a memory slot with the
// given home region, applying the calibrated per-execution adjustment
// (see regionAdjust in program.go).
func (g *Generator) dataAddr(class isa.Class, home uint8) uint64 {
	adj := &g.loadAdj
	if class == isa.Store {
		adj = &g.storeAdj
	}
	region := regionHot
	switch home {
	case regionFar:
		if g.r.Bool(adj.pFar) {
			region = regionFar
		}
	case regionMid:
		if g.r.Bool(adj.pMid) {
			region = regionMid
		}
	default:
		x := g.r.Float64()
		switch {
		case x < adj.leakFar:
			region = regionFar
		case x < adj.leakFar+adj.leakMid:
			region = regionMid
		}
	}
	switch region {
	case regionFar:
		addr := g.base + farOffset + g.farCursor
		g.farCursor = (g.farCursor + lineBytes) % farRegion
		return addr
	case regionMid:
		addr := g.base + midOffset + g.midCursor
		g.midCursor = (g.midCursor + lineBytes) % uint64(g.prof.MidBytes)
		return addr
	default:
		return g.base + hotOffset + hotOffsetSample(g.r, g.prof.HotBytes)
	}
}

// StartWrongPath (re)seeds the wrong-path stream for a new misprediction
// episode, snapshotting the correct path's writer counters and region
// cursors (static while the episode is active). salt should identify
// the episode (e.g. the branch's sequence number) so replays are
// deterministic; startPC is where the front end wrongly redirected to.
func (g *Generator) StartWrongPath(salt, startPC uint64) {
	g.wp.Start(salt, startPC, WrongPathState{
		IntWrites: g.intWrites,
		FPWrites:  g.fpWrites,
		FarCursor: g.farCursor,
		MidCursor: g.midCursor,
	})
}

// WrongPathPC returns the PC the front end runs off to after
// mispredicting branch u; see WrongPathSynth.PCAfterMispredict.
func (g *Generator) WrongPathPC(u *isa.Uop, predictedTaken bool) uint64 {
	return g.wp.PCAfterMispredict(u, predictedTaken)
}

// NextWrongPath produces the next wrong-path uop; see WrongPathSynth.
func (g *Generator) NextWrongPath() isa.Uop {
	return g.wp.Next()
}

// Footprint describes the generator's memory regions, so a simulator
// can pre-warm caches and TLBs to steady state instead of simulating
// multi-hundred-thousand-instruction cold laps of the mid ring.
type Footprint struct {
	// CodeBase/CodeBytes span the program text.
	CodeBase  uint64
	CodeBytes int
	// HotBase/HotBytes span the L1-resident data region.
	HotBase  uint64
	HotBytes int
	// MidBase/MidBytes span the L2-resident ring.
	MidBase  uint64
	MidBytes int
}

// Footprint returns the thread's memory layout.
func (g *Generator) Footprint() Footprint {
	return Footprint{
		CodeBase:  g.base + codeOffset,
		CodeBytes: len(g.prog.insts) * 4,
		HotBase:   g.base + hotOffset,
		HotBytes:  g.prof.HotBytes,
		MidBase:   g.base + midOffset,
		MidBytes:  g.prof.MidBytes,
	}
}

// DebugStaticStats summarises the static program for diagnostics.
func DebugStaticStats(g *Generator) string {
	var cond, jump, call, ret int
	for _, st := range g.prog.insts {
		switch st.class {
		case isa.CondBranch:
			cond++
		case isa.Jump:
			jump++
		case isa.Call:
			call++
		case isa.Ret:
			ret++
		}
	}
	return fmt.Sprintf("static: insts=%d blocks=%d funcs=%d cond=%d jump=%d call=%d ret=%d",
		len(g.prog.insts), len(g.prog.blocks), len(g.prog.entries), cond, jump, call, ret)
}
