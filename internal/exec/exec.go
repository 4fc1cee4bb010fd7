// Package exec is the one sweep execution layer under every frontend:
// it takes resolved spec cells (a single run or a whole expanded grid),
// fans them out across a bounded worker pool, memoizes each cell
// through a content-addressed Store keyed by sim.Fingerprint, streams
// per-cell completion events, and assembles results deterministically
// in input order regardless of completion order.
//
// The CLI's -spec sweeps, the dwarnd service's sweep jobs, and the
// experiment runner all execute through the same Executor, so they
// share one set of semantics: identical cells (within a batch, across
// batches, or across concurrent sweeps on a shared executor) are
// simulated once; one failing cell is recorded in its slot and never
// aborts the rest; cancelling the context stops running cells at their
// next cooperative check and marks the remainder canceled; and a sweep
// re-executed over a warm Store — including a DirStore surviving a
// killed process — skips everything already stored.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// RunFunc computes one resolved cell. The default runs the simulator
// (sim.RunContext); tests substitute failures and delays.
type RunFunc func(ctx context.Context, res *spec.Resolved) (*sim.Result, error)

// Dispatcher executes leader cells through an external execution
// fabric instead of the executor's own worker pool. The executor still
// owns memoization, single-flight, events, and store writes — a
// dispatcher only answers "run this one cell somewhere and give me the
// result". internal/fabric's Coordinator implements it by queueing the
// cell for lease: local in-process workers and remote worker processes
// drain that one queue, so a fingerprint in flight anywhere in the
// fleet is never simulated twice (the executor's single-flight
// guarantees at most one Dispatch per fingerprint at a time).
//
// started must be invoked (at most once) when the cell begins paying
// for its simulation — for the fabric, when its first lease is granted
// — so progress consumers see the started→terminal transition they
// would see from the local pool. ctx carries the cell's trace ID and
// cancellation: a Dispatch must return promptly with ctx.Err() once
// the context is done.
type Dispatcher interface {
	Dispatch(ctx context.Context, res *spec.Resolved, started func()) (*sim.Result, error)
}

// Options configures an Executor.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Store memoizes results across Execute calls (nil = fresh MemStore).
	Store Store
	// Run computes a cell (nil = sim.RunContext). Test seam.
	Run RunFunc
	// Dispatcher, when set, executes leader cells through an external
	// fabric (local + remote workers draining one queue) instead of
	// this executor's own pool; Workers then bounds nothing here — the
	// fabric owns concurrency. Memoization, single-flight, events, and
	// store writes stay with the executor either way.
	Dispatcher Dispatcher
	// Registry receives the executor's metrics (nil = obs.Default):
	// store hit/miss/put and single-flight dedup counters, terminal
	// cells by state, per-policy cell wall-time histograms, and
	// worker-pool utilization. See DESIGN.md §Observability.
	Registry *obs.Registry
	// Logger receives per-cell debug lines (nil = discard). Each line
	// carries the request-scoped trace ID from the Execute context and
	// the cell's span (a fingerprint prefix), so one X-Request-ID can
	// be followed from the HTTP access log through the worker pool into
	// the simulator's own run logs.
	Logger *obs.Logger
}

// Cell event states, in the order a cell can report them. Every cell
// emits exactly one terminal event (done, cached, failed, or canceled);
// cells that pay for a simulation emit started first.
const (
	CellStarted  = "started"
	CellDone     = "done"
	CellCached   = "cached"
	CellFailed   = "failed"
	CellCanceled = "canceled"
)

// Event is one per-cell progress notification. Index is the cell's
// position in the Execute input; Completed counts terminal cells so far
// (including this one, when terminal) out of Total. Result is set on
// done and cached events so progress consumers (the service's sweep
// status and SSE stream) need no store round trip.
type Event struct {
	Index       int
	Fingerprint string
	State       string
	Result      *sim.Result
	Err         error
	Completed   int
	Total       int
}

// Terminal reports whether the event finishes its cell.
func (e Event) Terminal() bool { return e.State != CellStarted }

// CellResult is one assembled slot of an Execute call, in input order.
type CellResult struct {
	// Index is the cell's position in the input.
	Index int
	// Fingerprint is the cell's content-addressed identity.
	Fingerprint string
	// Spec is the cell's canonical spec.
	Spec spec.RunSpec
	// Result is the finished simulation; nil when Err is set.
	Result *sim.Result
	// Cached reports that this cell did not pay for its simulation: the
	// result came from the Store or from a concurrent identical cell.
	Cached bool
	// Err is the cell's failure (or context error), recorded in place;
	// other cells run to completion regardless.
	Err error
}

// FirstError returns the first cell error in input order, or nil.
func FirstError(results []CellResult) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// flight is one in-progress simulation; duplicate cells and concurrent
// Execute calls with the same fingerprint wait on done and share the
// outcome.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// Executor runs cells over a bounded worker pool with single-flight
// memoization. One Executor may serve many concurrent Execute calls —
// the dwarnd service runs every sweep through one shared Executor so N
// concurrent sweeps compete for the same bounded pool instead of
// multiplying it.
type Executor struct {
	workers int
	store   Store
	run     RunFunc
	disp    Dispatcher
	sem     chan struct{}
	met     *metrics
	log     *obs.Logger

	mu       sync.Mutex
	inflight map[string]*flight
	settled  uint64 // flights settled so far; guarded by mu
}

// New builds an Executor.
func New(opts Options) *Executor {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	if opts.Run == nil {
		opts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return sim.RunContext(ctx, res.Options)
		}
	}
	met := newMetrics(opts.Registry, opts.Workers)
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	return &Executor{
		workers: opts.Workers,
		disp:    opts.Dispatcher,
		log:     opts.Logger,
		// Every store access — the executor's own memoization and
		// callers going through Store(), like the service's submit-time
		// precheck — counts into the hit/miss/put series.
		store:    countingStore{inner: opts.Store, m: met},
		run:      opts.Run,
		sem:      make(chan struct{}, opts.Workers),
		met:      met,
		inflight: make(map[string]*flight),
	}
}

// Store returns the executor's result store.
func (e *Executor) Store() Store { return e.store }

// Workers returns the pool bound.
func (e *Executor) Workers() int { return e.workers }

// Execute completes every cell and returns the assembled results in
// input order. It never fails as a whole: per-cell errors (including
// ctx cancellation, which stops running cells cooperatively and marks
// waiting ones canceled) land in their slots; use FirstError for
// callers that treat any failure as fatal. onEvent, when non-nil, is
// called serially (one goroutine's event at a time, never concurrently)
// with per-cell progress.
func (e *Executor) Execute(ctx context.Context, cells []*spec.Resolved, onEvent func(Event)) []CellResult {
	out := make([]CellResult, len(cells))
	batchStart := time.Now()

	var evMu sync.Mutex
	completed := 0
	emit := func(ev Event) {
		evMu.Lock()
		defer evMu.Unlock()
		if ev.Terminal() {
			completed++
			e.met.cellTerminal(ev.State)
		}
		ev.Completed = completed
		ev.Total = len(cells)
		if onEvent != nil {
			onEvent(ev)
		}
	}

	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c *spec.Resolved) {
			defer wg.Done()
			fp := c.Fingerprint
			started := func() {
				emit(Event{Index: i, Fingerprint: fp, State: CellStarted})
			}
			res, cached, err := e.cell(ctx, c, started)
			out[i] = CellResult{
				Index:       i,
				Fingerprint: fp,
				Spec:        c.Spec,
				Result:      res,
				Cached:      cached,
				Err:         err,
			}
			// Canceled means the cell's error IS a context error; a cell
			// that failed with a genuine simulation error reports failed
			// even when the sweep was canceled moments later — masking a
			// real failure as "canceled" would hide it from the caller.
			state := CellDone
			switch {
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				state = CellCanceled
			case err != nil:
				state = CellFailed
			case cached:
				state = CellCached
			}
			emit(Event{Index: i, Fingerprint: fp, State: state, Result: res, Err: err})
		}(i, c)
	}
	wg.Wait()
	e.met.batchRate(len(cells), time.Since(batchStart))
	return out
}

// cell computes one fingerprint with store memoization and
// single-flight dedup. cached reports that this caller did not pay for
// the simulation. If a leader fails, waiters whose own context is still
// live retry as leader rather than inheriting the failure, so one
// cancelled sweep cannot poison an identical healthy one.
func (e *Executor) cell(ctx context.Context, c *spec.Resolved, started func()) (res *sim.Result, cached bool, err error) {
	fp := c.Fingerprint
	for {
		e.mu.Lock()
		seen := e.settled
		e.mu.Unlock()
		if r, ok := e.store.Get(fp); ok {
			return r, true, nil
		}
		e.mu.Lock()
		if f, ok := e.inflight[fp]; ok {
			e.mu.Unlock()
			e.met.dedup.Inc()
			select {
			case <-f.done:
				if f.err == nil {
					return f.res, true, nil
				}
				continue // leader failed; retry as leader
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if e.settled != seen {
			// A flight settled after the store lookup. If it was this
			// fingerprint's, its result is in the store now; look again
			// rather than simulate the cell twice.
			e.mu.Unlock()
			continue
		}
		f := &flight{done: make(chan struct{})}
		e.inflight[fp] = f
		e.mu.Unlock()

		// Leader: execute the cell — through the dispatcher's fabric
		// when one is wired, else on the local pool.
		f.res, f.err = e.lead(ctx, c, started)
		if f.err == nil {
			e.store.Put(fp, f.res)
		}
		e.settle(fp, f)
		return f.res, false, f.err
	}
}

// lead executes one leader cell. The cell's span is its fingerprint
// prefix: short enough to read in a log line, unique enough to match a
// cell within a sweep. The span rides the context into the run, so
// sim's own "sim run" line carries the same trace/span pair as the
// worker's lines here — local pool and fabric alike.
func (e *Executor) lead(ctx context.Context, c *spec.Resolved, started func()) (*sim.Result, error) {
	fp := c.Fingerprint
	runCtx := obs.WithSpan(ctx, spanID(fp))
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Debug("cell start",
			"trace", obs.TraceID(ctx), "span", obs.SpanID(runCtx),
			"policy", c.Spec.Policy.ID(), "workload", c.Spec.Workload.ID())
	}

	var res *sim.Result
	var err error
	runStart := time.Now()
	if e.disp != nil {
		// The fabric owns concurrency (its local and remote workers
		// drain one queue), so the leader does not take a pool slot;
		// started fires when the fabric grants the cell's first lease.
		res, err = e.disp.Dispatch(runCtx, c, started)
	} else {
		// Take a worker slot, honouring cancellation while queued so a
		// canceled sweep's waiting cells release instantly.
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if started != nil {
			started()
		}
		e.met.workersBusy.Inc()
		res, err = e.run(runCtx, c)
		e.met.workersBusy.Dec()
		<-e.sem
	}
	dur := time.Since(runStart)
	e.met.cellSeconds(c.Spec.Policy.Name).Observe(dur.Seconds())
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Debug("cell done",
			"trace", obs.TraceID(ctx), "span", obs.SpanID(runCtx),
			"policy", c.Spec.Policy.ID(), "workload", c.Spec.Workload.ID(),
			"dur", dur.Round(time.Microsecond), "err", err)
	}
	return res, err
}

// spanID derives a cell's span from its fingerprint: the first 12 hex
// characters, matching the short form sweep status pages print.
func spanID(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// settle publishes a flight's outcome and retires it.
func (e *Executor) settle(fp string, f *flight) {
	e.mu.Lock()
	delete(e.inflight, fp)
	e.settled++
	e.mu.Unlock()
	close(f.done)
}
