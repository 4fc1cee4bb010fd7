package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// ErrUnknownWorker reports a lease/heartbeat/complete RPC from a
// worker id the coordinator does not know — a worker that outlived a
// coordinator restart, or one already expired for silence. The HTTP
// layer maps it to 404; workers react by re-registering.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// ErrClosed reports work submitted to a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// errNoLocalWorkers rejects cells that can only run in-process (trace
// workloads resolve against the coordinator's trace store) when the
// coordinator has no local workers to run them on.
var errNoLocalWorkers = errors.New("fabric: cell needs local execution (trace workload) but the coordinator runs no local workers")

// Config tunes a Coordinator. Zero values take the package defaults.
type Config struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat.
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered.
	WorkerTTL time.Duration
	// MaxLeaseBatch bounds cells granted per lease call.
	MaxLeaseBatch int
	// Registry receives the fabric metrics (nil = obs.Default).
	Registry *obs.Registry
	// Logger receives lease lifecycle logs (nil = discard).
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = DefaultWorkerTTL
		if c.WorkerTTL < 4*c.LeaseTTL {
			c.WorkerTTL = 4 * c.LeaseTTL
		}
	}
	if c.MaxLeaseBatch <= 0 {
		c.MaxLeaseBatch = DefaultMaxLeaseBatch
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// cell is one dispatched leader cell awaiting execution somewhere in
// the fleet. Guarded by the coordinator mutex except ctx/res/done,
// which are immutable after creation.
type cell struct {
	fp  string
	res *spec.Resolved
	ctx context.Context // the Dispatch context: trace, logger, cancellation

	leased    bool   // currently held by leaseID
	leaseID   string // current holder when leased
	localOnly bool   // trace workloads never lease remotely
	started   func() // fired on first lease grant
	requeues  int

	done   chan struct{} // closed exactly once, when resolved
	result *sim.Result
	err    error
}

// lease is one grant of one cell to one worker for one TTL window.
type lease struct {
	id       string
	fp       string
	workerID string
	local    bool
	expires  time.Time
	// canceled marks the cell as no longer wanted (sweep cancelled or
	// resolved by a racing twin); the next heartbeat tells the worker
	// to abandon it and retires the lease.
	canceled bool
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	id         string
	name       string
	pid        int
	capacity   int
	local      bool
	registered time.Time
	lastSeen   time.Time
	active     int
	done       uint64
	failed     uint64
	requeues   uint64
}

// Coordinator owns the fabric's pending-cell queue, the worker
// registry, and the lease table. It implements exec.Dispatcher: the
// executor hands it leader cells, local and remote workers drain them
// through one queue, and lease expiry requeues the cells of workers
// that die mid-flight.
type Coordinator struct {
	cfg Config
	log *obs.Logger
	met *coordMetrics

	mu        sync.Mutex
	closed    bool
	cells     map[string]*cell // unresolved cells by fingerprint
	queue     []*cell          // pending FIFO (entries may be stale; state is authoritative)
	workers   map[string]*workerState
	leases    map[string]*lease
	waiters   []chan struct{} // lease long-polls + local workers parked on an empty queue
	workerSeq uint64
	leaseSeq  uint64
	localCap  int // total local worker slots (trace cells need > 0)

	janitorStop chan struct{}
	localWG     sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its lease janitor.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		log:         cfg.Logger,
		cells:       make(map[string]*cell),
		workers:     make(map[string]*workerState),
		leases:      make(map[string]*lease),
		janitorStop: make(chan struct{}),
	}
	c.met = newCoordMetrics(cfg.Registry, c)
	go c.janitor()
	return c
}

// LeaseTTL returns the configured lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// Close stops the janitor, fails every unresolved cell, and waits for
// the local workers to park. Remote workers discover the closure on
// their next RPC.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.janitorStop)
	for fp, ce := range c.cells {
		ce.result, ce.err = nil, ErrClosed
		close(ce.done)
		delete(c.cells, fp)
	}
	c.queue = nil
	c.wakeLocked()
	c.mu.Unlock()
	c.localWG.Wait()
}

// Dispatch implements exec.Dispatcher: queue the cell, wait for some
// worker — local goroutine or remote process, whichever leases it
// first — to resolve it. On ctx cancellation the cell is withdrawn
// (pending) or its lease flagged canceled (in flight), and a late
// completion is discarded as stale.
func (c *Coordinator) Dispatch(ctx context.Context, res *spec.Resolved, started func()) (*sim.Result, error) {
	ce := &cell{
		fp:        res.Fingerprint,
		res:       res,
		ctx:       ctx,
		started:   started,
		localOnly: res.Options.Trace != nil,
		done:      make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if ce.localOnly && c.localCap == 0 {
		c.mu.Unlock()
		return nil, errNoLocalWorkers
	}
	if twin, ok := c.cells[ce.fp]; ok {
		// The executor's single-flight admits one leader per
		// fingerprint, so a live twin means a caller raced a withdrawn
		// cell's cleanup; join it rather than double-queueing.
		c.mu.Unlock()
		select {
		case <-twin.done:
			return twin.result, twin.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.cells[ce.fp] = ce
	c.queue = append(c.queue, ce)
	c.met.queued.Inc()
	c.wakeLocked()
	c.mu.Unlock()

	select {
	case <-ce.done:
		return ce.result, ce.err
	case <-ctx.Done():
		c.withdraw(ce)
		return nil, ctx.Err()
	}
}

// withdraw resolves a cell as canceled from the submitting side. If a
// worker holds its lease, the lease is flagged so the next heartbeat
// tells the worker to abandon the simulation.
func (c *Coordinator) withdraw(ce *cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.cells[ce.fp]
	if !ok || cur != ce {
		return // already resolved (or a newer cell took the fingerprint)
	}
	if ce.leased {
		if l, ok := c.leases[ce.leaseID]; ok {
			l.canceled = true
		}
	}
	delete(c.cells, ce.fp)
	// The queue entry (if pending) goes stale; poppers skip it.
}

// wakeLocked releases every parked lease long-poll and local worker.
func (c *Coordinator) wakeLocked() {
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
}

// popLocked removes and returns the next live pending cell the worker
// may run (remote workers skip local-only cells), or nil.
func (c *Coordinator) popLocked(local bool) *cell {
	for i := 0; i < len(c.queue); i++ {
		ce := c.queue[i]
		if cur, ok := c.cells[ce.fp]; !ok || cur != ce || ce.leased {
			continue // withdrawn, resolved, or already leased (stale entry)
		}
		if ce.localOnly && !local {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		return ce
	}
	return nil
}

// register adds a worker to the fleet.
func (c *Coordinator) register(req RegisterRequest, local bool) (*workerState, error) {
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.workerSeq++
	w := &workerState{
		id:         fmt.Sprintf("w-%06d", c.workerSeq),
		name:       req.Name,
		pid:        req.PID,
		capacity:   req.Capacity,
		local:      local,
		registered: time.Now(),
		lastSeen:   time.Now(),
	}
	c.workers[w.id] = w
	c.log.Info("fabric worker registered", "worker", w.id, "name", w.name, "capacity", w.capacity, "local", local)
	return w, nil
}

// grantLocked leases one popped cell to a worker and returns the
// started callback to fire outside the lock (it re-enters the
// caller's event plumbing).
func (c *Coordinator) grantLocked(w *workerState, ce *cell) (Lease, func()) {
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("l-%08d", c.leaseSeq),
		fp:       ce.fp,
		workerID: w.id,
		local:    w.local,
		expires:  time.Now().Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	ce.leased = true
	ce.leaseID = l.id
	w.active++
	c.met.leases.Inc()
	started := ce.started
	ce.started = nil // at most once, on the first grant
	return Lease{
		ID:          l.id,
		Fingerprint: ce.fp,
		Spec:        ce.res.Spec,
		Trace:       obs.TraceID(ce.ctx),
	}, started
}

// leaseBatch grants up to max pending cells to the worker, long-polling
// an empty queue up to wait. It returns the granted leases after firing
// the cells' started callbacks.
func (c *Coordinator) leaseBatch(workerID string, max int, wait time.Duration) ([]Lease, error) {
	if max <= 0 {
		max = 1
	}
	if max > c.cfg.MaxLeaseBatch {
		max = c.cfg.MaxLeaseBatch
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = time.Now()
		var out []Lease
		var starts []func()
		for len(out) < max {
			ce := c.popLocked(w.local)
			if ce == nil {
				break
			}
			l, started := c.grantLocked(w, ce)
			out = append(out, l)
			if started != nil {
				starts = append(starts, started)
			}
		}
		var parked chan struct{}
		if len(out) == 0 && time.Now().Before(deadline) {
			parked = make(chan struct{})
			c.waiters = append(c.waiters, parked)
		}
		c.mu.Unlock()

		for _, fn := range starts {
			fn()
		}
		if len(out) > 0 || parked == nil {
			return out, nil
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-parked:
			timer.Stop()
		case <-timer.C:
		case <-c.janitorStop:
			timer.Stop()
			return nil, ErrClosed
		}
	}
}

// heartbeat renews the worker and its listed leases, and reports which
// leases the worker must abandon.
func (c *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return HeartbeatResponse{}, ErrClosed
	}
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	var resp HeartbeatResponse
	for _, id := range req.LeaseIDs {
		l, ok := c.leases[id]
		if !ok || l.workerID != req.WorkerID {
			resp.Expired = append(resp.Expired, id)
			continue
		}
		if l.canceled {
			resp.Canceled = append(resp.Canceled, id)
			c.retireLeaseLocked(l)
			continue
		}
		l.expires = time.Now().Add(c.cfg.LeaseTTL)
	}
	return resp, nil
}

// abandonLease hands a lease back without touching its cell — the
// worker discovered the cell is unwanted (withdrawn or canceled).
func (c *Coordinator) abandonLease(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.leases[id]; ok {
		c.retireLeaseLocked(l)
	}
}

// retireLeaseLocked drops a lease and its worker's active count.
func (c *Coordinator) retireLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	if w, ok := c.workers[l.workerID]; ok && w.active > 0 {
		w.active--
	}
}

// complete resolves a cell with a worker's pushed result. Matching is
// by fingerprint, not lease: a completion from an expired lease still
// resolves the cell if no one else has (the work is done — discarding
// it would only pay twice), while a cell already resolved — by a
// racing re-lease or a duplicate push — reports stale and the payload
// is dropped, which is what makes completion idempotent.
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return CompleteResponse{}, ErrClosed
	}
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return CompleteResponse{}, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	if l, ok := c.leases[req.LeaseID]; ok {
		c.retireLeaseLocked(l)
	}
	ce, ok := c.cells[req.Fingerprint]
	if !ok {
		c.mu.Unlock()
		c.met.stale.Inc()
		return CompleteResponse{Stale: true}, nil
	}
	// If a different lease currently holds the cell (it expired here
	// and was re-leased), flag that twin so its worker stops wasting
	// cycles on a resolved cell at its next heartbeat.
	if ce.leased && ce.leaseID != req.LeaseID {
		if twin, ok := c.leases[ce.leaseID]; ok {
			twin.canceled = true
		}
	}
	if req.Error != "" {
		ce.err = fmt.Errorf("fabric: worker %s: %s", w.name, req.Error)
		w.failed++
		c.met.failed.Inc()
	} else if req.Result == nil {
		ce.err = fmt.Errorf("fabric: worker %s pushed an empty completion", w.name)
		w.failed++
		c.met.failed.Inc()
	} else {
		ce.result = req.Result
		w.done++
		c.met.completed.Inc()
	}
	delete(c.cells, req.Fingerprint)
	close(ce.done)
	c.mu.Unlock()
	return CompleteResponse{Accepted: true}, nil
}

// janitor periodically expires unrenewed remote leases (requeueing
// their cells) and drops workers silent past WorkerTTL.
func (c *Coordinator) janitor() {
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.sweepExpired(time.Now())
		}
	}
}

// sweepExpired is one janitor pass: requeue cells behind expired
// remote leases, retire canceled/orphaned leases, expire silent
// workers (requeueing everything they held).
func (c *Coordinator) sweepExpired(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for id, w := range c.workers {
		if w.local || now.Sub(w.lastSeen) <= c.cfg.WorkerTTL {
			continue
		}
		c.log.Warn("fabric worker expired", "worker", w.id, "name", w.name, "active_leases", w.active)
		delete(c.workers, id)
		for _, l := range c.leases {
			if l.workerID == id {
				l.expires = now.Add(-time.Second) // expire below, requeueing its cells
			}
		}
	}
	for _, l := range c.leases {
		// Local leases never expire: an in-process worker cannot vanish
		// without taking the coordinator with it, and requeueing a slow
		// local cell would double-simulate it in this very process.
		if l.local || now.Before(l.expires) {
			continue
		}
		ce, ok := c.cells[l.fp]
		if ok && ce.leased && ce.leaseID == l.id {
			ce.leased = false
			ce.leaseID = ""
			ce.requeues++
			c.queue = append(c.queue, ce)
			c.met.requeues.Inc()
			if w, ok := c.workers[l.workerID]; ok {
				w.requeues++
			}
			c.log.Warn("fabric lease expired, cell requeued",
				"lease", l.id, "worker", l.workerID, "span", l.fp[:min(12, len(l.fp))], "requeues", ce.requeues)
		}
		c.retireLeaseLocked(l)
	}
	if len(c.queue) > 0 {
		c.wakeLocked()
	}
}

// Status assembles the GET /v2/fabric view.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:        true,
		ActiveLeases:   len(c.leases),
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		LeasesTotal:    c.met.leases.Value(),
		RequeuesTotal:  c.met.requeues.Value(),
		CompletedTotal: c.met.completed.Value(),
		FailedTotal:    c.met.failed.Value(),
		StaleTotal:     c.met.stale.Value(),
	}
	st.QueueDepth = c.queueDepthLocked()
	now := time.Now()
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			PID:            w.pid,
			Local:          w.local,
			Capacity:       w.capacity,
			ActiveLeases:   w.active,
			CellsDone:      w.done,
			CellsFailed:    w.failed,
			Requeues:       w.requeues,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		}
		if lifetime := now.Sub(w.registered).Seconds(); lifetime > 0 {
			ws.CellsPerSec = float64(w.done) / lifetime
		}
		st.Workers = append(st.Workers, ws)
	}
	// Deterministic order for status pages and tests.
	sortWorkers(st.Workers)
	return st
}

// QueueDepth counts live pending cells (feeds the queue-depth gauge).
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queueDepthLocked()
}

// WorkerCount counts registered workers (feeds the workers gauge).
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// ActiveLeases counts held leases (feeds the leases gauge).
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// queueDepthLocked counts live pending cells (the queue slice may hold
// stale entries for withdrawn or already-leased cells).
func (c *Coordinator) queueDepthLocked() int {
	n := 0
	for _, ce := range c.queue {
		if cur, ok := c.cells[ce.fp]; ok && cur == ce && !ce.leased {
			n++
		}
	}
	return n
}

func sortWorkers(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].ID < ws[j-1].ID; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// StartLocalWorkers registers one in-process worker with n slots, each
// a goroutine pulling leases from the same queue remote workers drain.
// run executes a cell (the service passes its frame-sink-aware
// RunFunc); the cell's own Dispatch context — trace id, logger, sweep
// cancellation — is the execution context, so DELETE /v2/sweeps/{id}
// cancels a local fabric cell exactly as it cancelled a pool cell.
func (c *Coordinator) StartLocalWorkers(n int, run exec.RunFunc) {
	if n <= 0 {
		return
	}
	if run == nil {
		run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return sim.RunContext(ctx, res.Options)
		}
	}
	w, err := c.register(RegisterRequest{Name: "local", Capacity: n}, true)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.localCap += n
	c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.localWG.Add(1)
		go c.localWorker(w.id, run)
	}
}

// localWorker is one in-process lease loop: pull one cell, run it on
// its own Dispatch context, push the completion, repeat until the
// coordinator closes.
func (c *Coordinator) localWorker(workerID string, run exec.RunFunc) {
	defer c.localWG.Done()
	for {
		leases, err := c.leaseBatch(workerID, 1, time.Minute)
		if err != nil {
			return // closed (local workers are never unknown)
		}
		for _, l := range leases {
			c.mu.Lock()
			ce, ok := c.cells[l.Fingerprint]
			c.mu.Unlock()
			if !ok || ce.ctx.Err() != nil {
				// Withdrawn while leased, or its sweep is already
				// canceled: Dispatch resolves through its own context
				// branch, so just hand the lease back.
				c.abandonLease(l.ID)
				continue
			}
			res, err := run(ce.ctx, ce.res)
			if err != nil && ce.ctx.Err() != nil {
				// The sweep was canceled mid-simulation. Dispatch
				// returns ctx.Err() itself; pushing a string-wrapped
				// context error here would race it and mask the
				// cancellation as a failure.
				c.abandonLease(l.ID)
				continue
			}
			req := CompleteRequest{WorkerID: workerID, LeaseID: l.ID, Fingerprint: l.Fingerprint, Result: res}
			if err != nil {
				req.Result, req.Error = nil, err.Error()
			}
			c.complete(req)
		}
	}
}
