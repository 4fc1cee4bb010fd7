package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/fabric"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

// Options configures a Server; zero values take the defaults below.
type Options struct {
	// Workers is the simulation worker pool size (default 4).
	Workers int
	// QueueDepth bounds the FIFO job queue (default 256).
	QueueDepth int
	// CacheEntries bounds the result cache (default 4096).
	CacheEntries int
	// MaxCycles caps per-request warmup and measure cycles; 0 applies
	// the default cap of 5M, negative disables the cap.
	MaxCycles int64
	// MaxBodyBytes caps request bodies (default 1MB).
	MaxBodyBytes int64
	// MaxJobRecords bounds retained terminal job records (default 4096).
	MaxJobRecords int
	// MaxSweepRecords bounds retained sweep records (default 256).
	MaxSweepRecords int
	// MaxSweepCells bounds one sweep's expansion (default 1024); a
	// larger grid is rejected with a 400 rather than fanning out
	// unbounded jobs.
	MaxSweepCells int
	// MaxActiveSweeps bounds concurrently executing sweeps (default
	// 16). Together with MaxSweepCells this caps the sweep backlog —
	// at most MaxActiveSweeps × MaxSweepCells cells waiting on the
	// executor pool; further submissions fail fast with a 503, the
	// sweep-side analogue of the job queue's full-queue fast-fail.
	MaxActiveSweeps int
	// MaxTraceBytes caps an uploaded trace file (compressed bytes on
	// the wire; default 32MB).
	MaxTraceBytes int64
	// MaxTracePayload caps an uploaded trace's decompressed payload
	// (decompression-bomb guard; default 256MB).
	MaxTracePayload int64
	// MaxTraces bounds the number of stored traces (default 16).
	MaxTraces int
	// MaxTraceStoreBytes bounds the traces' total in-memory payload
	// (default 1GB).
	MaxTraceStoreBytes int64
	// Store, when non-nil, durably backs the result cache: misses fall
	// through to it, results are written to it, and entries survive
	// restarts and LRU eviction (dwarnd -store DIR passes a DirStore —
	// the same layout resumable CLI sweeps use, so the two share cache
	// identity through the filesystem).
	Store exec.Store
	// Fabric, when non-nil, embeds a distributed-sweep coordinator: the
	// executor dispatches leader cells into its lease queue, in-process
	// local workers and remote `dwarnd -worker` processes drain it, and
	// the lease protocol is served under /v2/fabric.
	Fabric *FabricOptions
	// Registry receives the server's metrics (HTTP, jobs, sweeps,
	// cache, executor). Default: a fresh registry per server, so
	// concurrent servers in one process (tests) never share counters.
	// GET /metrics additionally merges obs.Default, where the
	// simulation engine records its per-run snapshots.
	Registry *obs.Registry
	// Logger receives structured access and lifecycle logs (default:
	// discard). cmd/dwarnd passes a key=value logger on stderr.
	Logger *obs.Logger
	// AuthToken, when non-empty, requires every request except the
	// GET /healthz and GET /metrics probes to present it as a bearer
	// token (compared in constant time); failures get 401.
	AuthToken string
	// RateLimit, when > 0, enforces a per-client token bucket of this
	// many requests/second on non-fabric routes; rejected requests get
	// 429 with a Retry-After hint.
	RateLimit float64
	// RateBurst is the rate limiter's bucket capacity (default
	// max(2×RateLimit, 8)).
	RateBurst int
	// RequestTimeout bounds the handling time of non-streaming,
	// non-fabric requests (0 disables; dwarnd defaults it to 60s).
	RequestTimeout time.Duration
	// Journal, when non-nil, durably records sweep and run-job registry
	// transitions; the Server appends to it as work is admitted and
	// completed, and compacts + closes it on Shutdown.
	Journal *journal.Journal
	// Recovered is the record stream journal.Open replayed before the
	// Server was built. New folds it and resumes unfinished entries
	// through the executor (durably stored cells short-circuit).
	Recovered []journal.Record
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 5_000_000
	}
	if o.MaxCycles < 0 {
		o.MaxCycles = 0
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxJobRecords <= 0 {
		o.MaxJobRecords = 4096
	}
	if o.MaxSweepRecords <= 0 {
		o.MaxSweepRecords = 256
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 1024
	}
	if o.MaxActiveSweeps <= 0 {
		o.MaxActiveSweeps = 16
	}
	if o.MaxTraceBytes <= 0 {
		o.MaxTraceBytes = 32 << 20
	}
	if o.MaxTracePayload <= 0 {
		o.MaxTracePayload = 256 << 20
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = 16
	}
	if o.MaxTraceStoreBytes <= 0 {
		o.MaxTraceStoreBytes = 1 << 30
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = obs.Nop()
	}
	return o
}

// Server is the dwarnd HTTP service: REST handlers over a job Manager
// (single runs) and the shared execution layer (sweeps), both memoised
// by one content-addressed result Cache.
type Server struct {
	opts   Options
	cache  *Cache
	mgr    *Manager
	traces *TraceStore
	exec   *exec.Executor      // shared sweep pool over the cache-backed store
	fabric *fabric.Coordinator // non-nil when Options.Fabric is set
	mux    *http.ServeMux
	start  time.Time
	reg    *obs.Registry
	log    *obs.Logger

	reqSeq  atomic.Uint64 // request-ID sequence for access logs
	sseSubs atomic.Int64  // open SSE event streams

	// Admission control (middleware.go).
	limiter  *rateLimiter // nil unless Options.RateLimit > 0
	authHash [32]byte     // sha256(Options.AuthToken); compared hashed

	metAuthFail    *obs.Counter
	metRateLimited *obs.Counter
	metShed        *obs.Counter

	// Durable registry. jrecs mirrors every record appended (or
	// replayed) this process lifetime, so Shutdown can fold it and
	// compact the on-disk log down to the still-unfinished entries.
	jrnl  *journal.Journal // nil without -journal
	jmu   sync.Mutex
	jrecs []journal.Record

	sweepWG    sync.WaitGroup
	sweepCtx   context.Context // parent of every sweep's context
	stopSweeps context.CancelFunc

	mu          sync.Mutex
	sweeps      map[string]*sweep
	sweepOrder  []string
	sweepSeq    uint64
	sweepClosed bool
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      NewCache(opts.CacheEntries),
		mgr:        NewManager(opts.Workers, opts.QueueDepth, opts.MaxJobRecords),
		traces:     NewTraceStore(opts.MaxTraces, opts.MaxTraceStoreBytes),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		reg:        opts.Registry,
		log:        opts.Logger,
		sweepCtx:   ctx,
		stopSweeps: cancel,
		sweeps:     make(map[string]*sweep),
	}
	if opts.AuthToken != "" {
		s.authHash = sha256.Sum256([]byte(opts.AuthToken))
	}
	s.limiter = newRateLimiter(opts.RateLimit, opts.RateBurst)
	s.jrnl = opts.Journal
	s.jrecs = append(s.jrecs, opts.Recovered...)
	// Every sweep cell executes through this one executor: N concurrent
	// sweeps share one bounded pool and one store identity — the same
	// cache entries /v1/simulations and /v2/runs are served from. Its
	// metrics (store hits/misses, dedup, per-policy cell times) land in
	// the server's registry. With Options.Store the LRU is layered over
	// the durable tier; with Options.Fabric leader cells dispatch into
	// the coordinator's lease queue instead of a local pool.
	store := exec.Store(cacheStore{c: s.cache})
	if opts.Store != nil {
		store = tieredStore{fast: cacheStore{c: s.cache}, slow: opts.Store}
	}
	if opts.Fabric != nil {
		s.fabric = s.startFabric(opts.Fabric)
	}
	s.exec = exec.New(exec.Options{
		Workers:    opts.Workers,
		Store:      store,
		Dispatcher: dispatcherOrNil(s.fabric),
		Registry:   s.reg,
		Logger:     s.log,
		Run:        s.runCell,
	})
	s.registerGauges()
	s.routes()
	s.recoverFromJournal()
	return s
}

// runCell computes one resolved cell. It is the one RunFunc under the
// executor's local pool, the fabric's local workers, and (via job
// closures) single runs — so every execution path streams interval
// frames the same way: when the executing context carries a frame sink
// (attached per sweep in submitSweep) and the cell's spec requested
// timeline sampling, each closing frame is forwarded as it happens
// instead of waiting for the cell's result.
func (s *Server) runCell(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
	opts := res.Options
	if sink := frameSinkFrom(ctx); sink != nil && opts.Timeline != nil {
		fp := res.Fingerprint
		opts.OnFrame = func(f *timeline.Frame) { sink(fp, f) }
	}
	return sim.RunContext(ctx, opts)
}

// dispatcherOrNil avoids handing exec a typed-nil interface.
func dispatcherOrNil(c *fabric.Coordinator) exec.Dispatcher {
	if c == nil {
		return nil
	}
	return c
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/machines", s.handleMachines)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("POST /v1/simulations", s.handleSubmitSimulation)
	s.mux.HandleFunc("GET /v1/simulations", s.handleListSimulations)
	s.mux.HandleFunc("GET /v1/simulations/{id}", s.handleGetSimulation)
	s.mux.HandleFunc("DELETE /v1/simulations/{id}", s.handleCancelSimulation)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("POST /v1/traces", s.handleUploadTrace)
	s.mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTrace)
	s.routesV2()
}

// Handler returns the root http.Handler: the API mux behind the
// admission-control chain (auth, rate limit, load shedding, body and
// deadline bounds) behind the observability layer (per-route metrics +
// request-ID access logs) — outermost first, so rejected requests are
// still counted and logged.
func (s *Server) Handler() http.Handler { return s.obsHandler() }

// Shutdown stops accepting work and drains both execution paths: the
// job Manager's queue (single runs) and every active sweep. Queued and
// running work completes normally; if ctx expires first, every
// remaining job and sweep context is cancelled and Shutdown waits for
// the workers to observe that before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.sweepClosed = true
	s.mu.Unlock()

	sweepsDone := make(chan struct{})
	go func() {
		s.sweepWG.Wait()
		close(sweepsDone)
	}()
	err := s.mgr.Shutdown(ctx)
	select {
	case <-sweepsDone:
	case <-ctx.Done():
		s.stopSweeps()
		<-sweepsDone
		if err == nil {
			err = ctx.Err()
		}
	}
	// The fabric closes after the sweeps drain: every cell is resolved
	// by then, so closing only parks the local workers and tells remote
	// workers (on their next RPC) to back off.
	if s.fabric != nil {
		s.fabric.Close()
	}
	// Compact the journal down to whatever is still unfinished (after a
	// clean drain: nothing, leaving just the header) and close it. A
	// failed compaction is not fatal — the full log replays fine.
	if s.jrnl != nil {
		s.jmu.Lock()
		keep := journal.Live(journal.Fold(s.jrecs))
		s.jmu.Unlock()
		if cerr := s.jrnl.Compact(keep); cerr != nil {
			s.log.Warn("journal compact failed", "err", cerr)
		}
		if cerr := s.jrnl.Close(); cerr != nil {
			s.log.Warn("journal close failed", "err", cerr)
		}
	}
	return err
}

// journalAppend durably appends one registry record (no-op without a
// journal), mirroring it in memory for Shutdown's compaction fold.
func (s *Server) journalAppend(rec journal.Record) error {
	if s.jrnl == nil {
		return nil
	}
	if err := s.jrnl.Append(rec); err != nil {
		return err
	}
	s.jmu.Lock()
	s.jrecs = append(s.jrecs, rec)
	s.jmu.Unlock()
	return nil
}

// CacheStats exposes the result cache counters (used by tests and /healthz).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ---- JSON helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

// submitError maps submission failures (job queue or sweep admission)
// to HTTP statuses. Saturation 503s carry a Retry-After hint so
// well-behaved clients back off instead of hot-looping.
func submitError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) ||
		errors.Is(err, ErrTooManySweeps) || errors.Is(err, ErrSaturated) {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterHeader(retryAfterShed))
	}
	writeError(w, status, err)
}

// ---- simulation execution ----

// simKey is the cache key for a plain simulation payload;
// simBaselinesKey for the payload that adds relative-IPC metrics.
func simKey(fp string) string          { return "sim:" + fp }
func simBaselinesKey(fp string) string { return "sim+baselines:" + fp }

// resolveSpec compiles a spec against the server's trace store and
// enforces the per-run cycle cap.
func (s *Server) resolveSpec(rs spec.RunSpec) (*spec.Resolved, error) {
	res, err := rs.Resolve(s.traces)
	if err != nil {
		return nil, err
	}
	if err := checkCycles(res.Spec.WarmupCycles, res.Spec.MeasureCycles, s.opts.MaxCycles); err != nil {
		return nil, err
	}
	return res, nil
}

// runSim returns the marshaled SimulationResult for a resolved run (no
// summary), computing and caching it under the spec fingerprint on a
// miss. The computation itself goes through the shared executor, so a
// run job and a sweep cell with the same fingerprint join one
// in-flight simulation (and one bounded pool) instead of simulating
// twice — the cache's single-flight dedupes identical run jobs, the
// executor's dedupes across the run/sweep boundary.
func (s *Server) runSim(ctx context.Context, res *spec.Resolved) (json.RawMessage, bool, error) {
	return s.cache.GetOrCompute(ctx, simKey(res.Fingerprint), func() ([]byte, error) {
		results := s.exec.Execute(ctx, []*spec.Resolved{res}, nil)
		if err := results[0].Err; err != nil {
			return nil, err
		}
		return json.Marshal(&SimulationResult{Fingerprint: res.Fingerprint, Result: results[0].Result})
	})
}

// decodeSim recovers the result record from cached payload bytes.
func decodeSim(raw []byte) (*SimulationResult, error) {
	var sr SimulationResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("service: corrupt cached result: %w", err)
	}
	return &sr, nil
}

// runSimWithBaselines additionally runs each distinct benchmark solo
// under ICOUNT — every solo run is a canonical spec of its own, so its
// cache entry is shared with any other request (v1 or v2) that needs
// the same baseline — and attaches the relative-IPC summary.
func (s *Server) runSimWithBaselines(ctx context.Context, res *spec.Resolved) (json.RawMessage, bool, error) {
	return s.cache.GetOrCompute(ctx, simBaselinesKey(res.Fingerprint), func() ([]byte, error) {
		raw, _, err := s.runSim(ctx, res)
		if err != nil {
			return nil, err
		}
		sr, err := decodeSim(raw)
		if err != nil {
			return nil, err
		}

		soloIPC := make(map[string]float64)
		for _, bench := range res.Options.Workload.Benchmarks {
			if _, ok := soloIPC[bench]; ok {
				continue
			}
			soloSpec := spec.SoloBaseline(res.Spec, bench)
			soloRes, err := soloSpec.Resolve(nil)
			if err != nil {
				return nil, err
			}
			soloRaw, _, err := s.runSim(ctx, soloRes)
			if err != nil {
				return nil, err
			}
			soloOut, err := decodeSim(soloRaw)
			if err != nil {
				return nil, err
			}
			soloIPC[bench] = soloOut.Result.Threads[0].IPC
		}

		smt := sr.Result.IPCs()
		solo := make([]float64, len(sr.Result.Threads))
		for i, t := range sr.Result.Threads {
			solo[i] = soloIPC[t.Benchmark]
		}
		sr.Summary, err = stats.Summarize(smt, solo)
		if err != nil {
			return nil, err
		}
		return json.Marshal(sr)
	})
}

// submitResolved either completes the run instantly from the cache or
// enqueues it. record is echoed in job status responses: the original
// request for v1 submissions, the canonical spec for v2. ctx is the
// submitting request's context: its trace ID and logger are re-attached
// to the job's own (queue-lifetime) context so the run executes under
// the trace of the request that submitted it.
func (s *Server) submitResolved(ctx context.Context, res *spec.Resolved, record any) (JobView, error) {
	key := simKey(res.Fingerprint)
	run := s.runSim
	if res.Spec.Baselines {
		key = simBaselinesKey(res.Fingerprint)
		run = s.runSimWithBaselines
	}

	// Fast path: an identical request already paid for this result, so
	// the job completes at submission time without taking a queue slot.
	// Peek rather than Get: a miss here is not an outcome — the queued
	// job's GetOrCompute records it.
	if raw, ok := s.cache.Peek(key); ok {
		j, err := s.mgr.SubmitCompleted("sim", record, raw, true)
		if err != nil {
			return JobView{}, err
		}
		v, _ := s.mgr.Get(j.ID)
		return v, nil
	}

	trace := obs.TraceID(ctx)
	base := func(jobCtx context.Context) (json.RawMessage, bool, error) {
		return run(obs.WithLogger(obs.WithTrace(jobCtx, trace), s.log), res)
	}
	runJob := base
	var ready chan struct{}
	var jobID *string
	if s.jrnl != nil {
		// The worker closure waits for the submit record (which carries
		// the job id) to be durably appended before executing, so the
		// journal never holds a finish record ahead of its submit.
		ready = make(chan struct{})
		jobID = new(string)
		runJob = func(jobCtx context.Context) (json.RawMessage, bool, error) {
			<-ready
			raw, cached, err := base(jobCtx)
			s.journalRunFinish(*jobID, jobCtx, err)
			return raw, cached, err
		}
	}
	j, err := s.mgr.Submit("sim", record, runJob)
	if err != nil {
		return JobView{}, err
	}
	if s.jrnl != nil {
		*jobID = j.ID
		if jerr := s.journalAppend(journal.Record{
			Type: journal.TypeSubmit, ID: j.ID, Kind: journal.KindRun,
			Time: j.SubmittedAt, Cells: []spec.RunSpec{res.Spec},
		}); jerr != nil {
			// Best effort for single runs (availability over strict
			// durability): the job still runs, it just won't be resumed
			// if the process dies first.
			s.log.Warn("journal job append failed", "job", j.ID, "err", jerr)
		}
		close(ready)
	}
	v, _ := s.mgr.Get(j.ID)
	return v, nil
}

// journalRunFinish appends a run job's terminal record, mirroring the
// Manager's state mapping for the job itself.
func (s *Server) journalRunFinish(id string, ctx context.Context, err error) {
	rec := journal.Record{Type: journal.TypeFinish, ID: id, State: StateDone}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		rec.State = StateCanceled
	default:
		rec.State = StateFailed
		rec.Error = err.Error()
	}
	if aerr := s.journalAppend(rec); aerr != nil {
		s.log.Warn("journal job finish append failed", "job", id, "err", aerr)
	}
}

// submitSpecJob resolves and submits one spec.
func (s *Server) submitSpecJob(ctx context.Context, rs spec.RunSpec, record any) (JobView, *spec.Resolved, error) {
	res, err := s.resolveSpec(rs)
	if err != nil {
		return JobView{}, nil, err
	}
	v, err := s.submitResolved(ctx, res, record)
	return v, res, err
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sweeps := len(s.sweeps)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.opts.Workers,
		"queue_depth":    s.opts.QueueDepth,
		"jobs":           s.mgr.Counts(),
		"sweeps":         sweeps,
		"traces":         s.traces.Len(),
		"cache":          s.cache.Stats(),
	})
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"policies": core.Policies(),
		"paper":    core.PaperPolicies(),
	})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"machines": config.Machines()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name       string   `json:"name"`
		Threads    int      `json:"threads"`
		Mix        string   `json:"mix"`
		Benchmarks []string `json:"benchmarks"`
	}
	var out []wl
	for _, w := range workload.Workloads() {
		out = append(out, wl{Name: w.Name, Threads: w.Threads, Mix: w.Mix.String(), Benchmarks: w.Benchmarks})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type bench struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	var out []bench
	for _, name := range workload.Names() {
		p, err := workload.Get(name)
		if err != nil {
			continue
		}
		out = append(out, bench{Name: name, Type: p.Type.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": out})
}

func (s *Server) handleSubmitSimulation(w http.ResponseWriter, r *http.Request) {
	var req SimulationRequest
	if !s.decode(w, r, &req) {
		return
	}
	v, _, err := s.submitSpecJob(r.Context(), req.Spec(), req)
	if err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
			submitError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleListSimulations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleGetSimulation(w http.ResponseWriter, r *http.Request) {
	v, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancelSimulation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.mgr.Get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", id))
		return
	}
	if !s.mgr.Cancel(id) {
		writeError(w, http.StatusConflict, fmt.Errorf("service: job %q already finished", id))
		return
	}
	// Durable cancel: a job canceled while still queued never runs its
	// closure, so without this record a restart would resume it.
	if err := s.journalAppend(journal.Record{Type: journal.TypeCancel, ID: id}); err != nil {
		s.log.Warn("journal cancel append failed", "job", id, "err", err)
	}
	v, _ := s.mgr.Get(id)
	writeJSON(w, http.StatusOK, v)
}

// resolveSweep expands a sweep spec under the cell bound and resolves
// every cell, validating the whole grid before any work is admitted.
func (s *Server) resolveSweep(ss spec.SweepSpec) ([]sweepCell, error) {
	runs, err := ss.Expand(s.opts.MaxSweepCells)
	if err != nil {
		return nil, err
	}
	cells := make([]sweepCell, 0, len(runs))
	for _, rs := range runs {
		res, err := s.resolveSpec(rs)
		if err != nil {
			return nil, fmt.Errorf("sweep cell %s/%s/%s: %w",
				machineName(rs.Machine), rs.Policy.ID(), rs.Workload.ID(), err)
		}
		cells = append(cells, sweepCell{resolved: res, view: cellIdentity(res)})
	}
	return cells, nil
}

// machineName is the display name of a possibly-nil machine reference.
func machineName(m *spec.Machine) string {
	if m == nil || m.Name == "" {
		return "baseline"
	}
	return m.Name
}

// cellIdentity derives a cell's static display fields from its
// canonical spec.
func cellIdentity(res *spec.Resolved) SweepCell {
	c := SweepCell{
		Machine:     res.Spec.Machine.Name,
		Policy:      res.Spec.Policy.ID(),
		Seed:        res.Spec.Seed,
		Fingerprint: res.Fingerprint,
	}
	if tr := res.Spec.Workload.Trace; tr != "" {
		c.Trace = tr
	} else {
		c.Workload = res.Spec.Workload.ID()
	}
	return c
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	ss, err := req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := s.resolveSweep(ss)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submitSweep(w, r, cells)
}
