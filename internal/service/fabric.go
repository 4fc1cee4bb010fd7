package service

import (
	"net/http"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/fabric"
	"dwarn/internal/sim"
)

// FabricOptions enables the distributed sweep fabric: the server embeds
// a fabric.Coordinator behind the executor's Dispatcher seam, serves
// the lease protocol under /v2/fabric, and runs LocalWorkers in-process
// lease loops — so a lone dwarnd behaves exactly as before, and
// `dwarnd -worker` processes join the same queue the moment they
// register.
type FabricOptions struct {
	// LocalWorkers is how many in-process worker slots drain the queue
	// (default: Options.Workers). Zero via LocalWorkersSet makes the
	// server a pure coordinator: every cell waits for a remote worker,
	// and trace-workload cells are rejected (their payloads live in this
	// process's trace store).
	LocalWorkers int
	// LocalWorkersSet distinguishes "LocalWorkers: 0" (pure coordinator)
	// from an unset field defaulting to Options.Workers.
	LocalWorkersSet bool
	// LeaseTTL is how long a worker's lease on a cell survives without a
	// heartbeat before the cell is requeued (0 = fabric default).
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered (0 =
	// fabric default).
	WorkerTTL time.Duration
}

// tieredStore layers the in-memory LRU cache over a durable store
// (dwarnd -store DIR): gets fall through to the durable tier and refill
// the LRU, puts write both. The durable tier holds the same one-file-
// per-fingerprint layout CLI sweeps resume from, so a result computed
// by any frontend — or pushed back by a remote fabric worker — is
// served from disk across dwarnd restarts and LRU evictions alike.
type tieredStore struct {
	fast exec.Store // LRU cacheStore: fast, evicting
	slow exec.Store // DirStore: durable, unbounded
}

// Get implements exec.Store.
func (t tieredStore) Get(fp string) (*sim.Result, bool) {
	if res, ok := t.fast.Get(fp); ok {
		return res, true
	}
	res, ok := t.slow.Get(fp)
	if ok {
		t.fast.Put(fp, res)
	}
	return res, ok
}

// Put implements exec.Store.
func (t tieredStore) Put(fp string, res *sim.Result) {
	t.fast.Put(fp, res)
	t.slow.Put(fp, res)
}

// startFabric builds the coordinator, wires it as the executor
// dispatcher, and starts the local workers. Called from New when
// Options.Fabric is set.
func (s *Server) startFabric(fo *FabricOptions) *fabric.Coordinator {
	c := fabric.NewCoordinator(fabric.Config{
		LeaseTTL:  fo.LeaseTTL,
		WorkerTTL: fo.WorkerTTL,
		Registry:  s.reg,
		Logger:    s.log,
	})
	n := fo.LocalWorkers
	if n <= 0 && !fo.LocalWorkersSet {
		n = s.opts.Workers
	}
	c.StartLocalWorkers(n, s.runCell)
	return c
}

// handleFabricDisabled answers GET /v2/fabric when no coordinator is
// configured, so clients can probe for the fabric uniformly.
func (s *Server) handleFabricDisabled(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fabric.Status{Enabled: false, Workers: []fabric.WorkerStatus{}})
}
