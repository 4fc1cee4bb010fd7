package main

import (
	"encoding/json"
	"fmt"
	"time"

	"dwarn/internal/sim"
)

// The benchmark speaks the /v2 wire format through its own minimal
// types, so internal refactors of the service or spec packages do not
// have to edit the benchmark; results decode into sim.Result because
// the output check digests its counters.

type policyRef struct {
	Name string `json:"name"`
}

type workloadRef struct {
	Name string `json:"name"`
}

// runReq is a POST /v2/runs body.
type runReq struct {
	Policy        policyRef   `json:"policy"`
	Workload      workloadRef `json:"workload"`
	Seed          uint64      `json:"seed"`
	WarmupCycles  int64       `json:"warmup_cycles"`
	MeasureCycles int64       `json:"measure_cycles"`
	Baselines     bool        `json:"baselines,omitempty"`
}

// sweepReq is a POST /v2/sweeps body.
type sweepReq struct {
	Policies      []policyRef   `json:"policies"`
	Workloads     []workloadRef `json:"workloads"`
	Seeds         []uint64      `json:"seeds"`
	WarmupCycles  int64         `json:"warmup_cycles"`
	MeasureCycles int64         `json:"measure_cycles"`
	Baselines     bool          `json:"baselines,omitempty"`
}

// jobView is the part of a run's JobView the benchmark reads.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
	Fingerprint string          `json:"fingerprint"`
	FinishedAt  *time.Time      `json:"finished_at"`
}

// simResult unwraps a done job's result payload.
func (v *jobView) simResult() (*sim.Result, error) {
	var payload struct {
		Fingerprint string      `json:"fingerprint"`
		Result      *sim.Result `json:"result"`
	}
	if err := json.Unmarshal(v.Result, &payload); err != nil {
		return nil, fmt.Errorf("decode result of %s: %w", v.ID, err)
	}
	if payload.Result == nil {
		return nil, fmt.Errorf("job %s has no result", v.ID)
	}
	if v.Fingerprint == "" {
		v.Fingerprint = payload.Fingerprint
	}
	return payload.Result, nil
}

// sweepAccepted is the part of POST /v2/sweeps' answer the benchmark
// reads.
type sweepAccepted struct {
	ID string `json:"id"`
}

// sweepEvent is one "cell" SSE frame.
type sweepEvent struct {
	Index      int      `json:"index"`
	State      string   `json:"state"`
	Throughput *float64 `json:"throughput"`
	Error      string   `json:"error"`
}

// sweepEnd is the terminal "end" SSE frame.
type sweepEnd struct {
	State string `json:"state"`
	Total int    `json:"total"`
	Cells []struct {
		Policy      string   `json:"policy"`
		Workload    string   `json:"workload"`
		Seed        uint64   `json:"seed"`
		Fingerprint string   `json:"fingerprint"`
		State       string   `json:"state"`
		Throughput  *float64 `json:"throughput"`
		Hmean       *float64 `json:"hmean"`
	} `json:"cells"`
}

// committedUops sums the measured committed instructions of a result.
func committedUops(r *sim.Result) uint64 {
	var n uint64
	for _, t := range r.Threads {
		n += t.Pipeline.Committed
	}
	return n
}
