package exec

import (
	"context"
	"testing"

	"dwarn/internal/core"
	"dwarn/internal/spec"
)

// TestParallelSweepBitIdenticalToSerial is the execution layer's
// determinism guard, the sweep-level companion of the cycle engine's
// golden-digest test: expanding one grid and executing it serially
// (1 worker) and in parallel (8 workers) must produce bit-identical
// per-cell counter digests. Parallelism may only change wall-clock
// time, never a single counter — each cell's simulation is hermetic,
// which is exactly what the concurrency audit of pipeline/workload/core
// (no package-level mutable state, no shared RNG) guarantees. The one
// shared state, workload's cache of immutable generator cores, is
// filled by whichever pass runs first; the 8-worker pass goes first, on
// seeds no other test here uses, so under -race it is the pass that
// builds those cores concurrently.
func TestParallelSweepBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy grid in -short mode")
	}
	var axes []spec.PolicyAxis
	for _, p := range core.Policies() {
		axes = append(axes, spec.PolicyAxis{Name: p})
	}
	ss := spec.SweepSpec{
		Policies:     axes,
		Workloads:    []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
		Seeds:        []uint64{9101, 9102},
		WarmupCycles: 1500, MeasureCycles: 4000,
	}
	runs, err := ss.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]*spec.Resolved, len(runs))
	for i := range runs {
		if cells[i], err = runs[i].Resolve(nil); err != nil {
			t.Fatal(err)
		}
	}

	parallel := New(Options{Workers: 8}).Execute(context.Background(), cells, nil)
	serial := New(Options{Workers: 1}).Execute(context.Background(), cells, nil)
	if err := FirstError(serial); err != nil {
		t.Fatal(err)
	}
	if err := FirstError(parallel); err != nil {
		t.Fatal(err)
	}

	for i := range cells {
		s, p := serial[i], parallel[i]
		if s.Fingerprint != p.Fingerprint {
			t.Fatalf("cell %d: fingerprint diverged between executions", i)
		}
		sd, pd := s.Result.CounterDigest(), p.Result.CounterDigest()
		if sd != pd {
			t.Errorf("cell %d (%s/%s seed %d): parallel digest %s != serial %s",
				i, s.Spec.Policy.ID(), s.Spec.Workload.ID(), s.Spec.Seed, pd, sd)
		}
	}
}
