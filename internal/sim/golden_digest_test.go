package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dwarn/internal/core"
	"dwarn/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden counter digests")

// The digests pin a fixed scenario: every registered policy on each
// golden workload with the default seed. The run is short enough to
// keep the test fast but long enough to exercise squashes, flushes, TLB
// misses, and every event kind. 2-MIX covers the lightly loaded core,
// 4-MIX the paper's middle point, and 8-MEM the most contended and
// squash-heavy one (FLUSH there empties full ROBs every few cycles).
const (
	goldenSeed    = 42
	goldenWarmup  = 3000
	goldenMeasure = 10000
)

var goldenWorkloads = []string{"2-MIX", "4-MIX", "8-MEM"}

// goldenEntry records one policy's digest plus human-readable counters
// so a mismatch report shows what moved, not just that something did.
type goldenEntry struct {
	Digest    string   `json:"digest"`
	Cycles    int64    `json:"cycles"`
	Committed []uint64 `json:"committed"`
	Fetched   []uint64 `json:"fetched"`
}

// digestResult pairs Result.CounterDigest (the shared equality oracle)
// with human-readable counters so a mismatch report shows what moved.
func digestResult(res *Result) goldenEntry {
	e := goldenEntry{Digest: res.CounterDigest(), Cycles: res.Cycles}
	for i := range res.Threads {
		t := &res.Threads[i]
		e.Committed = append(e.Committed, t.Pipeline.Committed)
		e.Fetched = append(e.Fetched, t.Pipeline.Fetched)
	}
	return e
}

// TestGoldenCounterDigests is the determinism regression oracle for the
// cycle engine: per-thread counter digests for all registered policies
// on fixed 2-MIX, 4-MIX and 8-MEM runs. Any refactor of the event
// queue, instruction lifecycle, or issue select must keep these digests
// bit-identical. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenCounterDigests -update
func TestGoldenCounterDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden_digests.json")

	// got is keyed workload → policy.
	got := make(map[string]map[string]goldenEntry)
	for _, wn := range goldenWorkloads {
		wl, err := workload.GetWorkload(wn)
		if err != nil {
			t.Fatal(err)
		}
		got[wn] = make(map[string]goldenEntry)
		for _, policy := range core.Policies() {
			res, err := Run(Options{
				Policy:        policy,
				Workload:      wl,
				Seed:          goldenSeed,
				WarmupCycles:  goldenWarmup,
				MeasureCycles: goldenMeasure,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", wn, policy, err)
			}
			got[wn][policy] = digestResult(res)
		}
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote digests for %d workloads to %s", len(got), path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (run with -update to create): %v", err)
	}
	var want map[string]map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	for wn, byPolicy := range got {
		for policy, g := range byPolicy {
			w, ok := want[wn][policy]
			if !ok {
				t.Errorf("%s/%s: no golden entry (run with -update)", wn, policy)
				continue
			}
			if g.Digest != w.Digest {
				t.Errorf("%s/%s: counter digest changed\n got %s (committed %v, fetched %v, cycles %d)\nwant %s (committed %v, fetched %v, cycles %d)",
					wn, policy, g.Digest, g.Committed, g.Fetched, g.Cycles,
					w.Digest, w.Committed, w.Fetched, w.Cycles)
			}
		}
	}
	for wn, byPolicy := range want {
		for policy := range byPolicy {
			if _, ok := got[wn][policy]; !ok {
				t.Errorf("%s/%s: golden entry for unregistered policy or workload (run with -update)", wn, policy)
			}
		}
	}
}
