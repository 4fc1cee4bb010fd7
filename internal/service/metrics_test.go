package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/spec"
)

// scrapeMetrics fetches /metrics and parses it with the strict text
// validator, so every scrape doubles as a format check.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	return m
}

// seriesWithPrefix returns the parsed series whose full name (including
// the label block) starts with prefix.
func seriesWithPrefix(m map[string]float64, prefix string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

func waitSweepDone(t *testing.T, ts *httptest.Server, st *SweepStatus) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, st)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished in state %q (%d/%d done)", st.State, st.Done, st.Total)
	}
}

// TestMetricsEndpoint is the acceptance check for GET /metrics: after a
// sweep completes, one scrape parses as valid Prometheus text and
// carries the whole stack's core series — queue depth, result-cache
// hits/misses, executor throughput, and per-policy run-time histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// Before any work: the endpoint already serves the registered
	// gauges, and a scrape is itself an HTTP request.
	m := scrapeMetrics(t, ts)
	if _, ok := m["dwarn_jobs_queue_depth"]; !ok {
		t.Fatalf("missing dwarn_jobs_queue_depth; series: %d", len(m))
	}
	if _, ok := m["dwarn_cache_hits_total"]; !ok {
		t.Fatal("missing dwarn_cache_hits_total")
	}
	if _, ok := m["dwarn_cache_misses_total"]; !ok {
		t.Fatal("missing dwarn_cache_misses_total")
	}

	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}, {Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, ts, &st)

	m = scrapeMetrics(t, ts)

	// Executor: all four cells ran (none could be cached on a fresh
	// server), and the batch throughput gauge was published.
	if got := m[`dwarn_exec_cells_total{state="done"}`]; got != 4 {
		t.Fatalf("dwarn_exec_cells_total{state=done} = %v, want 4", got)
	}
	if got := m["dwarn_exec_cells_per_second"]; got <= 0 {
		t.Fatalf("dwarn_exec_cells_per_second = %v, want > 0", got)
	}

	// Per-policy run-time histograms: each policy observed twice (two
	// workloads), with a positive total run time.
	for _, policy := range []string{"icount", "dwarn"} {
		count := `dwarn_exec_cell_seconds_count{policy="` + policy + `"}`
		if got := m[count]; got != 2 {
			t.Fatalf("%s = %v, want 2", count, got)
		}
		sum := `dwarn_exec_cell_seconds_sum{policy="` + policy + `"}`
		if got := m[sum]; got <= 0 {
			t.Fatalf("%s = %v, want > 0", sum, got)
		}
		if len(seriesWithPrefix(m, `dwarn_exec_cell_seconds_bucket{policy="`+policy+`"`)) == 0 {
			t.Fatalf("no cumulative buckets for policy %q", policy)
		}
	}

	// Engine snapshots land on obs.Default and are merged into the same
	// scrape. They are labelled with the engine's policy display names
	// ("ICOUNT", "DWarn"), and obs.Default is process-wide — other tests
	// in this package run simulations too — so assert floors, not exact
	// counts.
	if got := m[`dwarn_sim_runs_total{policy="ICOUNT"}`]; got < 2 {
		t.Fatalf("dwarn_sim_runs_total{policy=ICOUNT} = %v, want >= 2", got)
	}
	if got := m[`dwarn_sim_runs_total{policy="DWarn"}`]; got < 2 {
		t.Fatalf("dwarn_sim_runs_total{policy=DWarn} = %v, want >= 2", got)
	}
	if len(seriesWithPrefix(m, `dwarn_sim_run_seconds_bucket{policy="DWarn"`)) == 0 {
		t.Fatal("no dwarn_sim_run_seconds buckets for policy DWarn")
	}
	if got := m["dwarn_sim_cycles_per_second"]; got <= 0 {
		t.Fatalf("dwarn_sim_cycles_per_second = %v, want > 0", got)
	}

	// Shared generator cores: the sweep's cells built at least one
	// calibrated core in this process. obs.Default is process-wide and
	// the cache may already hold cores from other tests, so assert only
	// that the counter is exported and has counted.
	if got := m["dwarn_workload_core_builds_total"]; got < 1 {
		t.Fatalf("dwarn_workload_core_builds_total = %v, want >= 1", got)
	}

	// HTTP middleware: the sweep submission was counted under its route
	// pattern with a 202, and latency histograms exist.
	if got := m[`dwarn_http_requests_total{code="202",route="POST /v2/sweeps"}`]; got != 1 {
		t.Fatalf("dwarn_http_requests_total for POST /v2/sweeps = %v, want 1", got)
	}
	if len(seriesWithPrefix(m, `dwarn_http_request_seconds_bucket{route="POST /v2/sweeps"`)) == 0 {
		t.Fatal("no latency buckets for POST /v2/sweeps")
	}
}

// TestMetricsCacheAccounting: a sweep submitted twice must show the
// second pass as pure cache hits — the store counters move by exactly
// the cell count with zero new misses, and the replayed SSE stream's
// cached flags agree with the counters.
func TestMetricsCacheAccounting(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}, {Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, ts, &st)

	before := scrapeMetrics(t, ts)
	if before["dwarn_exec_store_misses_total"] == 0 {
		t.Fatal("first pass recorded no store misses")
	}
	if before["dwarn_exec_store_puts_total"] != 4 {
		t.Fatalf("dwarn_exec_store_puts_total = %v, want 4", before["dwarn_exec_store_puts_total"])
	}

	// Second submission: the submit-time store precheck satisfies every
	// cell, so the sweep is terminal on arrival.
	resp, raw = postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var again SweepStatus
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Done != again.Total {
		t.Fatalf("repeat sweep not served from cache: state %q %d/%d", again.State, again.Done, again.Total)
	}
	cachedCells := 0
	for _, cell := range again.Cells {
		if cell.Cached {
			cachedCells++
		}
	}
	if cachedCells != again.Total {
		t.Fatalf("%d/%d repeat cells marked cached", cachedCells, again.Total)
	}

	after := scrapeMetrics(t, ts)
	hits := after["dwarn_exec_store_hits_total"] - before["dwarn_exec_store_hits_total"]
	misses := after["dwarn_exec_store_misses_total"] - before["dwarn_exec_store_misses_total"]
	if hits != float64(again.Total) {
		t.Fatalf("second pass store hits = %v, want %d (one per cell)", hits, again.Total)
	}
	if misses != 0 {
		t.Fatalf("second pass store misses = %v, want 0", misses)
	}
	// The precheck serves cached cells at submit time without ever
	// entering the executor, so the executor's own cached-cell counter
	// must not move — the second pass is visible purely as store hits.
	if got := after[`dwarn_exec_cells_total{state="cached"}`]; got != 0 {
		t.Fatalf("dwarn_exec_cells_total{state=cached} = %v, want 0 (precheck bypasses the executor)", got)
	}

	// The SSE replay of the cached sweep must tell the same story: every
	// cell frame is a cached terminal transition.
	es, err := http.Get(ts.URL + "/v2/sweeps/" + again.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	cachedFrames, otherFrames := 0, 0
	var event string
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "cell":
			var ev SweepEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad cell frame: %v", err)
			}
			if ev.State == exec.CellCached {
				cachedFrames++
			} else {
				otherFrames++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cachedFrames != again.Total || otherFrames != 0 {
		t.Fatalf("SSE replay: %d cached + %d other frames, want %d cached only",
			cachedFrames, otherFrames, again.Total)
	}
}
