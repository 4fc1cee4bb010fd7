package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The manifest is the single table of workloads and metrics: runs
// report against it, and -write-manifest renders it as BENCHMARK.json
// at the repository root, so the two cannot drift apart.

// WorkloadDef names one traffic mix and why the benchmark carries it.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

const runSeconds = 15

var workloads = []WorkloadDef{
	{"paper-cells", "9 cells at the paper's 60k+150k protocol: the cycle engine does nearly all the work, so engine speed shows and service overhead is noise"},
	{"demo-grid", "72-cell 2k+6k grid with solo baselines: generator build, shared baselines and executor dispatch cost as much as the cycles"},
	{"run-mix", "open-loop cold, repeated and baseline runs against a journaled DirStore: service, spec, journal and store on the request path"},
	{"remote-grid", "demo-grid cells leased to a separate worker process: the only workload on the fabric lease, heartbeat and complete RPCs"},
}

// Only figures that stay steady on a shared host are gated. The
// reference host, a 2-vCPU virtual machine, loses up to half of its
// runnable time to other tenants (steal) for minutes at a time: that
// doubled one run-mix seed's cold-run latency between two runs, and
// moved the demo-grid's cells per wall second by a fifth within three
// minutes while its uops per CPU second held within 5%. So the rates
// divide by the CPU time the dwarnd processes used, which steal is not
// charged to; latencies and wall-time rates are printed with their
// sample counts but not gated. On run-mix a rate per wall second would
// in any case only echo the fixed offered rate. Changes in the host's
// CPU speed still move every timing: set medians of ten runs moved by
// up to a quarter between two sets run back to back. setup_s is the
// fastest of 21 launches spread over the run. Peak RSS barely moves
// with host speed and gets a tighter bound.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_cpu_s", "1/s", "higher", 0.25},
	{"sim_muops_per_cpu_s", "Muop/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var perLayer = []MetricDef{
	{"pipeline.ns_per_cycle", "ns", "lower", 0},
	{"pipeline.allocs_per_cycle", "count", "lower", 0},
	{"pipeline.uops_per_cycle", "uop/cycle", "higher", 0},
	{"workload.next_ns", "ns", "lower", 0},
	{"workload.gen_build_ms", "ms", "lower", 0},
	{"sim.run_ms.demo", "ms", "lower", 0},
	{"sim.run_ms.paper", "ms", "lower", 0},
	{"sim.fixed_ms", "ms", "lower", 0},
	{"spec.resolve_us", "us", "lower", 0},
	{"exec.queue_wait_ms", "ms", "lower", 0},
	{"exec.cell_ms", "ms", "lower", 0},
	{"exec.busy_ratio", "ratio", "higher", 0},
	{"exec.cached_ratio", "ratio", "higher", 0},
	{"service.submit_ms", "ms", "lower", 0},
	{"service.hit_ms", "ms", "lower", 0},
	{"service.done_lag_ms", "ms", "lower", 0},
	{"service.rejects", "count", "lower", 0},
	{"journal.append_us.p50", "us", "lower", 0},
	{"journal.append_us.p90", "us", "lower", 0},
	{"fabric.remote_overhead_ms", "ms", "lower", 0},
	{"fabric.requeues", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func manifest() Manifest {
	return Manifest{
		Command:    []string{"bash", "dwarnbench/run.sh"},
		Paths:      []string{"dwarnbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// encodeManifest renders the manifest as BENCHMARK.json bytes. Per-layer
// metrics have no bound, so their bound key is omitted; end-to-end
// bounds are always positive and so always present.
func encodeManifest(m Manifest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeManifest(path string) error {
	b, err := encodeManifest(manifest())
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
