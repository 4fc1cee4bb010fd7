// Command dwarnbench is the repository's benchmark. It runs dwarnd as
// built from the checkout it runs in, drives one of four workloads
// (paper-cells, demo-grid, run-mix, remote-grid) through the /v2 HTTP
// API, checks every output, and prints each metric with its unit and
// sample count; the last line of standard output is one JSON object
// with the run's verdict and metrics. With -trace 1 it instead makes
// the traced run that gives the per-layer numbers.
//
// Run it through run.sh from the repository root, which builds dwarnd
// and dwarnbench first:
//
//	bash dwarnbench/run.sh --workload paper-cells --seed 1 --seconds 15 --trace 0
//	bash dwarnbench/run.sh -write-manifest   # regenerate BENCHMARK.json
//	bash dwarnbench/run.sh -pin              # regenerate pinned outputs
//
// The simulator is a model: it is not validated against hardware, and
// the benchmark reports no absolute-error figure for it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A run launches its dwarnd topology setupBefore times before the
// workload, keeping the last launch to serve it, and setupAfter times
// once the workload's topology is gone. setup_s is the fastest launch:
// a launch is a fixed start-up cost plus whatever the host's other
// tenants add, and spreading the launches over the run and taking the
// minimum keeps that noise out of the fixed cost. On a shared 2-vCPU
// virtual machine, over four sets of ten runs, the set medians of the
// per-run minimum moved at most 26% between sets, those of the lower
// quartile 38% and those of the median 42%.
const (
	setupBefore = 11
	setupAfter  = 10
)

// runDeadline bounds a whole run, set-up and checks included.
const runDeadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// bench is one run's state.
type bench struct {
	root, out string
	workload  string
	seed      uint64
	seconds   int
	nproc     int
	dir       string // this run's scratch directory

	c  *client
	l  *launcher
	tr *tracer // nil in untraced runs

	setupTimes []float64 // seconds, one per timed launch

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
	metrics           map[string]metricValue
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout to benchmark")
		out      = flag.String("out", ".bench_build", "build and scratch directory inside the checkout")
		workload = flag.String("workload", "paper-cells", "workload to run")
		seed     = flag.Uint64("seed", 1, "workload seed; 1 and 2 have pinned outputs")
		seconds  = flag.Int("seconds", runSeconds, "seconds of measured traffic")
		trace    = flag.Int("trace", 0, "1 = traced run giving the per-layer metrics")
		writeMan = flag.Bool("write-manifest", false, "write BENCHMARK.json at -root and exit")
		pin      = flag.Bool("pin", false, "recompute the pinned outputs for seeds 1 and 2 and exit")
	)
	flag.Parse()
	if *writeMan {
		if err := writeManifest(filepath.Join(*root, "BENCHMARK.json")); err != nil {
			fatal(err)
		}
		return
	}
	if *pin {
		if err := writePinned(filepath.Join(*root, "dwarnbench", "testdata", "pinned")); err != nil {
			fatal(err)
		}
		return
	}
	if !knownWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	bin := filepath.Join(*out, "dwarnd")
	if _, err := os.Stat(bin); err != nil {
		fatal(fmt.Errorf("dwarnd binary: %w", err))
	}
	dir := filepath.Join(*out, "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	nproc := runtime.NumCPU()
	b := &bench{
		root: *root, out: *out, workload: *workload, seed: *seed, seconds: *seconds,
		nproc: nproc, dir: dir, c: newClient(nproc),
		l:       &launcher{bin: bin, dir: dir, workers: nproc},
		metrics: map[string]metricValue{},
	}
	defer b.c.close()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var err error
	if *trace == 1 {
		b.tr = newTracer()
		err = b.tracedRun(ctx)
	} else {
		switch b.workload {
		case "run-mix":
			err = b.runMix(ctx)
		default:
			err = b.runGrid(ctx, grids[b.workload])
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	if err := b.emit(*trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarnbench:", err)
	os.Exit(1)
}

// op counts one attempted operation; fail counts one failed operation
// and keeps its reason for the report.
func (b *bench) op() { b.attempted.Add(1) }

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// metric records a reported metric; its unit comes from the manifest.
func (b *bench) metric(name string, v float64, n int) {
	unit := ""
	for _, m := range append(append([]MetricDef(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			unit = m.Unit
		}
	}
	if unit == "" {
		panic("dwarnbench: metric " + name + " is not in the manifest")
	}
	b.mu.Lock()
	b.metrics[name] = metricValue{Value: v, Unit: unit, n: n}
	b.mu.Unlock()
}

// tail prints a latency distribution's median and, when at least ten
// samples lie beyond it, its p90.
func (b *bench) tail(what string, xs []float64) {
	p50, _ := Percentile(xs, 0.5)
	p90, ok := Percentile(xs, 0.9)
	if ok {
		b.notef("%s: p50 %.3f ms, p90 %.3f ms (n=%d)", what, p50, p90, len(xs))
	} else {
		b.notef("%s: p50 %.3f ms (n=%d; too few samples for p90)", what, p50, len(xs))
	}
}

// figure prints a measured figure that the benchmark reports but does
// not gate, by the name the end-to-end metrics would give it.
func (b *bench) figure(name, unit string, v float64, n int, how string) {
	b.notef("figure %-28s %16.6f %-9s n=%d (%s; not gated)", name, v, unit, n, how)
}

// p90Figure prints xs's p90 as a figure when at least ten samples lie
// beyond it.
func (b *bench) p90Figure(name string, xs []float64, how string) {
	if p90, ok := Percentile(xs, 0.9); ok {
		b.figure(name, "ms", p90, len(xs), how)
	} else {
		b.notef("figure %s: %d samples is too few for a p90", name, len(xs))
	}
}

// notef prints one report line. Report lines go to standard output
// ahead of the final JSON line.
func (b *bench) notef(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// setup launches the topology setupBefore times and keeps the last
// one running for the workload.
func (b *bench) setup(ctx context.Context, kind string) (*topology, error) {
	// An untimed first launch pages the binary in, which only the first
	// launch after a build pays.
	t, _, err := b.l.launch(ctx, b.c, kind)
	if err != nil {
		return nil, err
	}
	t.kill()
	return b.launches(ctx, kind, setupBefore, true)
}

// finishSetup launches the topology setupAfter more times, once the
// workload's own topology is stopped, and records setup_s.
func (b *bench) finishSetup(ctx context.Context, kind string) error {
	if _, err := b.launches(ctx, kind, setupAfter, false); err != nil {
		return err
	}
	b.notef("set-up launches (ms): %v", rounded(scaled(b.setupTimes, 1e3)))
	b.metric("setup_s", slices.Min(b.setupTimes), len(b.setupTimes))
	return nil
}

// launches makes n timed launches; with keep the last one is returned
// running, and every other is killed.
func (b *bench) launches(ctx context.Context, kind string, n int, keep bool) (*topology, error) {
	for i := 0; i < n; i++ {
		t, d, err := b.l.launch(ctx, b.c, kind)
		if err != nil {
			return nil, err
		}
		b.setupTimes = append(b.setupTimes, d.Seconds())
		if keep && i == n-1 {
			return t, nil
		}
		// A set-up-only launch did no work, so it is killed rather than
		// drained: a coordinator's drain waits out a lease long-poll,
		// about a second per launch.
		t.kill()
	}
	return nil, nil
}

// recordRSS records peak_rss_mb: VmHWM summed over the topology's
// processes. Callers read it after a fixed amount of work, because the
// result cache grows with every cell a faster build fits in the window.
func (b *bench) recordRSS(t *topology) error {
	rss, each, err := t.peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	b.notef("peak RSS per dwarnd process (kB): %v", each)
	b.metric("peak_rss_mb", rss, len(each))
	return nil
}

// finishTopology reports the fabric's requeue count, then stops the
// processes.
func (b *bench) finishTopology(t *topology) error {
	if t.kind == topoRemote {
		var fs fabricStatus
		if err := b.c.getJSON(context.Background(), t.base+"/v2/fabric", "", &fs); err != nil {
			return fmt.Errorf("fabric status: %w", err)
		}
		b.notef("fabric: requeues %d", fs.RequeuesTotal)
		if fs.RequeuesTotal != 0 {
			b.op()
			b.fail("fabric requeued %d cells with no worker lost", fs.RequeuesTotal)
		}
	}
	t.stop()
	return nil
}

// deriveSeed maps (bench seed, stream, index) to a simulation seed with
// splitmix64, so every workload's inputs follow from -seed alone.
func deriveSeed(seed, stream, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%1_000_000_000 + 1
}

// emit prints the metrics, the host stamp and the verdict, writes the
// result record, and prints the final JSON line.
func (b *bench) emit(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	final := map[string]metricValue{}
	for _, d := range defs {
		m, ok := b.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		final[d.Name] = m
		fmt.Printf("# metric %-28s %16.6f %-9s n=%d\n", d.Name, m.Value, m.Unit, m.n)
	}
	host := hostFingerprint(b.root)
	host.DwarndFlags = b.l.flags
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	att, failed := b.attempted.Load(), b.failed.Load()
	if att < 1 {
		att = 1
	}
	codes := b.c.rejectCounts()
	keys := make([]int, 0, len(codes))
	for k := range codes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, codes[k]))
	}
	fmt.Printf("# error_ratio %.6f (%d failed of %d attempted; non-2xx by code {%s})\n",
		float64(failed)/float64(att), failed, att, strings.Join(parts, " "))
	for _, f := range b.failures {
		fmt.Printf("# failure: %s\n", f)
	}
	fmt.Println("# the simulator is a model, unvalidated against hardware; no absolute-error figure is claimed")

	verdict := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, att, failed, final}
	line, err := json.Marshal(verdict)
	if err != nil {
		return err
	}
	record := struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Seconds  int             `json:"seconds"`
		Traced   bool            `json:"traced"`
		Time     time.Time       `json:"time"`
		Host     Host            `json:"host"`
		Verdict  json.RawMessage `json:"verdict"`
		Failures []string        `json:"failures,omitempty"`
	}{b.workload, b.seed, b.seconds, traced, time.Now().UTC(), host, line, b.failures}
	resDir := filepath.Join(b.out, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d-%d", b.workload, b.seed, map[bool]int{false: 0, true: 1}[traced], os.Getpid()))
	rb, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", rb, 0o644); err != nil {
		return fmt.Errorf("write result record: %w", err)
	}
	fmt.Printf("# result record written to %s.json\n", stem)
	if b.tr != nil {
		if err := b.tr.writeJSONL(stem + ".spans.jsonl"); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans written to %s.spans.jsonl\n", stem)
	}
	fmt.Println(string(line))
	return nil
}
