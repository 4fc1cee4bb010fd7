package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Topology kinds: one dwarnd with an in-memory cache, one dwarnd with a
// durable store and journal, or a pure coordinator plus one worker.
const (
	topoLocal  = "local"
	topoStore  = "store"
	topoRemote = "remote"
)

// proc is one dwarnd process the benchmark started.
type proc struct {
	cmd *exec.Cmd
	log *os.File
}

// topology is a running set of dwarnd processes and the base URL
// clients talk to.
type topology struct {
	kind  string
	base  string
	procs []*proc
}

// launcher starts dwarnd topologies from one binary, each launch in a
// fresh state directory under dir.
type launcher struct {
	bin     string
	dir     string
	workers int
	n       int
	// flags records every argument vector used, for the host stamp.
	flags [][]string
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (l *launcher) start(args []string, logName string) (*proc, error) {
	f, err := os.Create(filepath.Join(l.dir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(l.bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	// The kernel kills dwarnd if the benchmark dies first, so no run
	// leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start dwarnd: %w", err)
	}
	l.flags = append(l.flags, args)
	return &proc{cmd: cmd, log: f}, nil
}

// launch starts a topology and returns once it serves: /healthz answers
// 200 and, for the remote kind, the worker is listed on /v2/fabric. The
// returned duration runs from the first process start to that point.
func (l *launcher) launch(ctx context.Context, c *client, kind string) (*topology, time.Duration, error) {
	l.n++
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	t := &topology{kind: kind, base: "http://" + addr}
	args := []string{"-addr", addr, "-workers", strconv.Itoa(l.workers), "-log-level", "warn"}
	switch kind {
	case topoStore:
		store := filepath.Join(l.dir, fmt.Sprintf("store-%d", l.n))
		args = append(args, "-store", store)
	case topoRemote:
		args = append(args, "-fabric-local-workers", "0")
	}
	begin := time.Now()
	p, err := l.start(args, fmt.Sprintf("dwarnd-%d.log", l.n))
	if err != nil {
		return nil, 0, err
	}
	t.procs = append(t.procs, p)
	if err := c.waitHealthy(ctx, t.base); err != nil {
		t.stop()
		return nil, 0, err
	}
	if kind == topoRemote {
		w, err := l.start([]string{"-worker", "-coordinator", t.base, "-worker-name", "bench-worker",
			"-worker-capacity", strconv.Itoa(l.workers), "-log-level", "warn"}, fmt.Sprintf("worker-%d.log", l.n))
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.procs = append(t.procs, w)
		if err := c.waitWorker(ctx, t.base); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	return t, time.Since(begin), nil
}

// peakRSSMB sums VmHWM over the topology's live processes.
func (t *topology) peakRSSMB() (float64, []int64, error) {
	var total int64
	var each []int64
	for _, p := range t.procs {
		kb, err := peakRSSKB(p.cmd.Process.Pid)
		if err != nil {
			return 0, nil, err
		}
		each = append(each, kb)
		total += kb
	}
	return float64(total) / 1024, each, nil
}

// cpuSeconds sums the CPU time used so far by the topology's processes.
func (t *topology) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range t.procs {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// stop shuts the processes down in reverse start order (workers before
// their coordinator): SIGTERM, a bounded wait for the drain, then
// SIGKILL. It returns once every process has exited.
func (t *topology) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		p := t.procs[i]
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = p.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-done
		}
		p.log.Close()
	}
	t.procs = nil
}

// kill stops the processes with SIGKILL and waits for each to exit.
func (t *topology) kill() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		p := t.procs[i]
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
		p.log.Close()
	}
	t.procs = nil
}

// readyPoll is the readiness poll period: small against a set-up time
// of a few milliseconds, so setup_s is not quantized by the poll. Until
// dwarnd listens a poll is a refused connect and costs nothing. The
// worker poll asks a live coordinator to encode its fabric status, so
// it runs four times less often and leaves the CPU to the starting
// worker.
const (
	readyPoll  = 250 * time.Microsecond
	workerPoll = time.Millisecond
)

func (c *client) waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, _, err := c.get(ctx, base+"/healthz", ""); err == nil && st == 200 {
			return nil
		}
		time.Sleep(readyPoll)
	}
	return errors.New("dwarnd did not become healthy within 30s")
}

func (c *client) waitWorker(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, body, err := c.get(ctx, base+"/v2/fabric", ""); err == nil && st == 200 {
			var fs fabricStatus
			if json.Unmarshal(body, &fs) == nil {
				for _, w := range fs.Workers {
					if !w.Local {
						return nil
					}
				}
			}
		}
		time.Sleep(workerPoll)
	}
	return errors.New("fabric worker did not register within 30s")
}

// fabricStatus is the part of GET /v2/fabric the benchmark reads.
type fabricStatus struct {
	RequeuesTotal uint64 `json:"requeues_total"`
	Workers       []struct {
		Local bool `json:"local"`
	} `json:"workers"`
}
