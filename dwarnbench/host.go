package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Host is the fingerprint stamped on every result record: enough to
// tell whether two records can be compared at all.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the checkout is a repository;
	// otherwise Commit is "unknown" and SourceDigest alone identifies
	// the code under test.
	Commit       string `json:"commit"`
	Dirty        string `json:"dirty"`
	SourceDigest string `json:"source_sha256"`
	// DwarndFlags lists the exact argument vector of every dwarnd
	// process the run launched.
	DwarndFlags [][]string `json:"dwarnd_flags"`
}

func hostFingerprint(root string) Host {
	h := Host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			h.Dirty = strconv.FormatBool(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	h.SourceDigest = sourceDigest(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file of the code under
// test (paths and contents, in path order), skipping build output and
// the benchmark itself.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "dwarnbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseVmHWM extracts the peak resident set size, in kB, from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSKB reads a live process's VmHWM.
func peakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat, USER_HZ,
// which Linux fixes at 100 for user space on every architecture.
const userHZ = 100

// parseCPUTicks returns utime + stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseCPUTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	// After ')' come field 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the name, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return utime + stime, nil
}

// cpuSeconds reads the CPU time a live process has used so far, all
// its threads included.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseCPUTicks(string(b))
	if err != nil {
		return 0, err
	}
	return float64(ticks) / userHZ, nil
}
