package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls. Spans of one request share Trace,
// which is also sent to dwarnd as X-Request-ID.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose ends were observed elsewhere, such as the
// started and done events of a sweep cell.
func (t *tracer) add(trace, name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the self time of every span in the
// subtree rooted at root: a span's duration minus the part of its
// interval that its children cover. When children do not overlap one
// another, the self times sum to the root's duration.
func selfTimes(spans []Span, root int) map[string]int64 {
	children := map[int][]Span{}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	var walk func(s Span)
	walk = func(s Span) {
		kids := children[s.ID]
		out[s.Layer] += s.dur() - covered(s, kids)
		for _, k := range kids {
			walk(k)
		}
	}
	if r, ok := byID[root]; ok {
		walk(r)
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// printBudget writes a per-layer self-time table for one root span.
func printBudget(w io.Writer, title string, spans []Span, root int) {
	var wall int64
	for _, s := range spans {
		if s.ID == root {
			wall = s.dur()
		}
	}
	self := selfTimes(spans, root)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "budget %s: wall %.3f ms\n", title, float64(wall)/1e6)
	fmt.Fprintf(w, "  %-10s %12s %7s\n", "layer", "self_ms", "share")
	var total int64
	for _, l := range layers {
		total += self[l]
		fmt.Fprintf(w, "  %-10s %12.3f %6.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(max(wall, 1)))
	}
	fmt.Fprintf(w, "  %-10s %12.3f (sum of self times; wall %.3f)\n", "total", float64(total)/1e6, float64(wall)/1e6)
}
