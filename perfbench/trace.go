package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. All spans of one
// frame, batch or simulated window share an ID.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced runs share the traced code paths.
// Fleet streams record concurrently, hence the mutex.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// on returns the tracer for step n of a loop, or nil: traced steps
// alternate with untraced ones, so a traced run also measures its own
// overhead under the same host conditions (outcome.splitStep).
func (t *tracer) on(n int) *tracer {
	if n%2 == 1 {
		return nil
	}
	return t
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfMS returns, for every span named name, its duration minus the
// part of it that its child spans cover, in milliseconds.
func (t *tracer) selfMS(name string) []float64 {
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[int32(i)]))/1e6)
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans and the host stamp as JSON at path.
func (t *tracer) write(path string, host hostStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Host  hostStamp `json:"host"`
		Spans []span    `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
