package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Root is the span of the operation the call
// belongs to (its own ID for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns every span's duration minus the part its children
// cover, grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.dur()-child[i])
	}
	return out
}

// coverage is the share of the named roots' time that their child
// layer spans account for.
func (t *tracer) coverage(rootName string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, covered time.Duration
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == rootName {
			total += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Parent > 0 && t.spans[s.Parent-1].Parent == 0 && t.spans[s.Parent-1].Name == rootName {
			covered += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// write saves the spans and the environment stamp as JSON.
func (t *tracer) write(dir string, env map[string]any) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("trace-%v-%v.json", env["workload"], env["seed"]))
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e6
	}
	return median(xs)
}
