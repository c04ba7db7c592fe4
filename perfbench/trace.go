package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<operation>";
// Parent is the enclosing span's ID (0 at top level); Req groups the
// spans of one request, script batch, or setup.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced code paths can share
// helpers with traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += time.Duration(max(0, s.End-s.Start-covered[s.ID]))
	}
	return self
}

// write stores every span and the per-layer self times as one JSON
// document at path, and prints the self times to w.
func (t *tracer) write(path, workload string, seed int64, w io.Writer) error {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	selfMS := make(map[string]float64, len(self))
	for l, d := range self {
		layers = append(layers, l)
		selfMS[l] = ms(d)
	}
	slices.Sort(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "trace self time %-10s %12.3f ms\n", l, selfMS[l])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfMS, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", len(t.spans), path)
	return nil
}
