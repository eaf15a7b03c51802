package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval, recorded in memory and written out when the
// run ends. Start and End are nanoseconds since the tracer was created;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer records spans around the benchmark's own calls into each layer.
// A nil *tracer is valid and records nothing, so untraced runs share the
// code path and pay only a clock read per span.
type tracer struct {
	t0    time.Time
	spans []span
}

// spanRef is an open span: its index (-1 when untraced) and start time.
type spanRef struct {
	idx   int
	start time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span under parent (-1 for a root).
func (t *tracer) begin(name string, parent spanRef) spanRef {
	now := time.Now()
	if t == nil {
		return spanRef{idx: -1, start: now}
	}
	p := parent.idx
	t.spans = append(t.spans, span{Name: name, Start: now.Sub(t.t0).Nanoseconds(), Parent: p})
	return spanRef{idx: len(t.spans) - 1, start: now}
}

// root is the parent reference for top-level spans.
var root = spanRef{idx: -1}

// end closes s and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	now := time.Now()
	if t != nil && s.idx >= 0 {
		t.spans[s.idx].End = now.Sub(t.t0).Nanoseconds()
	}
	return now.Sub(s.start)
}

// attr attaches a named value to an open or closed span.
func (t *tracer) attr(s spanRef, name string, v float64) {
	if t == nil || s.idx < 0 {
		return
	}
	sp := &t.spans[s.idx]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]float64)
	}
	sp.Attrs[name] = v
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// write stores the spans, their self times and the run's stamp as JSON.
func (t *tracer) write(path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"env":     stamp,
		"spans":   t.spans,
		"self_ns": t.selfTimes(),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
