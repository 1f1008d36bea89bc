package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the span recorder of the traced run.  Spans are recorded
// from the benchmark's own files, around the calls into each layer; they
// stay in memory until the run ends and are then written as one JSON
// file per workload.

// spanID indexes a span in its tracer; 0 is "no parent".
type spanID int

// span is one timed call: what ran, when, under which span, for which op.
type span struct {
	ID     spanID  `json:"id"`
	Parent spanID  `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // seconds since the tracer started
	EndS   float64 `json:"end_s"`
	// SelfS is the span's duration minus the part of its interval its
	// child spans cover; filled in when the trace is written.
	SelfS float64 `json:"self_s"`
}

// tracer collects spans.  A nil *tracer records nothing, so the client
// loop carries one unconditionally and tracing-off runs pay a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id, so children can name it as
// their parent while it is still running.
func (t *tracer) open(name string, parent spanID, op int) spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartS: time.Since(t.epoch).Seconds()})
	return id
}

// close ends the span and returns its duration.
func (t *tracer) close(id spanID) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndS = time.Since(t.epoch).Seconds()
	return time.Duration((s.EndS - s.StartS) * float64(time.Second))
}

// begin opens a leaf span and returns the function that ends it.
func (t *tracer) begin(name string, parent spanID, op int) func() {
	if t == nil {
		return func() {}
	}
	id := t.open(name, parent, op)
	return func() { t.close(id) }
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover.  Children may overlap
// each other (concurrent calls); the covered part is the union of their
// intervals clipped to the parent's.
func selfTimes(spans []span) map[spanID]float64 {
	type iv struct{ lo, hi float64 }
	children := make(map[spanID][]iv)
	byID := make(map[spanID]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartS, p.StartS), min(s.EndS, p.EndS)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[spanID]float64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := 0.0, s.StartS
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = (s.EndS - s.StartS) - covered
	}
	return self
}

// write stores the spans, with their self times, at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].SelfS = self[spans[i].ID]
	}
	data, err := json.MarshalIndent(map[string]any{"spans": spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
