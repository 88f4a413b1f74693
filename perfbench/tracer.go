package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side span: a call into a layer, timed around the
// public function the benchmark invoked, or an engine stage copied from a
// job trace under its parent request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since the tracer started (engine stages: since their job started)
	DurS   float64 `json:"dur_s"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for none) and returns its id and the
// function that ends it.
func (t *tracer) start(name string, parent int) (int, func()) {
	begin := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartS: begin.Sub(t.t0).Seconds()})
	t.mu.Unlock()
	return id, func() {
		d := time.Since(begin).Seconds()
		t.mu.Lock()
		t.spans[id-1].DurS = d
		t.mu.Unlock()
	}
}

// add records a finished span measured elsewhere.
func (t *tracer) add(name string, parent int, startS, durS float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartS: startS, DurS: durS})
	t.mu.Unlock()
}

// write saves the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
