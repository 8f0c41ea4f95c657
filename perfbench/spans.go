package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"tracecache/internal/experiments"
)

// span is one timed call the benchmark made into a layer. Spans of one
// point or job share Key; Parent is the ID of the span that caused it (0
// for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	// StartNs and DurNs are nanoseconds since the tracer started.
	StartNs int64 `json:"startNs"`
	DurNs   int64 `json:"durNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent uint64, name, key string) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, StartNs: now, DurNs: -1})
	return id
}

// end closes the span with the given ID.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurNs = now - s.StartNs
}

// setKey sets the key of an open or closed span, for spans opened before
// the point or job they belong to had an identifier.
func (t *tracer) setKey(id uint64, key string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Key = key
}

// do runs fn inside a span.
func (t *tracer) do(parent uint64, name, key string, fn func()) {
	id := t.begin(parent, name, key)
	fn()
	t.end(id)
}

// runListener turns a runner's lifecycle events into spans under parent:
// one "runner.point" span per simulated point, from the moment a worker
// slot is taken to completion, and a zero-length "runner.memo_hit" span
// for each request served from the memo. The point key is the span key.
func (t *tracer) runListener(parent uint64) func(experiments.RunEvent) {
	if t == nil {
		return nil
	}
	var mu sync.Mutex
	open := make(map[string]uint64)
	return func(ev experiments.RunEvent) {
		switch {
		case ev.Phase == experiments.RunStarted:
			id := t.begin(parent, "runner.point", ev.Key)
			mu.Lock()
			open[ev.Key] = id
			mu.Unlock()
		case ev.Phase == experiments.RunDone && ev.Memoized:
			t.end(t.begin(parent, "runner.memo_hit", ev.Key))
		case ev.Phase == experiments.RunDone:
			mu.Lock()
			id, ok := open[ev.Key]
			delete(open, ev.Key)
			mu.Unlock()
			if ok {
				t.end(id)
			} else {
				// Served without taking a worker slot (store hit).
				t.end(t.begin(parent, "runner.resolved", ev.Key))
			}
		}
	}
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
