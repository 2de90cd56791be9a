package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one request share
// a trace id; Parent is the id of the span that caused this one (0 for a
// root).  Times are nanoseconds since the tracer was created.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer buffers spans in memory and writes them out once, at exit.  A nil
// tracer is the end-to-end mode: nothing is wrapped and nothing recorded, so
// end-to-end metrics never pay for tracing.  All spans are recorded from the
// benchmark's own files, around its calls into each layer.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time) {
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

const traceHeader = "X-Bench-Trace"

func setTraceHeader(r *http.Request, trace uint64) {
	r.Header.Set(traceHeader, strconv.FormatUint(trace, 10))
}

// wrap returns h behind a handler span: a request carrying a trace header
// gets a "server.handler" span whose parent is the client's root span.  The
// server ignores the header; the span is taken outside it.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(trace, t.newID(), trace, "server.handler", start, time.Now())
	})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the durations of
// its direct children.
func selfTimes(spans []span) map[uint64]int64 {
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below; closing twice is harmless
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
