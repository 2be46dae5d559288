package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one search or one request share Trace. Async marks a span
// that ran off its parent's goroutine (a prefetch worker), so it does not
// count against the parent's self time. Key names the configuration or
// request the call handled; it links spans recorded by different wrappers.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Async  bool   `json:"async,omitempty"`
	Key    string `json:"key,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip every wrapper's bookkeeping.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span // recorded, not yet taken
	kept  []span // taken and analysed, kept for writing out
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newID allocates a span or trace identifier.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// keep stores analysed spans until the run writes them out.
func (t *tracer) keep(spans []span) {
	t.mu.Lock()
	t.kept = append(t.kept, spans...)
	t.mu.Unlock()
}

// all returns every span of the run, kept and pending.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(append([]span(nil), t.kept...), t.spans...)
}

func sortSpans(ss []span) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
}

// selfTime is a span's duration minus the part of its interval covered by
// its synchronous children; overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		if c.Async || c.Parent != parent.ID {
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// writeSpans writes spans as JSON lines under dir, one file per run.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
