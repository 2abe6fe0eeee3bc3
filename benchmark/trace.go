package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Parent is the id of the enclosing span, 0
// for a root. Trace groups the spans of one pass, cell or job.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pass nil and pay only a
// nil check. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent int, trace, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, attaching counts taken at its boundaries.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// record adds a span that has already ended and returns its id, for
// callers that learn the trace id only at the end (a job's id comes back
// from its submit).
func (t *tracer) record(parent int, trace, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// snapshot returns a copy of the spans with self times filled in.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fillSelf(out)
	return out
}

// fillSelf sets each span's self time: its duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// requests under one job) count once.
func fillSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := lo
	for _, k := range kids {
		a, b := max(k.Start, cur), min(k.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memCounts is the allocation state at a span boundary.
type memCounts struct{ mallocs, bytes uint64 }

func readMem() memCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounts{ms.Mallocs, ms.TotalAlloc}
}

func (m memCounts) sub(o memCounts) memCounts {
	return memCounts{m.mallocs - o.mallocs, m.bytes - o.bytes}
}
