package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the layer's public functions. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so the untraced pass runs the
// same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// len is the number of spans recorded so far: a mark that
// snapshot()[mark:] later turns into "the spans since".
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanRef rides a context from the caller of a layer to the benchmark's
// wrapper around the next layer down, so the child span finds its
// parent and request id.
type spanRef struct {
	t      *tracer
	parent int32
	req    int64
}

type spanRefKey struct{}

func withSpan(ctx context.Context, t *tracer, parent int32, req int64) context.Context {
	return context.WithValue(ctx, spanRefKey{}, spanRef{t, parent, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanRefKey{}).(spanRef)
	return ref
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (parallel legs) and may stick out of the parent (clock skew
// between goroutines); the covered part is the union of the child
// intervals clipped to the parent, so neither case subtracts twice or
// goes negative.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cursor := s.Start // everything before cursor is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	count       int
	totalNS     int64 // sum of durations
	selfNS      int64 // sum of self times
	maxNS       int64 // longest single span
	durationsNS []float64
}

// summarize groups finished spans by name.
func summarize(spans []span) map[string]*spanSummary {
	self := selfTimes(spans)
	out := make(map[string]*spanSummary)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never ended: the run was cut short
		}
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		d := s.End - s.Start
		sum.count++
		sum.totalNS += d
		sum.selfNS += self[s.ID]
		sum.maxNS = max(sum.maxNS, d)
		sum.durationsNS = append(sum.durationsNS, float64(d))
	}
	return out
}
