package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// stepCancelCtx reports Canceled from its Nth Err() poll onward — a
// deterministic mid-loop cancellation that needs no goroutines or
// timing: the engine's own poll cadence triggers it.
type stepCancelCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func newStepCancel(after int64) *stepCancelCtx {
	return &stepCancelCtx{Context: context.Background(), after: after}
}

func (c *stepCancelCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSearchContextPreCancelled: a context already cancelled at entry
// must be refused before any postings work on all three engines.
func TestSearchContextPreCancelled(t *testing.T) {
	f := fix(t)
	ms, _ := buildMaxScore(t)
	p, _ := buildMulti(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := f.freqQueries[0]
	if _, err := f.engine.SearchContext(ctx, q, Options{N: 10, Mode: ModeFull}); !errors.Is(err, context.Canceled) {
		t.Errorf("Engine: err = %v, want context.Canceled", err)
	}
	if _, err := ms.SearchContextInto(ctx, q, 10, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxScore: err = %v, want context.Canceled", err)
	}
	if _, err := p.SearchContextInto(ctx, q, ProgressiveOptions{N: 10}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Progressive: err = %v, want context.Canceled", err)
	}
}

// TestSearchContextMidQueryCancel: cancellation that fires after the
// entry check — mid postings traversal — is observed at block
// granularity and surfaces as the context error, not as a wrong answer.
func TestSearchContextMidQueryCancel(t *testing.T) {
	f := fix(t)
	ms, _ := buildMaxScore(t)
	p, _ := buildMulti(t)
	q := f.freqQueries[0] // frequent terms: long lists, many polls

	// after=2 lets the entry check (and one early poll) pass, so the
	// cancellation lands inside the evaluation loops.
	if _, err := f.engine.SearchContext(newStepCancel(2), q, Options{N: 10, Mode: ModeFull}); !errors.Is(err, context.Canceled) {
		t.Errorf("Engine: err = %v, want context.Canceled", err)
	}
	if _, err := ms.SearchContextInto(newStepCancel(2), q, 10, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxScore: err = %v, want context.Canceled", err)
	}
	if _, err := p.SearchContextInto(newStepCancel(2), q, ProgressiveOptions{N: 10}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Progressive: err = %v, want context.Canceled", err)
	}
}

// TestSearchContextCancelEveryDepth sweeps the cancellation point
// across the whole poll sequence of one query: at every depth the
// engine must return context.Canceled (never a partial result), and
// once the sweep passes the query's total poll count, the full answer
// must come back bit-identical to the uncancelled run.
func TestSearchContextCancelEveryDepth(t *testing.T) {
	ms, _ := buildMaxScore(t)
	q := fix(t).freqQueries[1]

	probe := newStepCancel(1 << 62) // never fires; counts the polls
	want, err := ms.SearchContextInto(probe, q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := probe.calls.Load()
	if total < 2 {
		t.Fatalf("query polled ctx only %d times; fixture too small to sweep", total)
	}
	step := total/32 + 1 // ~32 sample points across the traversal
	for after := int64(0); after <= total; after += step {
		got, err := ms.SearchContextInto(newStepCancel(after), q, 10, nil)
		if err == nil {
			// The poll sequence can legitimately be shorter here (the
			// stop-early paths) — but then the answer must be the truth.
			if len(got) != len(want) {
				t.Fatalf("after=%d: completed with %d results, want %d", after, len(got), len(want))
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
		}
		if got != nil {
			t.Fatalf("after=%d: cancelled search returned partial results", after)
		}
	}
	got, err := ms.SearchContextInto(newStepCancel(total+1), q, 10, nil)
	if err != nil {
		t.Fatalf("after=total: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-sweep answer diverged at rank %d: %v vs %v", i, got[i], want[i])
		}
	}
}
