package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/rank"
)

// The allocation gates below enforce the steady-state budget the caching
// work depends on: a warmed MaxScore or Progressive engine must run a
// complete search with ZERO heap allocations. They are skipped under the
// race detector (raceEnabled), which deliberately randomizes sync.Pool
// behavior, and they force a GC before measuring so a pool emptied by an
// earlier collection is refilled during warmup, not during measurement.

func TestMaxScoreSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ms, _ := buildMaxScore(t)
	f := fix(t)
	ctx := context.Background()
	dst := make([]rank.DocScore, 0, 16)

	// Warm every pooled structure (state, heap, iterators)
	// with the exact query mix the measurement uses.
	for _, q := range f.queries {
		var err error
		dst, err = ms.SearchContextInto(ctx, q, 10, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()

	for _, q := range f.queries[:8] {
		q := q
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			dst, err = ms.SearchContextInto(ctx, q, 10, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warmed MaxScore search allocated %.1f allocs/op, want 0 (query %v)", allocs, q.Terms)
		}
	}
}

func TestProgressiveSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p, _ := buildMulti(t)
	f := fix(t)
	ctx := context.Background()
	opts := ProgressiveOptions{N: 10}
	dst := make([]rank.DocScore, 0, 16)

	for _, q := range f.queries {
		r, err := p.SearchContextInto(ctx, q, opts, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = r.Top
	}
	runtime.GC()

	for _, q := range f.queries[:8] {
		q := q
		allocs := testing.AllocsPerRun(20, func() {
			r, err := p.SearchContextInto(ctx, q, opts, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = r.Top
		})
		if allocs != 0 {
			t.Fatalf("warmed Progressive search allocated %.1f allocs/op, want 0 (query %v)", allocs, q.Terms)
		}
	}
}
