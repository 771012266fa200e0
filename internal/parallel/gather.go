package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Gather is the repository's one scatter/gather: it runs leg(ctx, i) for
// every i in [0, n) and returns once all started legs have. Shards,
// queries of a batch, segments of a live snapshot and replicas of a
// coordinator are all fanned out through it, so these five rules hold
// for each of them:
//
//  1. Legs are claimed in ascending i by at most workers goroutines, of
//     which the caller's is one: workers <= 1 starts none.
//  2. A leg that returns an error cancels the context its siblings see.
//  3. Legs not yet claimed when that context is done never run.
//  4. If the caller's ctx is done the result is ctx.Err(), whatever the
//     legs returned.
//  5. Otherwise the result is the lowest-index error that is not a
//     context error — the root cause, not the cancellations it caused —
//     else the lowest-index error, else nil.
//
// Legs deliver results by writing into slices they close over, one slot
// per i. A leg whose failure must not fail the whole (a quarantined
// segment, an unreachable replica) records that itself and returns nil.
func Gather(ctx context.Context, n, workers int, leg func(ctx context.Context, i int) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for gctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = leg(gctx, i); errs[i] != nil {
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
