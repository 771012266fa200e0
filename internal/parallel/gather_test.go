package parallel

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/rank"
	"repro/internal/storage"
)

var errLeg = errors.New("leg failed")

// TestGatherWorkerCounts: every leg runs exactly once whatever the
// worker count, never more than min(workers, n) at a time, and that many
// do run at once — the first legs wait for each other, so a Gather that
// spent fewer goroutines would hang here.
func TestGatherWorkerCounts(t *testing.T) {
	const n = 8
	for _, workers := range []int{0, 1, 2, n, n + 5} {
		width := max(1, min(workers, n))
		var inside, peak atomic.Int64
		var ran [n]atomic.Int64
		var order []int // appended under mu
		var mu sync.Mutex
		together := make(chan struct{})
		err := Gather(context.Background(), n, workers, func(_ context.Context, i int) error {
			ran[i].Add(1)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			now := inside.Add(1)
			defer inside.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if i < width {
				if now == int64(width) {
					close(together)
				}
				<-together
			}
			return nil
		})
		if err != nil {
			t.Errorf("workers %d: err = %v", workers, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Errorf("workers %d: leg %d ran %d times", workers, i, c)
			}
		}
		if p := peak.Load(); p != int64(width) {
			t.Errorf("workers %d: %d legs ran at once, want %d", workers, p, width)
		}
		if width == 1 {
			for i, got := range order {
				if got != i {
					t.Errorf("workers %d: legs ran in order %v, want ascending", workers, order)
					break
				}
			}
		}
	}
}

// TestGatherOneWorkerStartsNoGoroutine: the caller's goroutine is the
// one worker.
func TestGatherOneWorkerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	err := Gather(context.Background(), 4, 1, func(context.Context, int) error {
		// Stragglers of earlier tests may exit meanwhile; none may appear.
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("%d goroutines inside a leg, %d before Gather", now, before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherLegErrorCancelsSiblings: leg 3 of 8 fails while legs 0-2 are
// still running on the other three workers. They observe the
// cancellation, the result is leg 3's error rather than the context
// errors its siblings return at lower indexes, and legs 4-7 — unclaimed
// when it failed — never run.
func TestGatherLegErrorCancelsSiblings(t *testing.T) {
	var started sync.WaitGroup
	started.Add(3)
	var ran [8]atomic.Bool
	err := Gather(context.Background(), 8, 4, func(ctx context.Context, i int) error {
		ran[i].Store(true)
		if i == 3 {
			started.Wait()
			return errLeg
		}
		started.Done()
		<-ctx.Done()
		return ctx.Err()
	})
	if err != errLeg {
		t.Errorf("err = %v, want the failing leg's own error", err)
	}
	for i := range ran {
		if got, want := ran[i].Load(), i <= 3; got != want {
			t.Errorf("leg %d ran = %v, want %v", i, got, want)
		}
	}
}

// TestGatherErrorSelection: with every leg claimed before any returns,
// the result is the lowest-index error that is not a context error, and
// the lowest-index error when there is no other kind.
func TestGatherErrorSelection(t *testing.T) {
	errOther := errors.New("another leg failed")
	cases := []struct {
		name string
		errs [6]error
		want error
	}{
		{name: "no error"},
		{name: "context errors only", errs: [6]error{1: context.DeadlineExceeded, 4: context.Canceled}, want: context.DeadlineExceeded},
		{name: "root cause after context noise", errs: [6]error{1: context.Canceled, 4: errLeg}, want: errLeg},
		{name: "two root causes", errs: [6]error{2: errLeg, 5: errOther}, want: errLeg},
	}
	for _, tc := range cases {
		var claimed sync.WaitGroup
		claimed.Add(len(tc.errs))
		err := Gather(context.Background(), len(tc.errs), len(tc.errs), func(_ context.Context, i int) error {
			claimed.Done()
			claimed.Wait()
			return tc.errs[i]
		})
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestGatherCallerCancelWins: once the caller's own context is done the
// result is its error, even when a leg failed for a reason of its own.
func TestGatherCallerCancelWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Gather(ctx, 3, 2, func(_ context.Context, i int) error {
		if i == 0 {
			cancel()
			return errLeg
		}
		return nil
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestGatherNoLegs(t *testing.T) {
	leg := func(context.Context, int) error {
		t.Error("a leg ran")
		return nil
	}
	if err := Gather(context.Background(), 0, 4, leg); err != nil {
		t.Errorf("err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Gather(ctx, 0, 4, leg); err != context.Canceled {
		t.Errorf("cancelled caller: err = %v, want context.Canceled", err)
	}
}

// gateScorer is BM25 that lets a test hold one query mid-search: once
// armed, every Score of the slow term takes a millisecond, and every
// other term's first waits until the slow term has been scored.
type gateScorer struct {
	rank.BM25
	slow   rank.TermStat
	armed  atomic.Bool
	slowN  atomic.Int64 // Score calls for slow
	otherN atomic.Int64 // Score calls for every other term
	once   sync.Once
	inside chan struct{} // closed by slow's first armed Score
}

func (g *gateScorer) Score(tf, docLen int32, t rank.TermStat, c rank.CorpusStat) float64 {
	if t == g.slow {
		g.slowN.Add(1)
		if g.armed.Load() {
			g.once.Do(func() { close(g.inside) })
			time.Sleep(time.Millisecond)
		}
	} else {
		g.otherN.Add(1)
		if g.armed.Load() {
			<-g.inside
		}
	}
	return g.BM25.Score(tf, docLen, t, c)
}

// TestSearchBatchFailureCancelsRunningSibling: a batch query that fails
// cancels a sibling that is already mid-search — not just the queries not
// yet started — and the batch reports the failure, not the sibling's
// context error. Query b's pages are resident, so it cannot fail and,
// slowed by the scorer, would take over a second to finish; query a
// waits until b is under way, then hits a page the disk refuses.
func TestSearchBatchFailureCancelsRunningSibling(t *testing.T) {
	f := fix(t)
	byDF := f.col.Lex.TermsByDocFreq()
	b := collection.Query{Terms: byDF[:1]}
	a := collection.Query{Terms: slices.Sorted(slices.Values(byDF[1:6]))}
	st := f.col.Lex.Stats(byDF[0])
	g := &gateScorer{
		BM25:   rank.NewBM25(),
		slow:   rank.TermStat{DocFreq: int(st.DocFreq), CollFreq: st.CollFreq},
		inside: make(chan struct{}),
	}
	for _, id := range a.Terms {
		if s := f.col.Lex.Stats(id); int(s.DocFreq) == g.slow.DocFreq && s.CollFreq == g.slow.CollFreq {
			t.Fatalf("fixture: term %d is indistinguishable from the slow term by its statistics", id)
		}
	}
	disk := storage.NewDisk()
	pool, err := storage.NewPool(disk, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(f.col, pool, g, Config{Shards: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{N: 10}

	// Leave resident exactly the pages b reads, plus a's up to its first
	// Score call.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(b, opts); err != nil {
		t.Fatal(err)
	}
	fullB := g.slowN.Swap(0)
	for g.otherN.Load() == 0 {
		disk.FailReadsAfter(1)
		if _, err := s.Search(a, opts); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("fixture: query a on a cold pool: err = %v, want the injected read failure", err)
		}
	}

	disk.FailReadsAfter(0)
	g.armed.Store(true)
	_, err = s.SearchBatch([]collection.Query{a, b}, opts)
	if !errors.Is(err, storage.ErrInjected) {
		t.Errorf("err = %v, want query a's injected read failure", err)
	}
	if got := g.slowN.Load(); got == 0 || got >= fullB {
		t.Errorf("query b made %d of its %d Score calls; want it caught mid-search and cancelled", got, fullB)
	}
}
