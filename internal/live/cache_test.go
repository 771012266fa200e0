package live

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestResultCacheHitEquivalence: repeating a query must hit the result
// cache and return the byte-identical answer — Top, certificate,
// generation, everything.
func TestResultCacheHitEquivalence(t *testing.T) {
	col := genCollection(t, 600, 41)
	queries := genQueries(t, col, 42)
	w, err := Open(Config{
		Dir: t.TempDir(), SealDocs: 200,
		ResultCacheBytes: 1 << 20, BlockCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()

	first := make([]Result, len(queries))
	for i, q := range queries {
		first[i], err = s.Search(queryNames(col, q), 10)
		if err != nil {
			t.Fatal(err)
		}
	}
	cs := w.CacheStats()
	if cs.ResultHits != 0 {
		t.Fatalf("cold pass scored %d result hits, want 0", cs.ResultHits)
	}
	if cs.ResultEntries == 0 {
		t.Fatal("cold pass cached nothing")
	}
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "cached answer", res.Top, first[i].Top)
		if res.Exact != first[i].Exact || res.Degraded != first[i].Degraded ||
			res.Generation != first[i].Generation || res.Segments != first[i].Segments {
			t.Fatalf("cached result %+v differs from first %+v", res, first[i])
		}
	}
	cs = w.CacheStats()
	if cs.ResultHits != int64(len(queries)) {
		t.Fatalf("warm pass scored %d result hits, want %d", cs.ResultHits, len(queries))
	}

	// A different N is a different key — never served from the N=10
	// entries.
	res, err := s.Search(queryNames(col, queries[0]), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 5 {
		t.Fatalf("N=5 answer has %d results (stale N=10 entry served?)", len(res.Top))
	}
}

// TestResultCacheInvalidationOnCommit: a delete committing must move
// the generation and with it every cached answer — a query whose cached
// top document is deleted must never see it again.
func TestResultCacheInvalidationOnCommit(t *testing.T) {
	col := genCollection(t, 600, 43)
	queries := genQueries(t, col, 44)
	w, err := Open(Config{
		Dir: t.TempDir(), SealDocs: 200, ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	names := queryNames(col, queries[0])

	res, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Fatal("query matched nothing; pick a different seed")
	}
	// Warm the cache, then kill the answer's best document.
	if _, err := s.Search(names, 10); err != nil {
		t.Fatal(err)
	}
	victim := res.Top[0].DocID
	if err := w.Delete(victim); err != nil {
		t.Fatal(err)
	}
	after, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation == res.Generation {
		t.Fatal("delete committed without moving the generation")
	}
	for _, ds := range after.Top {
		if ds.DocID == victim {
			t.Fatalf("deleted document %d served from a stale cached answer", victim)
		}
	}
}

// TestResultCacheDegradedNeverCached: answers produced while a segment
// is quarantined must not enter the cache — once the segment heals, the
// same query must get the exact answer again, not a replayed degraded
// one (re-verification does not move the generation, so a cached
// degraded answer would genuinely be served forever).
func TestResultCacheDegradedNeverCached(t *testing.T) {
	const half = 4000
	col := genCollection(t, 2*half, 71)
	queries := genQueries(t, col, 72)
	reg := newDevRegistry()
	w, err := Open(Config{
		Dir: t.TempDir(), SealDocs: half, PoolPages: 8, WrapDevice: reg.wrap,
		ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	names := queryNames(col, queries[0])
	baseline, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Exact || baseline.Degraded {
		t.Fatalf("fault-free baseline not exact: %+v", baseline.Cert)
	}

	sick := reg.names[1]
	reg.dev(sick).FailAll(true)
	w.resCache.clear() // drop the baseline entry so the query re-evaluates
	deg, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Skip("query never touched the failing segment; no degraded surface")
	}
	if entries := w.CacheStats().ResultEntries; entries != 0 {
		t.Fatalf("degraded answer entered the result cache (%d entries)", entries)
	}

	reg.dev(sick).Clear()
	if n := w.Reverify(); n != 1 {
		t.Fatalf("Reverify recovered %d segments, want 1", n)
	}
	healed, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Degraded || !healed.Exact {
		t.Fatalf("healed query still degraded: %+v (cached degraded answer?)", healed.Cert)
	}
	assertSameTop(t, "healed vs baseline", healed.Top, baseline.Top)
}

// TestSingleflightProtocol drives the flight table directly: a waiter
// blocked on a leader's flight gets the leader's answer; an abandoned
// flight (leader failed) wakes waiters empty-handed.
func TestSingleflightProtocol(t *testing.T) {
	rc := newResultCache(1 << 20)
	f, leader := rc.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	f2, leader2 := rc.join("k")
	if leader2 || f2 != f {
		t.Fatal("second join must wait on the leader's flight")
	}
	got := make(chan Result, 1)
	go func() {
		<-f2.done
		if f2.err != nil {
			got <- Result{}
			return
		}
		got <- f2.res
	}()
	f.res, f.err = Result{Segments: 7}, nil
	rc.leave("k", f)
	if r := <-got; r.Segments != 7 {
		t.Fatalf("waiter got %+v, want the leader's answer", r)
	}

	// Abandoned flight: the pre-set error survives to the waiters.
	f, _ = rc.join("k2")
	done := make(chan error, 1)
	go func() {
		<-f.done
		done <- f.err
	}()
	rc.leave("k2", f) // leader never assigned res/err
	if err := <-done; !errors.Is(err, errFlightAbandoned) {
		t.Fatalf("abandoned flight delivered %v, want errFlightAbandoned", err)
	}
	if _, leader := rc.join("k2"); !leader {
		t.Fatal("retired flight must not linger in the table")
	}
}

// TestSingleflightLeaderCancellation: a leader whose context fires
// returns its own ctx error without caching, a waiter parked on a
// flight honors its own context without cancelling the leader, and a
// waiter woken by an abandoned flight falls back to its own search and
// still gets the right answer.
func TestSingleflightLeaderCancellation(t *testing.T) {
	col := genCollection(t, 600, 45)
	queries := genQueries(t, col, 46)
	w, err := Open(Config{
		Dir: t.TempDir(), SealDocs: 1 << 20, ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	names := queryNames(col, queries[0])
	want, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.resCache.clear()

	// Leader with a dead context: the query fails with its own ctx
	// error, the flight is retired, and nothing poisons later queries.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SearchContext(ctx, names, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	res, err := s.Search(names, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTop(t, "after cancelled leader", res.Top, want.Top)
	w.resCache.clear()

	// Park a waiter on a fake leader's flight, then cancel the waiter:
	// it must return its own ctx error promptly, leaving the flight (and
	// its leader) untouched.
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	key := resultKey(snap.g.id, 10, snap.resolve(names))
	snap.Close()
	f, leader := w.resCache.join(key)
	if !leader {
		t.Fatal("test flight must lead")
	}
	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := s.SearchContext(wctx, names, 10)
		waiterErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park on the flight
	wcancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned — it is waiting out the leader")
	}

	// Park another waiter, then abandon the flight: the waiter falls
	// back to its own search and still answers correctly.
	waiterRes := make(chan Result, 1)
	go func() {
		res, err := s.SearchContext(context.Background(), names, 10)
		if err != nil {
			t.Error(err)
			waiterRes <- Result{}
			return
		}
		waiterRes <- res
	}()
	time.Sleep(20 * time.Millisecond)
	w.resCache.leave(key, f) // f.err is still errFlightAbandoned
	res = <-waiterRes
	assertSameTop(t, "fallback after abandoned flight", res.Top, want.Top)
}

// TestCacheChurnEquivalence drives an identical churn — adds, deletes,
// flushes, merges — through a cache-on and a cache-off writer while
// background goroutines hammer the cache-on searcher, then asserts the
// two ends answer every query byte-identically. Run under -race this is
// the caches' concurrency certificate.
func TestCacheChurnEquivalence(t *testing.T) {
	col := genCollection(t, 700, 47)
	queries := genQueries(t, col, 48)
	on, err := Open(Config{
		Dir: t.TempDir(), SealDocs: 120, MergeFanIn: 3,
		ResultCacheBytes: 1 << 20, BlockCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	off, err := Open(Config{Dir: t.TempDir(), SealDocs: 120, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := on.Searcher()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				if _, err := s.Search(queryNames(col, q), 10); err != nil {
					t.Errorf("churn search: %v", err)
					return
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(0xcafe))
	alive := make([]uint32, 0, len(col.Docs))
	for i := range col.Docs {
		terms := DocTerms(col.Lex, col.Docs[i])
		idOn, err := on.Add(terms)
		if err != nil {
			t.Fatal(err)
		}
		idOff, err := off.Add(terms)
		if err != nil {
			t.Fatal(err)
		}
		if idOn != idOff {
			t.Fatalf("writers diverged: ids %d vs %d", idOn, idOff)
		}
		alive = append(alive, idOn)
		switch {
		case len(alive) > 20 && rng.Intn(5) == 0:
			v := rng.Intn(len(alive))
			id := alive[v]
			alive = append(alive[:v], alive[v+1:]...)
			if err := on.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := off.Delete(id); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(40) == 0:
			if err := on.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := off.Flush(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := on.MergeAll(); err != nil {
					t.Fatal(err)
				}
				if err := off.MergeAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := on.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := off.Flush(); err != nil {
		t.Fatal(err)
	}

	sOn, sOff := on.Searcher(), off.Searcher()
	for i, q := range queries {
		names := queryNames(col, q)
		for pass := 0; pass < 2; pass++ { // second pass hits the result cache
			resOn, err := sOn.Search(names, 10)
			if err != nil {
				t.Fatal(err)
			}
			resOff, err := sOff.Search(names, 10)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTop(t, "cache-on vs cache-off", resOn.Top, resOff.Top)
			if !resOn.Exact || resOn.Degraded {
				t.Fatalf("query %d pass %d lost its certificate: %+v", i, pass, resOn.Cert)
			}
		}
	}
	cs := on.CacheStats()
	if cs.ResultHits == 0 {
		t.Fatal("equivalence passes never hit the result cache")
	}
	if cs.BlockHits == 0 {
		t.Fatal("churn never hit the block cache")
	}
}

// TestBlockCacheReducesFaults: with the result cache off and the block
// cache on, replaying a query must serve its postings blocks from the
// cache — zero new block faults — while still decoding them (the cache
// sits under the decoder, not over the answer).
func TestBlockCacheReducesFaults(t *testing.T) {
	col := genCollection(t, 2000, 49)
	queries := genQueries(t, col, 50)
	w, err := Open(Config{
		Dir: t.TempDir(), SealDocs: 1 << 20, PoolPages: 8,
		BlockCacheBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, q := range queries {
		if _, err := snap.Search(queryNames(col, q), 10); err != nil {
			t.Fatal(err)
		}
	}
	decoded0, _, faulted0 := snap.Counters()
	if faulted0 == 0 {
		t.Fatal("cold pass never faulted a block; the test surface is gone")
	}
	for _, q := range queries {
		if _, err := snap.Search(queryNames(col, q), 10); err != nil {
			t.Fatal(err)
		}
	}
	decoded1, _, faulted1 := snap.Counters()
	if faulted1 != faulted0 {
		t.Fatalf("warm pass faulted %d new blocks, want 0 (cold %d)", faulted1-faulted0, faulted0)
	}
	if decoded1 == decoded0 {
		t.Fatal("warm pass decoded nothing — results cannot have been computed")
	}
	cs := w.CacheStats()
	if cs.BlockHits == 0 || cs.BlockAdmits == 0 {
		t.Fatalf("block cache never used: %+v", cs)
	}
}
