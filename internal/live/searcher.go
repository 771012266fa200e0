package live

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/parallel"
	"repro/internal/rank"
	"repro/internal/topk"
	"repro/internal/tune"
)

// Result is the merged outcome of one live search.
type Result struct {
	// Top is the global top N (global document ids, in arrival order of
	// the documents).
	Top []rank.DocScore
	// Exact is the merge's certificate that Top is provably the true top
	// N over the snapshot. Every segment evaluates exactly, so in
	// healthy operation it is always true; it drops exactly when
	// Degraded is set — an unserved segment may hide arbitrarily good
	// documents.
	Exact bool
	// Degraded reports that at least one segment was quarantined and the
	// answer covers only the segments served. The query did not fail:
	// degradation is explicit, never silent — Cert says which segments
	// were skipped and how much coverage remains.
	Degraded bool
	// Cert is the explicit coverage certificate: exactness, segments
	// served of total, and the names of any skipped segments.
	Cert topk.Certificate
	// Segments is the snapshot's segment count — the fragmentation the
	// query paid for.
	Segments int
	// Generation identifies the snapshot served.
	Generation uint64
}

// Snapshot is one acquired generation: an immutable view of the live
// index a query (or a batch of queries) evaluates against. Merges and
// seals committing concurrently never change or invalidate it; the
// segments it references stay on disk until the snapshot is closed.
// Close it promptly — a held snapshot pins merged-away segments' disk
// space. A Snapshot is safe for concurrent Search calls, and Close
// synchronizes with them: it blocks until in-flight searches drain, so
// the generation reference (and with it the segment files) cannot be
// released under a search that already started.
type Snapshot struct {
	g       *generation
	workers int
	fc      *faultCounters // the writer's fault account; nil in tests that build snapshots by hand
	tn      *tune.Tuner    // the writer's tuner; nil when untuned

	mu       sync.RWMutex // searches hold it shared; Close exclusively
	released bool
}

// Acquire takes a refcounted snapshot of the current generation.
func (w *Writer) Acquire() (*Snapshot, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshotLocked()
}

func (w *Writer) snapshotLocked() (*Snapshot, error) {
	if w.closed || w.cur == nil {
		return nil, ErrClosed
	}
	w.cur.refs.Add(1)
	return &Snapshot{g: w.cur, workers: w.cfg.Workers, fc: &w.fc, tn: w.cfg.Tune}, nil
}

// Close releases the snapshot's generation reference, waiting out any
// in-flight Search first. Closing twice is a no-op.
func (s *Snapshot) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		s.released = true
		s.g.release()
	}
}

// Generation identifies the snapshot.
func (s *Snapshot) Generation() uint64 { return s.g.id }

// Segments reports how many segments the snapshot serves from.
func (s *Snapshot) Segments() int { return len(s.g.segs) }

// NumDocs reports the searchable document count.
func (s *Snapshot) NumDocs() int { return s.g.corpus.NumDocs }

// ResetCounters zeroes the decode/skip/fault counters of every segment
// in the snapshot (the benchmark harness brackets probe batches with
// this).
func (s *Snapshot) ResetCounters() {
	for _, seg := range s.g.segs {
		seg.idx.Counters().Reset()
	}
}

// Counters sums the decode/skip/fault counters across the snapshot's
// segments.
func (s *Snapshot) Counters() (decoded, skips, faulted int64) {
	for _, seg := range s.g.segs {
		c := seg.idx.Counters()
		decoded += c.LoadPostingsDecoded()
		skips += c.LoadSkipsTaken()
		faulted += c.LoadBlocksFaulted()
	}
	return decoded, skips, faulted
}

// Search evaluates the term-string query against the snapshot: each
// segment runs the block-max MaxScore engine (exact, with the
// generation's global statistics), local ids are remapped through the
// segment base, and the per-segment answers merge with the bound
// administration of topk.MergeShards — the same scatter/gather contract
// the parallel layer uses for document-range shards, which is exactly
// what the segment chain is. It is SearchContext without cancellation.
func (s *Snapshot) Search(terms []string, n int) (Result, error) {
	return s.SearchContext(context.Background(), terms, n)
}

// SearchContext evaluates the query like Search, observing ctx under
// parallel.Gather's rules; segment engines poll it at postings-block
// granularity, so a failed or abandoned query stops costing decode work
// across the whole chain instead of running every remaining segment to
// completion.
//
// Data faults are the exception to sibling cancellation: a segment
// whose pages cannot be read (or fail their checksums past the retry
// budget) is quarantined and skipped, the surviving segments complete,
// and the answer carries an explicitly degraded certificate naming the
// skipped segments — never a silent partial answer, never a failed
// query for damage confined to one segment.
func (s *Snapshot) SearchContext(ctx context.Context, terms []string, n int) (Result, error) {
	return s.searchIDs(ctx, s.resolve(terms), n)
}

// resolve maps term names to sorted, deduplicated term ids against the
// generation's frozen lexicon; unknown terms match nothing. The id list
// plus (generation, N) fully determines the answer, which is what makes
// it usable as a result-cache key.
func (s *Snapshot) resolve(terms []string) []lexicon.TermID {
	ids := make([]lexicon.TermID, 0, len(terms))
	for _, t := range terms {
		if id := s.g.lex.Lookup(t); id != lexicon.InvalidTerm {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// segLeg is one segment's part in a query: the window of the shared
// result buffer its engine appends into, and how its search ended.
type segLeg struct {
	top     []rank.DocScore // the window, then the results in it (global ids)
	skipped bool            // quarantined: not part of the answer
	faulted bool            // quarantined by this very pass
}

// searchIDs evaluates the resolved query — the shared back half of
// SearchContext and the cached search path.
func (s *Snapshot) searchIDs(ctx context.Context, ids []lexicon.TermID, n int) (Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return Result{}, fmt.Errorf("live: search on a closed snapshot")
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("live: N = %d must be positive", n)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	g := s.g
	res := Result{Exact: true, Segments: len(g.segs), Generation: g.id}
	res.Cert = topk.Certificate{Exact: true, ShardsServed: len(g.segs), ShardsTotal: len(g.segs)}
	if len(ids) == 0 || len(g.segs) == 0 {
		return res, nil
	}
	// Calibration taps: bracket the evaluation with the snapshot's decode
	// and fault counters, and a span token. With concurrent searches the
	// deltas interleave (the counters are snapshot-wide), which is fine —
	// the calibrator's regression averages over many observations — and
	// in the deterministic bench (one worker) the deltas are exact.
	var tuneD0, tuneF0 int64
	var tuneTok tune.SpanToken
	if s.tn != nil { // not nil-safety: skips summing the counters per query
		tuneD0, _, tuneF0 = s.Counters()
		tuneTok = s.tn.StartSpan()
	}
	q := collection.Query{Terms: ids}

	// Every engine appends into its own window of one buffer. A segment
	// returns at most min(n, its documents) results, so the buffer is
	// bounded by the snapshot's size however large the request's n.
	legs := make([]segLeg, len(g.segs))
	total := 0
	for _, seg := range g.segs {
		total += min(n, seg.docs)
	}
	buf := make([]rank.DocScore, total)
	for i, seg := range g.segs {
		w := min(n, seg.docs)
		legs[i].top, buf = buf[:0:w], buf[w:]
	}
	// th is the query's one threshold (see topk.Threshold): segments are
	// searched largest first, so the segment likeliest to hold most of
	// the answer earns it and the small ones prune against it from their
	// first candidate.
	var th *topk.Threshold
	// A data fault does not fail the leg, so it cancels no sibling: the
	// sick segment is quarantined and skipped while the rest run to
	// completion.
	searchSeg := func(ctx context.Context, k int) error {
		i := g.order[k]
		leg := &legs[i]
		if g.segs[i].quarantined.Load() {
			leg.skipped = true
			return nil
		}
		top, err := g.engines[i].SearchShared(ctx, q, n, leg.top, th)
		if err != nil {
			if isDataFault(err) {
				// The media failed, not the query: quarantine the segment
				// (first classifier wins the count) and serve the
				// survivors under a degraded certificate.
				if g.segs[i].quarantine(err) && s.fc != nil {
					s.fc.quarantines.Add(1)
				}
				leg.skipped, leg.faulted = true, true
				return nil
			}
			return err
		}
		base := g.segs[i].base
		for j := range top {
			top[j].DocID += base
		}
		leg.top = top
		return nil
	}
	// A segment that faults mid-search may already have raised th by
	// scores of documents that are then not served: the survivors pruned
	// against a bound their own documents never earned, and their merged
	// lists could miss documents of the degraded answer. So a pass in
	// which a segment was quarantined is repeated over the survivors with
	// a fresh threshold — a degraded answer stays the exact ranking over
	// the documents served. Every repeat takes a newly quarantined
	// segment, which bounds the passes.
	for range len(g.segs) + 1 {
		th = new(topk.Threshold)
		for i := range legs {
			legs[i] = segLeg{top: legs[i].top[:0]}
		}
		if err := parallel.Gather(ctx, len(g.order), s.workers, searchSeg); err != nil {
			return Result{}, err
		}
		if !slices.ContainsFunc(legs, func(l segLeg) bool { return l.faulted }) {
			break
		}
	}

	served := make([]topk.ShardTop, 0, len(g.segs))
	var skippedNames []string
	floor := th.Load()
	for i := range g.segs {
		if legs[i].skipped {
			skippedNames = append(skippedNames, g.segs[i].name)
			continue
		}
		// Each segment evaluated exactly (Bound 0) above the threshold it
		// pruned under, which the final value bounds. Truncated is
		// conservative: a full top list may have displaced candidates.
		served = append(served, topk.ShardTop{Top: legs[i].top, Truncated: len(legs[i].top) == n, Floor: floor})
	}
	res.Top, res.Cert = topk.MergeShardsPartial(served, n, skippedNames, len(g.segs))
	res.Exact = res.Cert.Exact
	res.Degraded = res.Cert.Degraded
	if res.Degraded && s.fc != nil {
		s.fc.degraded.Add(1)
	}
	if s.tn != nil {
		d1, _, f1 := s.Counters()
		if d1 >= tuneD0 && f1 >= tuneF0 {
			s.tn.ObserveQuery(len(ids), d1-tuneD0, f1-tuneF0, tuneTok)
		}
	}
	return res, nil
}

// Searcher is the query-side handle of a live index: every Search
// acquires the current generation, evaluates against that consistent
// snapshot, and releases it — the hot-swap contract that lets seals and
// merges commit mid-stream without ever invalidating an in-flight
// query. A Searcher is safe for concurrent use.
type Searcher struct {
	w *Writer
}

// Searcher returns the query-side handle of the writer's live index.
func (w *Writer) Searcher() *Searcher { return &Searcher{w: w} }

// Search evaluates one query against a fresh snapshot.
func (ls *Searcher) Search(terms []string, n int) (Result, error) {
	return ls.SearchContext(context.Background(), terms, n)
}

// SearchContext evaluates one query against a fresh snapshot, observing
// ctx as Snapshot.SearchContext does.
//
// With Config.ResultCacheBytes set, the query first consults the result
// cache under its (generation, N, resolved terms) key; a hit returns
// the byte-identical cached answer without touching a single postings
// block. On a miss, concurrent identical queries collapse into one
// singleflight: a leader runs the search under its own context while
// the rest wait for its answer — a waiter whose context fires abandons
// the wait without cancelling the leader, and a leader that fails (or
// whose context fires) wakes the waiters to run their own searches.
// Only exact, non-degraded answers enter the cache.
func (ls *Searcher) SearchContext(ctx context.Context, terms []string, n int) (Result, error) {
	snap, err := ls.w.Acquire()
	if err != nil {
		return Result{}, err
	}
	defer snap.Close()
	rc := ls.w.resCache
	if rc == nil || n <= 0 {
		return snap.SearchContext(ctx, terms, n)
	}
	ids := snap.resolve(terms)
	key := resultKey(snap.g.id, n, ids)
	if res, ok := rc.get(key); ok {
		return res, nil
	}
	f, leader := rc.join(key)
	if !leader {
		// The leader acquired a snapshot before joining, and the key pins
		// the generation, so its answer is computed over the very same
		// immutable view this query would read.
		select {
		case <-f.done:
			if f.err == nil {
				rc.shared.Add(1)
				return cloneResult(f.res), nil
			}
			// Leader failed or abandoned: its error may be private to its
			// own context (cancellation), so fall through and evaluate
			// under ours.
			return snap.searchIDs(ctx, ids, n)
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	defer rc.leave(key, f)
	res, err := snap.searchIDs(ctx, ids, n)
	f.res, f.err = res, err
	if err == nil && res.Exact && !res.Degraded {
		rc.put(key, res)
	}
	return res, err
}
