package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/topk"
)

// MaxScoreEngine evaluates exact top-N queries document-at-a-time with
// MaxScore pruning (Turtle & Flood's refinement of the ideas in Brown's
// thesis, which the paper's State of the Art cites as the IR side of
// early termination). Query terms are ordered by their score upper
// bounds; once the running top-N threshold exceeds the combined bound of
// the weakest terms, those terms stop driving the document cursor and are
// only probed for candidates that the strong terms surface.
//
// Two bound refinements from the block-aligned postings layout sharpen
// the classic algorithm without changing its answer:
//
//   - term bounds use the list's recorded maximum TF
//     (Kernel.UpperBoundTF), not the scorer's saturation limit, so the
//     essential-cursor frontier advances sooner; and
//   - before a non-essential cursor is probed for a candidate, the max
//     TF of the block that would contain the candidate bounds the
//     probe's best possible contribution — when even that cannot lift
//     the candidate past the threshold, the whole block decode is
//     skipped (Block-Max pruning, counted in SkipsTaken).
//
// MaxScore is the natural ablation against Step 1: it needs no physical
// fragmentation, loses no quality, but saves less than the unsafe
// strategy — quantifying what the fragmented design buys is experiment
// E12.
//
// Scoring goes through rank.Kernel, compiled once per query term per
// search, so neither a posting's score nor a block's bound costs a
// logarithm or an interface call. A document's *reported* score is the
// sum of its term contributions in q.Terms order, whatever order the
// pruning met them in: the same document scores the same bits in one
// segment or in seven, under any threshold.
//
// All per-Search evaluation state (cursors, bound prefix, heap) lives in
// a pooled msState. A warmed engine runs Search with zero heap
// allocations, and is safe for concurrent Search.
type MaxScoreEngine struct {
	Idx    *index.Index
	Scorer rank.Scorer

	corpus rank.CorpusStat

	states sync.Pool // *msState
}

// NewMaxScore builds a MaxScore engine over an unfragmented index. The
// corpus statistics come straight from index.Stats — recorded at build
// time, so no lexicon scan happens here.
func NewMaxScore(idx *index.Index, scorer rank.Scorer) (*MaxScoreEngine, error) {
	if idx == nil || scorer == nil {
		return nil, fmt.Errorf("core: nil index or scorer")
	}
	return NewMaxScoreWithCorpus(idx, scorer, idx.Stats.Corpus())
}

// NewMaxScoreWithCorpus builds a MaxScore engine that ranks with the
// given corpus statistics instead of the index's own. The live layer
// uses this the way parallel uses NewProgressiveWithCorpus: every sealed
// segment is scored with the *global* collection statistics, so a
// document's score is identical to what one index over the whole
// collection would compute.
func NewMaxScoreWithCorpus(idx *index.Index, scorer rank.Scorer, corpus rank.CorpusStat) (*MaxScoreEngine, error) {
	if idx == nil || scorer == nil {
		return nil, fmt.Errorf("core: nil index or scorer")
	}
	m := &MaxScoreEngine{Idx: idx, Scorer: scorer, corpus: corpus}
	m.states.New = func() any { return &msState{} }
	return m, nil
}

// msState is the pooled per-Search evaluation state. The cursor arena
// is sized up front so &arena[i] pointers stay stable across appends; it
// stays in q.Terms order (cursors is the view sorted by bound), which is
// the order reported scores are summed in.
type msState struct {
	arena    []msCursor
	cursors  []*msCursor
	prefixUB []float64
	heap     *topk.Heap
}

func (m *MaxScoreEngine) getState(terms int) *msState {
	st := m.states.Get().(*msState)
	if cap(st.arena) < terms {
		st.arena = make([]msCursor, 0, terms)
	}
	if cap(st.cursors) < terms {
		st.cursors = make([]*msCursor, 0, terms)
	}
	return st
}

// putState closes every open cursor and returns the state to the pool,
// dropping the pointers so pooled iterators are not retained.
func (m *MaxScoreEngine) putState(st *msState) {
	for i, c := range st.cursors {
		if c.it != nil {
			c.it.Close()
			c.it = nil
		}
		st.cursors[i] = nil
	}
	st.cursors = st.cursors[:0]
	st.arena = st.arena[:0]
	m.states.Put(st)
}

// msCursor tracks one term's iterator state during DAAT evaluation.
//
// A cursor starts *unmaterialized*: cur.DocID is the list's first
// document (known from the block index without decoding anything) and
// loaded is false. The first block is decoded only when the cursor's TF
// is actually needed — so a term that MaxScore never probes never
// decodes a single posting.
type msCursor struct {
	it        *postings.Iterator
	kern      rank.Kernel
	ub        float64
	cur       postings.Posting
	loaded    bool // cur.TF valid; iterator positioned at cur
	exhausted bool
	// The last candidate this term was scored for (-1: none yet) and
	// what it contributed there.
	hit     int64
	contrib float64
}

// score records and returns the term's contribution to cand, the
// document the cursor stands on.
func (c *msCursor) score(cand uint32, docLen int32) float64 {
	c.hit = int64(cand)
	c.contrib = c.kern.Score(int32(c.cur.TF), docLen)
	return c.contrib
}

// materialize decodes up to the cursor's logical position, filling in
// the TF. Only called when cur.DocID is a document the caller must
// score, so the decode is never wasted.
func (c *msCursor) materialize() error {
	if c.loaded || c.exhausted {
		return nil
	}
	if !c.it.SeekGE(c.cur.DocID) {
		c.exhausted = true
		return c.it.Err()
	}
	c.cur = c.it.At()
	c.loaded = true
	return nil
}

func (c *msCursor) advance() error {
	if err := c.materialize(); err != nil {
		return err
	}
	if c.exhausted {
		return nil
	}
	if c.it.Next() {
		c.cur = c.it.At()
		return nil
	}
	c.exhausted = true
	return c.it.Err()
}

func (c *msCursor) seekGE(doc uint32) error {
	if c.exhausted {
		return nil
	}
	if c.cur.DocID >= doc {
		return c.materialize()
	}
	if c.it.SeekGE(doc) {
		c.cur = c.it.At()
		c.loaded = true
		return nil
	}
	c.exhausted = true
	return c.it.Err()
}

// Search returns the exact top N for q. The result always equals full
// evaluation (verified by the test suite); only the work differs. It is
// SearchShared without cancellation, destination buffer or shared
// threshold.
func (m *MaxScoreEngine) Search(q collection.Query, n int) ([]rank.DocScore, error) {
	return m.SearchShared(context.Background(), q, n, nil, nil)
}

// SearchContextInto returns the exact top N for q appended to dst,
// observing ctx. It is SearchShared without a shared threshold.
func (m *MaxScoreEngine) SearchContextInto(ctx context.Context, q collection.Query, n int, dst []rank.DocScore) ([]rank.DocScore, error) {
	return m.SearchShared(ctx, q, n, dst, nil)
}

// SearchShared is the engine's one search body. It appends to dst the
// exact top N for q, observing ctx: the DAAT loop polls for cancellation
// at candidate granularity (at most one postings block of decode work per
// open cursor between polls), so a cancelled or deadline-expired query
// returns ctx.Err() promptly instead of running to completion. With a dst
// of sufficient capacity a warmed engine performs the whole search
// without a single heap allocation.
//
// shared, when non-nil, is the threshold one query carries across every
// index it searches (the segments of a live snapshot). The engine prunes
// against the larger of its own heap's N-th score and the shared value,
// reports only fully evaluated documents scoring at least that, and
// raises the shared value whenever its own full heap's minimum rises —
// its N-th best score is a lower bound on the N-th best of the union.
// The result is then "every document of this index that can be in the
// union's top N", possibly fewer than n of them: merged with the other
// indexes' results it gives the union's exact top N, on its own it is
// exact only above the shared value (topk.ShardTop.Floor).
func (m *MaxScoreEngine) SearchShared(ctx context.Context, q collection.Query, n int, dst []rank.DocScore, shared *topk.Threshold) ([]rank.DocScore, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: N = %d must be positive", n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Open cursors, ascending by upper bound. Nothing is decoded yet:
	// each cursor starts on its list's first document, read from the
	// block index.
	st := m.getState(len(q.Terms))
	defer m.putState(st)
	for _, t := range q.Terms {
		s := m.Idx.Lex.Stats(t)
		if s.DocFreq == 0 {
			continue
		}
		it, ok, err := m.Idx.Reader(t)
		if err != nil {
			return nil, fmt.Errorf("core: term %d: %w", t, err)
		}
		if !ok {
			continue
		}
		first, ok := it.FirstDoc()
		if !ok {
			// On a filtered iterator FirstDoc may have had to decode past a
			// tombstoned head, so ok=false can be a read failure rather
			// than an empty list — dropping the term on an error would
			// silently change the answer.
			err := it.Err()
			it.Close()
			if err != nil {
				return nil, fmt.Errorf("core: term %d: %w", t, err)
			}
			continue
		}
		st.arena = append(st.arena, msCursor{
			it:   it,
			kern: rank.Compile(m.Scorer, rank.TermStat{DocFreq: int(s.DocFreq), CollFreq: s.CollFreq}, m.corpus),
			cur:  postings.Posting{DocID: first},
			hit:  -1,
		})
		c := &st.arena[len(st.arena)-1]
		c.ub = c.kern.UpperBoundTF(int32(it.MaxTF()))
		st.cursors = append(st.cursors, c)
	}
	cursors := st.cursors
	if len(cursors) == 0 {
		return dst, nil
	}
	slices.SortFunc(cursors, func(a, b *msCursor) int {
		if a.ub < b.ub {
			return -1
		}
		if a.ub > b.ub {
			return 1
		}
		return 0
	})
	// prefixUB[i] = sum of upper bounds of cursors[0..i-1] (the weakest i).
	if cap(st.prefixUB) < len(cursors)+1 {
		st.prefixUB = make([]float64, len(cursors)+1)
	}
	prefixUB := st.prefixUB[:len(cursors)+1]
	prefixUB[0] = 0
	for i, c := range cursors {
		prefixUB[i+1] = prefixUB[i] + c.ub
	}

	if st.heap == nil {
		h, err := topk.NewHeap(n)
		if err != nil {
			return nil, err
		}
		st.heap = h
	} else if err := st.heap.Reset(n); err != nil {
		return nil, err
	}
	h := st.heap
	// first = index of the first essential cursor: the weakest terms
	// [0, first) together cannot beat the threshold, so they never drive
	// the candidate choice. Grows monotonically as the threshold rises.
	// The strict inequality matters: a document reaching the threshold
	// exactly can still displace the N-th document through the
	// document-id tie-break, so only a strictly smaller bound excludes
	// safely.
	first := 0
	poll := ctxPoll{ctx: ctx}
	for {
		if err := poll.check(); err != nil {
			return nil, err
		}
		var th float64
		if h.Full() {
			min, _ := h.Min()
			th = min.Score
		}
		if shared != nil {
			th = max(th, shared.Load())
		}
		for first < len(cursors) && prefixUB[first+1] < th {
			first++
		}
		if first >= len(cursors) {
			break // no term set can beat the current top N
		}
		// Next candidate: minimum current document over essential cursors.
		cand := uint32(0)
		found := false
		for _, c := range cursors[first:] {
			if c.exhausted {
				continue
			}
			if !found || c.cur.DocID < cand {
				cand = c.cur.DocID
				found = true
			}
		}
		if !found {
			break
		}
		docLen := m.Idx.Stats.DocLen(cand)
		// Score the essential terms and advance their cursors. score is the
		// running sum the pruning tests use; it adds the terms in the order
		// they are met, which follows the threshold.
		var score float64
		for _, c := range cursors[first:] {
			if !c.exhausted && c.cur.DocID == cand {
				if err := c.materialize(); err != nil {
					return nil, err
				}
				if c.exhausted || c.cur.DocID != cand {
					continue
				}
				score += c.score(cand, docLen)
				if err := c.advance(); err != nil {
					return nil, err
				}
			}
		}
		// Probe the non-essential terms strongest-first, giving the
		// candidate up as soon as even their combined remainder cannot lift
		// it to the threshold. Before paying for a probe, the block bound:
		// the max TF of the block that would contain cand caps this term's
		// contribution, so if score + blockBound + (all weaker bounds) still
		// falls short, the block is provably useless and its decode is
		// skipped. A candidate given up is never offered: only fully
		// evaluated scores enter the heap, so its minimum is a bound another
		// index may prune by.
		complete := true
		for i := first - 1; i >= 0; i-- {
			if score+prefixUB[i+1] < th {
				complete = false
				break
			}
			c := cursors[i]
			if c.exhausted {
				continue
			}
			if c.cur.DocID > cand {
				continue // already past cand: no contribution
			}
			if c.cur.DocID < cand || !c.loaded {
				bmTF := c.it.BlockMaxTF(cand)
				if bmTF == 0 {
					// No block covers cand: the term certainly does not
					// occur in it. Nothing to decode, nothing to score.
					continue
				}
				if score+c.kern.UpperBoundTF(int32(bmTF))+prefixUB[i] < th {
					// The block bound proves the probe useless before the
					// block decode is paid: a Block-Max skip.
					c.it.NoteBlockSkip()
					complete = false
					break
				}
			}
			if err := c.seekGE(cand); err != nil {
				return nil, err
			}
			if !c.exhausted && c.cur.DocID == cand {
				score += c.score(cand, docLen)
			}
		}
		if !complete {
			continue
		}
		// The reported score adds the contributions in q.Terms order, so it
		// does not depend on where the threshold stood when cand was met.
		var total float64
		for i := range st.arena {
			if c := &st.arena[i]; c.hit == int64(cand) {
				total += c.contrib
			}
		}
		if total < th || !h.Offer(rank.DocScore{DocID: cand, Score: total}) {
			continue
		}
		if shared != nil && h.Full() {
			if min, _ := h.Min(); min.Score > th {
				shared.Raise(min.Score)
			}
		}
	}
	return h.AppendResults(dst), nil
}
