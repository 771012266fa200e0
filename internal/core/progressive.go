package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/rank"
	"repro/internal/topk"
)

// Progressive evaluates top-N queries over a fragment chain
// (index.MultiFragmented), processing fragments from rarest to most
// frequent terms and stopping as soon as the bound administration proves
// the top N stable. It implements the synthesis the paper's programme
// points at: the fragmentation of Step 1 turned into a safe early-
// termination strategy by the upper/lower-bound machinery of the Fagin
// line of work, with the top-N operator deciding *how much* of the
// physical design a query needs to touch.
//
// Like Engine, a Progressive keeps all mutable per-query state in a
// per-Search context drawn from an internal pool, so one instance is safe
// for concurrent Search from multiple goroutines — and a warmed instance
// runs Search with zero heap allocations.
type Progressive struct {
	MX     *index.MultiFragmented
	Scorer rank.Scorer

	corpus rank.CorpusStat
	states sync.Pool // of *progState, accumulator sized for the corpus
}

// progState is the pooled per-Search evaluation state: the dense
// accumulator, the per-fragment term grouping, the remaining-mass
// prefix, and the bounded heap that serves both the safe-stop check and
// the final selection.
type progState struct {
	acc       *rank.Accumulator
	heap      *topk.Heap
	byFrag    [][]fragTerm
	remaining []float64
}

// fragTerm is one resolved query term: its id, compiled scorer, and
// score upper bound.
type fragTerm struct {
	id   lexicon.TermID
	kern rank.Kernel
	ub   float64
}

// ensureHeap (re)bounds the pooled heap to n.
func (st *progState) ensureHeap(n int) error {
	if st.heap == nil {
		h, err := topk.NewHeap(n)
		if err != nil {
			return err
		}
		st.heap = h
		return nil
	}
	return st.heap.Reset(n)
}

// NewProgressive builds a progressive engine over a fragment chain,
// deriving the corpus statistics from the chain's own collection.
func NewProgressive(mx *index.MultiFragmented, scorer rank.Scorer) (*Progressive, error) {
	if mx == nil || scorer == nil {
		return nil, fmt.Errorf("core: nil index or scorer")
	}
	// Corpus statistics are recorded in index.Stats at build time, so no
	// lexicon scan is needed here.
	return NewProgressiveWithCorpus(mx, scorer, mx.Stats.Corpus())
}

// NewProgressiveWithCorpus builds a progressive engine that ranks with
// the given corpus statistics instead of deriving them from the index.
// A sharded deployment uses this to rank every shard with the *global*
// corpus statistics, so per-shard scores are identical to what a single
// unsharded engine would compute (the classical distributed-IR global
// statistics requirement) — without paying a lexicon scan per shard.
func NewProgressiveWithCorpus(mx *index.MultiFragmented, scorer rank.Scorer, corpus rank.CorpusStat) (*Progressive, error) {
	if mx == nil || scorer == nil {
		return nil, fmt.Errorf("core: nil index or scorer")
	}
	p := &Progressive{MX: mx, Scorer: scorer, corpus: corpus}
	numDocs := mx.Stats.NumDocs
	p.states.New = func() any { return &progState{acc: rank.NewAccumulator(numDocs)} }
	return p, nil
}

// Corpus exposes the collection statistics the engine ranks with — the
// global statistics in a sharded deployment, which shard persistence
// must carry to disk so reopened shards rank identically.
func (p *Progressive) Corpus() rank.CorpusStat { return p.corpus }

// ProgressiveResult reports the answer and how far along the chain the
// query had to go.
type ProgressiveResult struct {
	Top []rank.DocScore
	// FragmentsUsed counts chain links processed before stopping.
	FragmentsUsed int
	// Exact reports whether the early stop was provably safe (it is
	// always true when Epsilon == 0 and the run completed).
	Exact bool
	// RemainingBound is the unseen score mass at the stopping point: no
	// document's score can grow by more than this if processing had
	// continued.
	RemainingBound float64
	// DocsTouched counts accumulator entries — the "objects taken into
	// consideration", reported for work accounting.
	DocsTouched int
	// Truncated reports whether the accumulator held more candidates than
	// the N returned (shard merging needs this for its bound
	// administration: a truncated shard may hide documents scoring up to
	// its weakest returned score plus RemainingBound).
	Truncated bool
}

// ProgressiveOptions configures a progressive search.
type ProgressiveOptions struct {
	// N is the number of results. Required.
	N int
	// Epsilon relaxes the stopping rule: the run stops once the potential
	// remaining gain is at most Epsilon times the current N-th score
	// (0 = exact top N; small positive values trade certainty for speed,
	// the quantified form of the paper's unsafe techniques).
	Epsilon float64
}

// Search evaluates q over the chain. It is SearchContextInto without
// cancellation or a destination buffer.
func (p *Progressive) Search(q collection.Query, opts ProgressiveOptions) (ProgressiveResult, error) {
	return p.SearchContextInto(context.Background(), q, opts, nil)
}

// SearchContextInto evaluates q over the chain with the result's Top
// appended to dst, observing ctx between fragments and at postings-block
// granularity within each list, so a cancelled or deadline-expired query
// returns ctx.Err() without processing the remaining chain. With a dst
// of sufficient capacity a warmed engine performs the whole search
// without a single heap allocation.
func (p *Progressive) SearchContextInto(ctx context.Context, q collection.Query, opts ProgressiveOptions, dst []rank.DocScore) (ProgressiveResult, error) {
	if opts.N <= 0 {
		return ProgressiveResult{}, fmt.Errorf("core: N = %d must be positive", opts.N)
	}
	if opts.Epsilon < 0 {
		return ProgressiveResult{}, fmt.Errorf("core: epsilon %v must be non-negative", opts.Epsilon)
	}
	if err := ctx.Err(); err != nil {
		return ProgressiveResult{}, err
	}
	st := p.states.Get().(*progState)
	defer func() {
		st.acc.Reset()
		p.states.Put(st)
	}()
	acc := st.acc

	// Group query terms by fragment and precompute each term's score
	// upper bound for the remaining-mass administration. The groups and
	// the prefix reuse the pooled state's backing arrays.
	nf := len(p.MX.Fragments)
	if cap(st.byFrag) < nf {
		st.byFrag = make([][]fragTerm, nf)
	}
	byFrag := st.byFrag[:nf]
	for i := range byFrag {
		byFrag[i] = byFrag[i][:0]
	}
	if cap(st.remaining) < nf+1 {
		st.remaining = make([]float64, nf+1)
	}
	remaining := st.remaining[:nf+1]
	for _, t := range q.Terms {
		s := p.MX.Lex.Stats(t)
		if s.DocFreq == 0 {
			continue
		}
		fi := p.MX.FragmentIndexOf(t)
		qt := fragTerm{
			id:   t,
			kern: rank.Compile(p.Scorer, rank.TermStat{DocFreq: int(s.DocFreq), CollFreq: s.CollFreq}, p.corpus),
		}
		// The list's recorded maximum TF tightens the term's score bound
		// below the scorer's saturation limit, so the remaining-mass
		// administration stops chains earlier — still provably safe,
		// because no posting in the list can exceed the recorded TF.
		qt.ub = qt.kern.UpperBoundTF(int32(p.MX.MaxTF(t)))
		byFrag[fi] = append(byFrag[fi], qt)
	}
	remaining[nf] = 0
	for fi := nf - 1; fi >= 0; fi-- {
		var mass float64
		for _, qt := range byFrag[fi] {
			mass += qt.ub
		}
		remaining[fi] = remaining[fi+1] + mass
	}

	var res ProgressiveResult
	poll := ctxPoll{ctx: ctx}
	for fi, terms := range byFrag {
		if err := ctx.Err(); err != nil {
			return ProgressiveResult{}, err
		}
		// Stop check before touching this fragment: can any document
		// still displace the current top N?
		bound := remaining[fi]
		stop, err := p.stopSafe(st, opts.N, bound, opts.Epsilon)
		if err != nil {
			return ProgressiveResult{}, err
		}
		if stop {
			res.Exact = opts.Epsilon == 0
			res.RemainingBound = bound
			res.DocsTouched = acc.Touched()
			res.Top, err = p.topInto(st, opts.N, dst)
			if err != nil {
				return ProgressiveResult{}, err
			}
			res.Truncated = res.DocsTouched > len(res.Top)
			res.FragmentsUsed = fi
			return res, nil
		}
		frag := p.MX.Fragments[fi]
		for i := range terms {
			qt := &terms[i]
			it, ok, err := frag.Reader(qt.id)
			if err != nil {
				return ProgressiveResult{}, fmt.Errorf("core: term %d: %w", qt.id, err)
			}
			if !ok {
				continue
			}
			for it.Next() {
				if err := poll.check(); err != nil {
					it.Close()
					return ProgressiveResult{}, err
				}
				pst := it.At()
				acc.Add(pst.DocID, qt.kern.Score(int32(pst.TF), p.MX.Stats.DocLen(pst.DocID)))
			}
			err = it.Err()
			it.Close()
			if err != nil {
				return ProgressiveResult{}, err
			}
		}
		res.FragmentsUsed = fi + 1
	}
	res.Exact = true
	res.RemainingBound = 0
	res.DocsTouched = acc.Touched()
	var err error
	res.Top, err = p.topInto(st, opts.N, dst)
	if err != nil {
		return ProgressiveResult{}, err
	}
	res.Truncated = res.DocsTouched > len(res.Top)
	return res, nil
}

// topInto selects the accumulator's top n into dst (appended, best
// first) via the pooled bounded heap — the allocation-free replacement
// for sorting the whole accumulator.
func (p *Progressive) topInto(st *progState, n int, dst []rank.DocScore) ([]rank.DocScore, error) {
	if err := st.ensureHeap(n); err != nil {
		return nil, err
	}
	h := st.heap
	st.acc.Each(func(doc uint32, score float64) {
		h.Offer(rank.DocScore{DocID: doc, Score: score})
	})
	return h.AppendResults(dst), nil
}

// stopSafe decides whether processing can end given the remaining score
// mass. Exact rule (epsilon 0): the N-th best current score must be at
// least the best possible final score of every other document — the
// (N+1)-th current score plus the bound for seen documents, or the bound
// alone for unseen ones. Relaxed rule: the bound is at most epsilon times
// the N-th score.
//
// The N-th and (N+1)-th scores come from one pass over the accumulator
// through a heap bounded at n+1: its weakest member is the (N+1)-th best
// score and its second-weakest the N-th — no sort, no allocation.
func (p *Progressive) stopSafe(st *progState, n int, bound, epsilon float64) (bool, error) {
	if bound == 0 {
		return true, nil
	}
	if st.acc.Touched() < n {
		return false, nil
	}
	if err := st.ensureHeap(n + 1); err != nil {
		return false, err
	}
	h := st.heap
	st.acc.Each(func(doc uint32, score float64) {
		h.Offer(rank.DocScore{DocID: doc, Score: score})
	})
	var nth, runnerUp float64
	if h.Len() > n {
		m, _ := h.Min()
		runnerUp = m.Score
		s, _ := h.SecondMin()
		nth = s.Score
	} else {
		m, _ := h.Min()
		nth = m.Score
	}
	if epsilon > 0 {
		return bound <= epsilon*nth, nil
	}
	// Unseen documents can reach at most bound; seen non-top documents at
	// most runnerUp+bound.
	return nth >= runnerUp+bound && nth >= bound, nil
}
