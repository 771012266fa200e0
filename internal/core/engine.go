// Package core implements the paper's primary contribution: a top-N text
// retrieval engine over a horizontally fragmented inverted file, with the
// unsafe and safe processing strategies of Step 1, the early quality check
// that switches between them, candidate probing of the large fragment
// through the non-dense index, and cost-model-driven plan selection
// (Step 3). The MM fusion queries of the integrated scenario (text ⊕
// feature, Step 2's motivation) are built on top in fusion.go.
//
// Terminology follows the paper:
//
//   - full: process every query term's postings — the unoptimized,
//     exact evaluation (ground truth for quality);
//   - unsafe: process only the small fragment (rare terms); fast, may
//     lose quality because frequent query terms contribute nothing;
//   - safe: run the plan-time quality check first and consult the large
//     fragment when the check predicts the unsafe answer would be poor;
//   - probe: when the large fragment is consulted, do not stream its
//     lists — probe them with the candidate documents the small fragment
//     produced, using the postings skip (non-dense) index.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/rank"
	"repro/internal/topk"
)

// Mode selects the processing strategy for Search.
type Mode int

// The processing strategies.
const (
	// ModeFull processes all query terms' full lists.
	ModeFull Mode = iota
	// ModeUnsafe processes only small-fragment terms.
	ModeUnsafe
	// ModeSafe runs the quality check, then Unsafe or a large-fragment
	// consultation depending on the outcome.
	ModeSafe
)

// String names the mode for experiment output.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeUnsafe:
		return "unsafe"
	case ModeSafe:
		return "safe"
	default:
		return "unknown"
	}
}

// Options configures a search.
type Options struct {
	// N is the number of results to return. Required.
	N int
	// Mode selects the strategy; default ModeFull.
	Mode Mode
	// SwitchThreshold is the safe mode's quality-check bound: when the
	// predicted score coverage of the small fragment falls below it, the
	// plan switches to consulting the large fragment. Default 0.8.
	SwitchThreshold float64
	// ProbeLarge makes the large-fragment consultation use candidate
	// probing through the non-dense index instead of streaming full
	// lists. Only meaningful in ModeSafe (and ModeFull ignores it).
	ProbeLarge bool
}

func (o *Options) fillDefaults() {
	if o.SwitchThreshold == 0 {
		o.SwitchThreshold = 0.8
	}
}

// Result is a search outcome plus the plan facts experiments report.
type Result struct {
	Top []rank.DocScore
	// Coverage is the quality check's predicted score coverage of the
	// small fragment for this query (1 = all query-term weight lives in
	// the small fragment).
	Coverage float64
	// Switched reports whether safe mode consulted the large fragment.
	Switched bool
	// DocsTouched counts accumulator entries — the paper's "objects taken
	// into consideration during the ranking process".
	DocsTouched int
	// TermsProcessed counts postings lists read (fully or by probing).
	TermsProcessed int
	// TermsSkipped counts query terms whose lists were not read.
	TermsSkipped int
}

// Engine is the fragmented top-N retrieval engine.
//
// All mutable per-query state (the score accumulator, candidate buffer,
// selection heap) lives in a per-Search context drawn from an internal
// pool, so a single Engine is safe for concurrent Search from multiple
// goroutines: the index, lexicon, and collection statistics it reads are
// immutable after build, and the buffer pool underneath serializes page
// access.
type Engine struct {
	FX     *index.Fragmented
	Scorer rank.Scorer

	corpus rank.CorpusStat
	states sync.Pool // of *engState, accumulator sized for the corpus
}

// engState is the pooled per-Search evaluation state.
type engState struct {
	acc   *rank.Accumulator
	heap  *topk.Heap
	cand  []uint32
	large []lexicon.TermID
}

// NewEngine builds an engine over a fragmented index with the given
// ranking model.
func NewEngine(fx *index.Fragmented, scorer rank.Scorer) (*Engine, error) {
	if fx == nil || scorer == nil {
		return nil, fmt.Errorf("core: nil index or scorer")
	}
	e := &Engine{
		FX:     fx,
		Scorer: scorer,
		// Corpus statistics are recorded in index.Stats at build time, so
		// no lexicon scan is needed here.
		corpus: fx.Stats.Corpus(),
	}
	numDocs := fx.Stats.NumDocs
	e.states.New = func() any { return &engState{acc: rank.NewAccumulator(numDocs)} }
	return e, nil
}

// acquireState draws a clean search state from the pool; releaseState
// returns it for the next search.
func (e *Engine) acquireState() *engState {
	return e.states.Get().(*engState)
}

func (e *Engine) releaseState(st *engState) {
	st.acc.Reset()
	st.cand = st.cand[:0]
	st.large = st.large[:0]
	e.states.Put(st)
}

// Corpus exposes the collection statistics the engine ranks with.
func (e *Engine) Corpus() rank.CorpusStat { return e.corpus }

// termStat fetches global term statistics (fragmentation never changes
// the ranking formula's inputs — only which lists get read).
func (e *Engine) termStat(t lexicon.TermID) rank.TermStat {
	s := e.FX.Lex.Stats(t)
	return rank.TermStat{DocFreq: int(s.DocFreq), CollFreq: s.CollFreq}
}

// Coverage computes the quality check of the paper's safe technique: the
// fraction of the query's maximum attainable score mass that small-
// fragment terms can contribute. The upper bounds come from the ranking
// model, so the check adapts to the scorer in use. A coverage of 1 means
// the unsafe plan loses nothing; near 0 means almost all ranking signal
// sits in the large fragment.
//
// The check runs at plan time: it touches only the lexicon statistics,
// never the postings — this is what makes it an "early" check in the
// paper's sense.
func (e *Engine) Coverage(q collection.Query) float64 {
	var smallUB, totalUB float64
	for _, t := range q.Terms {
		ts := e.termStat(t)
		if ts.DocFreq == 0 {
			continue
		}
		ub := e.Scorer.UpperBound(ts, e.corpus)
		totalUB += ub
		if e.FX.Small.Has(t) {
			smallUB += ub
		}
	}
	if totalUB == 0 {
		return 1
	}
	return smallUB / totalUB
}

// Search evaluates q with the configured strategy. It is
// SearchContext without cancellation.
func (e *Engine) Search(q collection.Query, opts Options) (Result, error) {
	return e.SearchContext(context.Background(), q, opts)
}

// SearchContext evaluates q with the configured strategy, observing ctx:
// a cancelled or deadline-expired context aborts the evaluation at
// postings-block granularity and returns ctx.Err(), so a caller that has
// gone away stops costing decode work almost immediately.
func (e *Engine) SearchContext(ctx context.Context, q collection.Query, opts Options) (Result, error) {
	opts.fillDefaults()
	if opts.N <= 0 {
		return Result{}, fmt.Errorf("core: N = %d must be positive", opts.N)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Coverage = e.Coverage(q)

	useLarge := false
	switch opts.Mode {
	case ModeFull:
		useLarge = true
	case ModeUnsafe:
		useLarge = false
	case ModeSafe:
		useLarge = res.Coverage < opts.SwitchThreshold
		res.Switched = useLarge
	default:
		return Result{}, fmt.Errorf("core: unknown mode %d", opts.Mode)
	}

	st := e.acquireState()
	defer e.releaseState(st)
	acc := st.acc
	poll := ctxPoll{ctx: ctx}

	// Pass 1: small-fragment terms, always streamed in full (they are
	// cheap by construction).
	largeTerms := st.large
	for _, t := range q.Terms {
		ts := e.termStat(t)
		if ts.DocFreq == 0 {
			continue
		}
		if e.FX.Small.Has(t) {
			if err := e.streamTerm(&poll, acc, e.FX.Small, t, ts); err != nil {
				return Result{}, err
			}
			res.TermsProcessed++
			continue
		}
		if useLarge {
			largeTerms = append(largeTerms, t)
		} else {
			res.TermsSkipped++
		}
	}
	st.large = largeTerms

	// Pass 2: large-fragment terms, streamed or candidate-probed. Probing
	// restricts scoring to documents the small pass surfaced; when that
	// pass produced no candidates (a query of only frequent terms), the
	// sound fallback is streaming.
	probe := opts.ProbeLarge && opts.Mode == ModeSafe && acc.Touched() > 0
	for _, t := range largeTerms {
		ts := e.termStat(t)
		var err error
		if probe {
			err = e.probeTerm(&poll, st, t, ts)
		} else {
			err = e.streamTerm(&poll, acc, e.FX.Large, t, ts)
		}
		if err != nil {
			return Result{}, err
		}
		res.TermsProcessed++
	}

	res.DocsTouched = acc.Touched()
	if st.heap == nil {
		h, err := topk.NewHeap(opts.N)
		if err != nil {
			return Result{}, err
		}
		st.heap = h
	} else if err := st.heap.Reset(opts.N); err != nil {
		return Result{}, err
	}
	acc.Each(func(doc uint32, score float64) {
		st.heap.Offer(rank.DocScore{DocID: doc, Score: score})
	})
	res.Top = st.heap.Results()
	return res, nil
}

// streamTerm accumulates one full postings list.
func (e *Engine) streamTerm(poll *ctxPoll, acc *rank.Accumulator, frag *index.Fragment, t lexicon.TermID, ts rank.TermStat) error {
	it, ok, err := frag.Reader(t)
	if err != nil {
		return fmt.Errorf("core: term %d: %w", t, err)
	}
	if !ok {
		return nil
	}
	defer it.Close()
	kern := rank.Compile(e.Scorer, ts, e.corpus)
	for it.Next() {
		if err := poll.check(); err != nil {
			return err
		}
		p := it.At()
		acc.Add(p.DocID, kern.Score(int32(p.TF), e.FX.Stats.DocLen(p.DocID)))
	}
	return it.Err()
}

// probeTerm adds a large-fragment term's contributions only for documents
// already in the accumulator, seeking through the list's non-dense index
// instead of decoding it fully. This realizes the paper's plan of a
// sparse index that performs "extra computations while still decreasing
// execution time": the extra computations are the per-candidate seeks, and
// the saving is the skipped decoding between candidates.
func (e *Engine) probeTerm(poll *ctxPoll, st *engState, t lexicon.TermID, ts rank.TermStat) error {
	acc := st.acc
	st.cand = acc.AppendTouched(st.cand[:0])
	candidates := st.cand
	slices.Sort(candidates)
	if len(candidates) == 0 {
		return nil
	}
	it, ok, err := e.FX.Large.Reader(t)
	if err != nil {
		return fmt.Errorf("core: term %d: %w", t, err)
	}
	if !ok {
		return nil
	}
	defer it.Close()
	last, ok := it.LastDoc()
	if !ok {
		return nil
	}
	kern := rank.Compile(e.Scorer, ts, e.corpus)
	for _, doc := range candidates {
		if err := poll.check(); err != nil {
			return err
		}
		if doc > last {
			break // ascending candidates have passed the list's end
		}
		// Block-bound membership check: when no block's id range covers
		// the candidate, the term certainly does not occur in it, and the
		// seek (and any block decode it would trigger) is skipped.
		if it.BlockMaxTF(doc) == 0 {
			continue
		}
		if !it.SeekGE(doc) {
			break
		}
		if p := it.At(); p.DocID == doc {
			acc.Add(doc, kern.Score(int32(p.TF), e.FX.Stats.DocLen(doc)))
		}
	}
	return it.Err()
}
