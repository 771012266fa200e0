// Package rank implements the additive ranking models used by the
// reproduction: TF-IDF, Okapi BM25, and the Hiemstra language model that
// the paper's group used in the mi:Ror system at TREC.
//
// All three models share the structure that top-N optimization exploits:
// a document's score for a query is the sum over query terms of a
// per-(term, document) contribution that is monotone in the within-
// document term frequency and bounded above by a term-level constant. The
// bound is what makes Fagin-style upper/lower bound administration and the
// paper's safe fragment-switch check possible: skipping a term forfeits at
// most UpperBound(term) score per document.
package rank

import (
	"fmt"
	"math"
	"sort"
)

// TermStat carries the corpus statistics of one term, as maintained by the
// lexicon.
type TermStat struct {
	DocFreq  int   // documents containing the term
	CollFreq int64 // total occurrences in the collection
}

// CorpusStat carries collection-level statistics.
type CorpusStat struct {
	NumDocs     int
	AvgDocLen   float64
	TotalTokens int64
}

// Scorer computes the contribution of a single query term to a single
// document's score. Implementations must be additive across query terms,
// monotone non-decreasing in tf, and bounded by UpperBound.
type Scorer interface {
	// Name identifies the model in experiment output.
	Name() string
	// Score returns the contribution of a term occurring tf times in a
	// document of length docLen.
	Score(tf, docLen int32, t TermStat, c CorpusStat) float64
	// UpperBound returns the maximum possible Score over all valid
	// (tf, docLen) pairs. Used for bound administration.
	UpperBound(t TermStat, c CorpusStat) float64
}

// TFIDF is the classic vector-space weighting: relative term frequency
// scaled by inverse document frequency.
type TFIDF struct{}

// Name implements Scorer.
func (TFIDF) Name() string { return "tfidf" }

// Score implements Scorer: (tf/docLen) · ln(1 + N/df).
func (TFIDF) Score(tf, docLen int32, t TermStat, c CorpusStat) float64 {
	if tf <= 0 || docLen <= 0 || t.DocFreq <= 0 {
		return 0
	}
	return float64(tf) / float64(docLen) * math.Log(1+float64(c.NumDocs)/float64(t.DocFreq))
}

// TFBoundedScorer is implemented by scorers whose per-term bound
// tightens when the maximum within-document term frequency over some
// posting range (a block, or a whole list) is known. The postings layer
// records that maximum per block, which is what turns a term-level
// MaxScore bound into a Block-Max bound: same answer, tighter pruning.
type TFBoundedScorer interface {
	Scorer
	// UpperBoundTF returns the maximum possible Score over documents
	// whose term frequency is at most maxTF. It must never exceed
	// UpperBound and must be monotone non-decreasing in maxTF.
	UpperBoundTF(maxTF int32, t TermStat, c CorpusStat) float64
}

// UpperBoundTF returns the tightest available bound for a term whose
// frequency is known to be at most maxTF: the scorer's TF-bounded bound
// when it implements TFBoundedScorer, its plain UpperBound otherwise.
// Ratio-form scorers (TFIDF, LM) peak at tf == docLen regardless of the
// absolute frequency, so for them the plain bound is already tight and
// they deliberately do not implement the refinement.
func UpperBoundTF(s Scorer, maxTF int32, t TermStat, c CorpusStat) float64 {
	if b, ok := s.(TFBoundedScorer); ok {
		return b.UpperBoundTF(maxTF, t, c)
	}
	return s.UpperBound(t, c)
}

// UpperBound implements Scorer: attained when the document consists solely
// of the term (tf == docLen).
func (TFIDF) UpperBound(t TermStat, c CorpusStat) float64 {
	if t.DocFreq <= 0 {
		return 0
	}
	return math.Log(1 + float64(c.NumDocs)/float64(t.DocFreq))
}

// BM25 is the Okapi probabilistic weighting with the usual saturation and
// length-normalization parameters.
type BM25 struct {
	K1 float64 // tf saturation; typical 1.2
	B  float64 // length normalization; typical 0.75
}

// NewBM25 returns a BM25 scorer with the standard parameters k1=1.2, b=0.75.
func NewBM25() BM25 { return BM25{K1: 1.2, B: 0.75} }

// Name implements Scorer.
func (s BM25) Name() string { return fmt.Sprintf("bm25(k1=%.2g,b=%.2g)", s.K1, s.B) }

func (s BM25) idf(t TermStat, c CorpusStat) float64 {
	if t.DocFreq <= 0 {
		return 0
	}
	// The non-negative "plus one" IDF variant, so contributions are
	// monotone and bounded as Scorer requires even for df > N/2.
	return math.Log(1 + (float64(c.NumDocs)-float64(t.DocFreq)+0.5)/(float64(t.DocFreq)+0.5))
}

// Score implements Scorer.
func (s BM25) Score(tf, docLen int32, t TermStat, c CorpusStat) float64 {
	if tf <= 0 || t.DocFreq <= 0 {
		return 0
	}
	norm := 1 - s.B + s.B*float64(docLen)/c.AvgDocLen
	ftf := float64(tf)
	// float64(...) keeps the product from being fused into the add, so
	// every platform rounds it the way the compiled Kernel does.
	return s.idf(t, c) * ftf * (s.K1 + 1) / (ftf + float64(s.K1*norm))
}

// UpperBound implements Scorer: the tf term saturates at (k1+1) as tf→∞
// and the length norm is bounded below by (1-b), so the supremum is
// idf·(k1+1)·1/(1·...) — conservatively idf·(k1+1).
func (s BM25) UpperBound(t TermStat, c CorpusStat) float64 {
	return s.idf(t, c) * (s.K1 + 1)
}

// UpperBoundTF implements TFBoundedScorer. The tf factor
// tf·(k1+1)/(tf+k1·norm) is increasing in tf and decreasing in norm, so
// with tf ≤ maxTF and norm ≥ 1-b the supremum is
// idf·(k1+1)·maxTF/(maxTF+k1·(1-b)) — strictly below the saturation
// bound whenever maxTF is finite, which is what makes per-block max-TF
// metadata worth storing.
func (s BM25) UpperBoundTF(maxTF int32, t TermStat, c CorpusStat) float64 {
	if maxTF <= 0 {
		return 0
	}
	ftf := float64(maxTF)
	return s.idf(t, c) * ftf * (s.K1 + 1) / (ftf + float64(s.K1*(1-s.B)))
}

// LM is Hiemstra's linearly interpolated language model, the ranking
// formula of the mi:Ror system referenced by the paper ([VH99]). The score
// of a term is log(1 + (λ·tf·T)/((1-λ)·cf·docLen)), summed over matching
// query terms; documents not containing any query term score zero,
// matching the implementation trick that makes LM usable with inverted
// files.
type LM struct {
	Lambda float64 // interpolation weight of the document model; typical 0.15
}

// NewLM returns an LM scorer with the standard λ = 0.15.
func NewLM() LM { return LM{Lambda: 0.15} }

// Name implements Scorer.
func (s LM) Name() string { return fmt.Sprintf("lm(lambda=%.2g)", s.Lambda) }

// Score implements Scorer.
func (s LM) Score(tf, docLen int32, t TermStat, c CorpusStat) float64 {
	if tf <= 0 || docLen <= 0 || t.CollFreq <= 0 || c.TotalTokens <= 0 {
		return 0
	}
	ratio := (s.Lambda * float64(tf) * float64(c.TotalTokens)) /
		((1 - s.Lambda) * float64(t.CollFreq) * float64(docLen))
	return math.Log(1 + ratio)
}

// UpperBound implements Scorer: maximized at tf == docLen.
func (s LM) UpperBound(t TermStat, c CorpusStat) float64 {
	if t.CollFreq <= 0 || c.TotalTokens <= 0 {
		return 0
	}
	ratio := (s.Lambda * float64(c.TotalTokens)) / ((1 - s.Lambda) * float64(t.CollFreq))
	return math.Log(1 + ratio)
}

// DocScore pairs a document with its accumulated score.
type DocScore struct {
	DocID uint32
	Score float64
}

// SortByScore orders descending by score, breaking ties by ascending
// document id so rankings are deterministic.
func SortByScore(ds []DocScore) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Score != ds[j].Score {
			return ds[i].Score > ds[j].Score
		}
		return ds[i].DocID < ds[j].DocID
	})
}

// Less reports whether a ranks strictly after b (lower score, or equal
// score with higher doc id) — the comparator shared by every top-N
// structure in the repository so all algorithms agree on ranking order.
func Less(a, b DocScore) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DocID > b.DocID
}

// Accumulator gathers per-document partial scores during term-at-a-time
// evaluation. It is a dense array with an explicit touched list, which is
// both faster than a map at IR scales and gives deterministic iteration.
type Accumulator struct {
	scores  []float64
	touched []uint32
	seen    []bool
}

// NewAccumulator returns an accumulator sized for numDocs documents.
func NewAccumulator(numDocs int) *Accumulator {
	return &Accumulator{
		scores: make([]float64, numDocs),
		seen:   make([]bool, numDocs),
	}
}

// Add accumulates delta onto doc's score.
func (a *Accumulator) Add(doc uint32, delta float64) {
	if !a.seen[doc] {
		a.seen[doc] = true
		a.touched = append(a.touched, doc)
	}
	a.scores[doc] += delta
}

// Get returns doc's accumulated score.
func (a *Accumulator) Get(doc uint32) float64 { return a.scores[doc] }

// Touched returns the number of documents with a non-zero accumulator —
// the "objects taken into consideration" the paper wants to minimize.
func (a *Accumulator) Touched() int { return len(a.touched) }

// Results returns all touched documents with their scores, sorted by
// descending score (ties by ascending id).
func (a *Accumulator) Results() []DocScore {
	out := make([]DocScore, 0, len(a.touched))
	for _, doc := range a.touched {
		out = append(out, DocScore{DocID: doc, Score: a.scores[doc]})
	}
	SortByScore(out)
	return out
}

// Each calls f for every touched document with its accumulated score,
// in touch order. It is the allocation-free alternative to Results for
// callers (bounded heaps) that do their own selection.
func (a *Accumulator) Each(f func(doc uint32, score float64)) {
	for _, doc := range a.touched {
		f(doc, a.scores[doc])
	}
}

// AppendTouched appends the touched document ids to dst in touch order
// and returns the extended slice.
func (a *Accumulator) AppendTouched(dst []uint32) []uint32 {
	return append(dst, a.touched...)
}

// Reset clears the accumulator for reuse without reallocating.
func (a *Accumulator) Reset() {
	for _, doc := range a.touched {
		a.scores[doc] = 0
		a.seen[doc] = false
	}
	a.touched = a.touched[:0]
}
