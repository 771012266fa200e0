package rank

import "math"

// Kernel is a Scorer compiled for one (term, corpus) pair: every factor
// of the model's formula that does not depend on the posting — the idf
// logarithm, k1+1, 1-b, k1·(1-b), (1-λ)·cf — is computed once by Compile,
// so the per-posting path is a handful of multiplies and one divide for
// BM25 and TF-IDF (no math.Log) and involves no interface dispatch. The
// engines build one per query term per search.
//
// The Scorer stays the specification: Score and UpperBoundTF return the
// same bits as the Scorer's methods (math.Float64bits equality, pinned by
// TestKernelBitIdentical). That holds because Compile hoists only whole
// sub-expressions and the methods keep the Scorer's evaluation order;
// where a product feeds a sum both sides spell the product float64(x*y),
// which forbids fusing it into the add on platforms that would.
type Kernel struct {
	kind kernelKind

	// BM25 and TF-IDF: idf is the model's logarithm. BM25 alone:
	// k1p1 = k1+1, oneMinusB = 1-b, k1Floor = k1·(1-b).
	idf, k1, k1p1, b, oneMinusB, k1Floor, avgDocLen float64
	// LM: lmDenom = (1-λ)·cf.
	lambda, tokens, lmDenom float64
	// ub is Scorer.UpperBound, the bound of the kinds that have no
	// TF refinement (TF-IDF, LM).
	ub float64

	// kernelGeneric: an implementation this package does not know is
	// called through its interface with the statistics kept here.
	scorer Scorer
	ts     TermStat
	cs     CorpusStat
}

type kernelKind uint8

const (
	kernelZero kernelKind = iota // the term matches nothing: every score and bound is 0
	kernelBM25
	kernelTFIDF
	kernelLM
	kernelGeneric
)

// Compile builds the kernel of s for a term with statistics t in a
// corpus with statistics c.
func Compile(s Scorer, t TermStat, c CorpusStat) Kernel {
	switch s := s.(type) {
	case BM25:
		if t.DocFreq <= 0 {
			return Kernel{}
		}
		return Kernel{
			kind: kernelBM25, idf: s.idf(t, c),
			k1: s.K1, k1p1: s.K1 + 1, b: s.B, oneMinusB: 1 - s.B, k1Floor: s.K1 * (1 - s.B),
			avgDocLen: c.AvgDocLen,
		}
	case TFIDF:
		if t.DocFreq <= 0 {
			return Kernel{}
		}
		idf := s.UpperBound(t, c)
		return Kernel{kind: kernelTFIDF, idf: idf, ub: idf}
	case LM:
		if t.CollFreq <= 0 || c.TotalTokens <= 0 {
			return Kernel{}
		}
		return Kernel{
			kind: kernelLM, lambda: s.Lambda, tokens: float64(c.TotalTokens),
			lmDenom: (1 - s.Lambda) * float64(t.CollFreq),
			ub:      s.UpperBound(t, c),
		}
	}
	return Kernel{kind: kernelGeneric, scorer: s, ts: t, cs: c}
}

// Score returns what the compiled Scorer's Score returns for a term
// occurring tf times in a document of length docLen.
func (k *Kernel) Score(tf, docLen int32) float64 {
	switch k.kind {
	case kernelBM25:
		if tf <= 0 {
			return 0
		}
		norm := k.oneMinusB + k.b*float64(docLen)/k.avgDocLen
		ftf := float64(tf)
		return k.idf * ftf * k.k1p1 / (ftf + float64(k.k1*norm))
	case kernelTFIDF:
		if tf <= 0 || docLen <= 0 {
			return 0
		}
		return float64(tf) / float64(docLen) * k.idf
	case kernelLM:
		if tf <= 0 || docLen <= 0 {
			return 0
		}
		ratio := (k.lambda * float64(tf) * k.tokens) / (k.lmDenom * float64(docLen))
		return math.Log(1 + ratio)
	case kernelGeneric:
		return k.scorer.Score(tf, docLen, k.ts, k.cs)
	}
	return 0
}

// UpperBoundTF returns what the package-level UpperBoundTF returns for
// the compiled Scorer: the bound over documents whose term frequency is
// at most maxTF where the model has that refinement (BM25), its plain
// UpperBound otherwise.
func (k *Kernel) UpperBoundTF(maxTF int32) float64 {
	switch k.kind {
	case kernelBM25:
		if maxTF <= 0 {
			return 0
		}
		ftf := float64(maxTF)
		return k.idf * ftf * k.k1p1 / (ftf + k.k1Floor)
	case kernelTFIDF, kernelLM:
		return k.ub
	case kernelGeneric:
		return UpperBoundTF(k.scorer, maxTF, k.ts, k.cs)
	}
	return 0
}
