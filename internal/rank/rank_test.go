package rank

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

var testCorpus = CorpusStat{NumDocs: 10000, AvgDocLen: 300, TotalTokens: 3_000_000}

func allScorers() []Scorer {
	return []Scorer{TFIDF{}, NewBM25(), NewLM()}
}

func TestScoreZeroCases(t *testing.T) {
	ts := TermStat{DocFreq: 100, CollFreq: 500}
	for _, s := range allScorers() {
		if got := s.Score(0, 300, ts, testCorpus); got != 0 {
			t.Errorf("%s: tf=0 scored %v", s.Name(), got)
		}
		if got := s.Score(5, 300, TermStat{}, testCorpus); got != 0 {
			t.Errorf("%s: empty term stat scored %v", s.Name(), got)
		}
	}
}

func TestScorePositive(t *testing.T) {
	ts := TermStat{DocFreq: 100, CollFreq: 500}
	for _, s := range allScorers() {
		if got := s.Score(3, 300, ts, testCorpus); got <= 0 {
			t.Errorf("%s: positive match scored %v", s.Name(), got)
		}
	}
}

func TestScoreMonotoneInTF(t *testing.T) {
	ts := TermStat{DocFreq: 100, CollFreq: 2000}
	for _, s := range allScorers() {
		prev := 0.0
		for tf := int32(1); tf <= 50; tf++ {
			cur := s.Score(tf, 300, ts, testCorpus)
			if cur < prev {
				t.Errorf("%s: score decreased at tf=%d", s.Name(), tf)
			}
			prev = cur
		}
	}
}

func TestRareTermsScoreHigher(t *testing.T) {
	// The foundation of the paper's fragmentation: rare terms carry more
	// weight per occurrence than frequent ones.
	rare := TermStat{DocFreq: 5, CollFreq: 10}
	freq := TermStat{DocFreq: 5000, CollFreq: 200000}
	for _, s := range allScorers() {
		r := s.Score(2, 300, rare, testCorpus)
		f := s.Score(2, 300, freq, testCorpus)
		if r <= f {
			t.Errorf("%s: rare term %v <= frequent term %v", s.Name(), r, f)
		}
	}
}

// TestUpperBoundHolds is the key property for bound administration: no
// achievable (tf, docLen) combination may exceed UpperBound.
func TestUpperBoundHolds(t *testing.T) {
	rng := xrand.New(17)
	for _, s := range allScorers() {
		for trial := 0; trial < 5000; trial++ {
			df := 1 + rng.Intn(testCorpus.NumDocs)
			cf := int64(df) + int64(rng.Intn(1000))*int64(df)/10
			ts := TermStat{DocFreq: df, CollFreq: cf}
			docLen := int32(1 + rng.Intn(2000))
			tf := int32(1 + rng.Intn(int(docLen)))
			score := s.Score(tf, docLen, ts, testCorpus)
			bound := s.UpperBound(ts, testCorpus)
			if score > bound+1e-12 {
				t.Fatalf("%s: score %v exceeds bound %v (tf=%d dl=%d df=%d cf=%d)",
					s.Name(), score, bound, tf, docLen, df, cf)
			}
		}
	}
}

func TestUpperBoundTight(t *testing.T) {
	// For TFIDF and LM the bound is attained at tf == docLen; check the
	// bound is not wildly loose (within 1%).
	ts := TermStat{DocFreq: 50, CollFreq: 80}
	for _, s := range []Scorer{TFIDF{}, NewLM()} {
		best := s.Score(200, 200, ts, testCorpus)
		bound := s.UpperBound(ts, testCorpus)
		if bound > best*1.01 {
			t.Errorf("%s: bound %v much looser than attainable %v", s.Name(), bound, best)
		}
	}
}

func TestBM25Saturation(t *testing.T) {
	s := NewBM25()
	ts := TermStat{DocFreq: 100, CollFreq: 400}
	low := s.Score(1, 300, ts, testCorpus)
	high := s.Score(100, 300, ts, testCorpus)
	bound := s.UpperBound(ts, testCorpus)
	if high <= low {
		t.Error("BM25 not increasing")
	}
	if high >= bound {
		t.Error("BM25 must stay strictly under its saturation bound")
	}
	// Doubling tf from 50 to 100 must matter far less than 1 to 2
	// (diminishing returns).
	gain12 := s.Score(2, 300, ts, testCorpus) - s.Score(1, 300, ts, testCorpus)
	gain50 := s.Score(100, 300, ts, testCorpus) - s.Score(50, 300, ts, testCorpus)
	if gain50 >= gain12 {
		t.Error("BM25 saturation broken: late gains not smaller than early gains")
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	s := NewBM25()
	ts := TermStat{DocFreq: 100, CollFreq: 400}
	short := s.Score(5, 100, ts, testCorpus)
	long := s.Score(5, 1000, ts, testCorpus)
	if short <= long {
		t.Error("same tf in a shorter document must score higher")
	}
}

func TestLMLambdaEffect(t *testing.T) {
	ts := TermStat{DocFreq: 100, CollFreq: 400}
	weak := LM{Lambda: 0.05}.Score(5, 300, ts, testCorpus)
	strong := LM{Lambda: 0.8}.Score(5, 300, ts, testCorpus)
	if weak >= strong {
		t.Error("higher lambda must weight document evidence more")
	}
}

func TestSortByScoreDeterministic(t *testing.T) {
	ds := []DocScore{{3, 1.0}, {1, 2.0}, {2, 1.0}, {0, 0.5}}
	SortByScore(ds)
	want := []DocScore{{1, 2.0}, {2, 1.0}, {3, 1.0}, {0, 0.5}}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, ds[i], want[i])
		}
	}
}

func TestLessTotalOrder(t *testing.T) {
	if err := quick.Check(func(aID, bID uint16, aS, bS float64) bool {
		a := DocScore{uint32(aID), aS}
		b := DocScore{uint32(bID), bS}
		if a == b {
			return !Less(a, b) && !Less(b, a)
		}
		// Antisymmetry for distinct values.
		return Less(a, b) != Less(b, a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLessAgreesWithSort(t *testing.T) {
	ds := []DocScore{{3, 1.0}, {1, 2.0}, {2, 1.0}, {0, 0.5}, {9, 2.0}}
	SortByScore(ds)
	for i := 1; i < len(ds); i++ {
		if Less(ds[i-1], ds[i]) {
			t.Fatalf("sorted order violates Less at %d", i)
		}
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(100)
	a.Add(5, 1.5)
	a.Add(10, 0.5)
	a.Add(5, 1.0)
	if got := a.Get(5); got != 2.5 {
		t.Errorf("Get(5) = %v, want 2.5", got)
	}
	if a.Touched() != 2 {
		t.Errorf("Touched = %d, want 2", a.Touched())
	}
	res := a.Results()
	if len(res) != 2 || res[0].DocID != 5 || res[1].DocID != 10 {
		t.Errorf("Results = %v", res)
	}
	a.Reset()
	if a.Touched() != 0 || a.Get(5) != 0 {
		t.Error("Reset incomplete")
	}
	// Reuse after reset.
	a.Add(7, 3.0)
	if a.Touched() != 1 || a.Get(7) != 3.0 {
		t.Error("accumulator unusable after reset")
	}
}

func TestAccumulatorMatchesMap(t *testing.T) {
	rng := xrand.New(23)
	a := NewAccumulator(1000)
	ref := map[uint32]float64{}
	for i := 0; i < 5000; i++ {
		doc := uint32(rng.Intn(1000))
		delta := rng.Float64()
		a.Add(doc, delta)
		ref[doc] += delta
	}
	if a.Touched() != len(ref) {
		t.Fatalf("touched %d, want %d", a.Touched(), len(ref))
	}
	for doc, want := range ref {
		if got := a.Get(doc); math.Abs(got-want) > 1e-9 {
			t.Fatalf("doc %d: %v, want %v", doc, got, want)
		}
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	a := NewAccumulator(100000)
	rng := xrand.New(1)
	docs := make([]uint32, 4096)
	for i := range docs {
		docs[i] = uint32(rng.Intn(100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(docs[i&4095], 1.0)
	}
}

func BenchmarkBM25Score(b *testing.B) {
	s := NewBM25()
	ts := TermStat{DocFreq: 1000, CollFreq: 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Score(int32(i&15+1), 300, ts, testCorpus)
	}
}

var benchSink float64

func BenchmarkKernelScore(b *testing.B) {
	k := Compile(NewBM25(), TermStat{DocFreq: 1000, CollFreq: 5000}, testCorpus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = k.Score(int32(i&15+1), 300)
	}
}
