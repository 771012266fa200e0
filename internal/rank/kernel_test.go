package rank

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// halfTF is a Scorer this package's Compile does not know: the kernel
// must reach it through the interface.
type halfTF struct{}

func (halfTF) Name() string { return "half-tf" }
func (halfTF) Score(tf, docLen int32, t TermStat, c CorpusStat) float64 {
	return float64(tf) / 2 / float64(t.DocFreq+1)
}
func (halfTF) UpperBound(t TermStat, c CorpusStat) float64 { return math.MaxInt32 }

// TestKernelBitIdentical pins the kernel to its specification: over
// seeded random statistics and postings — the corners included: tf = 0,
// docLen = 0, df = 0, cf = 0, df > N/2, an empty corpus — Score and
// UpperBoundTF return the Scorer's bits exactly.
func TestKernelBitIdentical(t *testing.T) {
	scorers := append(allScorers(), BM25{K1: 0.9, B: 0.4}, BM25{K1: 2, B: 0}, LM{Lambda: 0.5}, halfTF{})
	rng := xrand.New(20260925)
	pick := func(max int) int { // 0 one time in eight, else uniform in [1, max]
		if rng.Intn(8) == 0 {
			return 0
		}
		return 1 + rng.Intn(max)
	}
	for trial := 0; trial < 4000; trial++ {
		n := pick(200000)
		c := CorpusStat{NumDocs: n, AvgDocLen: float64(pick(400)) + rng.Float64(), TotalTokens: int64(pick(1 << 30))}
		df := pick(max(n, 1)) // uniform over [1, N]: above N/2 half the time
		if rng.Intn(16) == 0 {
			df = n + pick(100) // statistics of a larger collection than the segment's
		}
		ts := TermStat{DocFreq: df, CollFreq: int64(df) * int64(pick(50))}
		for _, s := range scorers {
			k := Compile(s, ts, c)
			for i := 0; i < 8; i++ {
				tf, dl := int32(pick(300)), int32(pick(5000))
				if got, want := k.Score(tf, dl), s.Score(tf, dl, ts, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Score(tf=%d, dl=%d, %+v, %+v): kernel %v (%#x), scorer %v (%#x)",
						s.Name(), tf, dl, ts, c, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := k.UpperBoundTF(tf), UpperBoundTF(s, tf, ts, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: UpperBoundTF(%d, %+v, %+v): kernel %v, scorer %v", s.Name(), tf, ts, c, got, want)
				}
			}
		}
	}
}
