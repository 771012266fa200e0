package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/xrand"
)

func buildMaxScore(t testing.TB) (*MaxScoreEngine, *index.Index) {
	t.Helper()
	f := fix(t)
	pool, err := storage.NewPool(storage.NewDisk(), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(f.col, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	return ms, idx
}

// TestMaxScoreExact: MaxScore must return exactly the full engine's
// ranking — it is a safe technique by construction.
func TestMaxScoreExact(t *testing.T) {
	f := fix(t)
	ms, _ := buildMaxScore(t)
	for _, queries := range [][]collection.Query{f.queries, f.freqQueries} {
		for _, q := range queries {
			want, err := f.engine.Search(q, Options{N: 10, Mode: ModeFull})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ms.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Top) {
				t.Fatalf("query %d: %d results, want %d", q.ID, len(got), len(want.Top))
			}
			for i := range want.Top {
				if got[i].DocID != want.Top[i].DocID {
					t.Fatalf("query %d: position %d is doc %d, want %d",
						q.ID, i, got[i].DocID, want.Top[i].DocID)
				}
				if diff := got[i].Score - want.Top[i].Score; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("query %d: score mismatch at %d: %v vs %v",
						q.ID, i, got[i].Score, want.Top[i].Score)
				}
			}
		}
	}
}

// TestMaxScoreSavesDecoding: on queries mixing strong and weak terms, the
// pruning must decode fewer postings than exhaustive evaluation.
func TestMaxScoreSavesDecoding(t *testing.T) {
	f := fix(t)
	ms, idx := buildMaxScore(t)
	var exhaustive int64
	for _, q := range f.freqQueries {
		for _, term := range q.Terms {
			exhaustive += int64(idx.DocFreq(term))
		}
	}
	idx.Counters().Reset()
	for _, q := range f.freqQueries {
		if _, err := ms.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	pruned := idx.Counters().PostingsDecoded
	if pruned >= exhaustive {
		t.Errorf("MaxScore decoded %d postings vs exhaustive %d; pruning ineffective", pruned, exhaustive)
	}
}

// TestMaxScoreSmallN: tighter N means higher thresholds and more pruning.
func TestMaxScoreSmallN(t *testing.T) {
	f := fix(t)
	ms, idx := buildMaxScore(t)
	count := func(n int) int64 {
		idx.Counters().Reset()
		for _, q := range f.freqQueries {
			if _, err := ms.Search(q, n); err != nil {
				t.Fatal(err)
			}
		}
		return idx.Counters().PostingsDecoded
	}
	if d1, d100 := count(1), count(100); d1 > d100 {
		t.Errorf("N=1 decoded %d > N=100 decoded %d; threshold should tighten with smaller N", d1, d100)
	}
}

func TestMaxScoreValidation(t *testing.T) {
	f := fix(t)
	ms, _ := buildMaxScore(t)
	if _, err := ms.Search(f.queries[0], 0); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewMaxScore(nil, rank.NewBM25()); err == nil {
		t.Error("nil index accepted")
	}
	// Query with no indexed terms returns empty, not an error.
	res, err := ms.Search(collection.Query{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("empty query returned results")
	}
}

// TestBlockMaxEquivalence is the block-max acceptance check: on
// workloads whose lists span many blocks, the block-bound pruning must
// actually fire (SkipsTaken > 0), must save decoding versus exhaustive
// evaluation, and the results must stay byte-identical to full
// evaluation — the "same answer, less work" guarantee extended one
// level below whole-term MaxScore.
func TestBlockMaxEquivalence(t *testing.T) {
	f := fix(t)
	ms, idx := buildMaxScore(t)
	multiBlock := 0
	for id := 0; id < f.col.Lex.Size(); id++ {
		if idx.DocFreq(lexTermIDT(id)) > postings.BlockSize {
			multiBlock++
		}
	}
	if multiBlock == 0 {
		t.Fatal("fixture has no multi-block lists; the test would prove nothing")
	}
	idx.Counters().Reset()
	var exhaustive int64
	for _, q := range f.freqQueries {
		for _, term := range q.Terms {
			exhaustive += int64(idx.DocFreq(term))
		}
		want, err := f.engine.Search(q, Options{N: 10, Mode: ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ms.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Top) {
			t.Fatalf("query %d: %d results, want %d", q.ID, len(got), len(want.Top))
		}
		for i := range want.Top {
			if got[i].DocID != want.Top[i].DocID {
				t.Fatalf("query %d: rank %d is doc %d, want %d",
					q.ID, i, got[i].DocID, want.Top[i].DocID)
			}
		}
	}
	if skips := idx.Counters().LoadSkipsTaken(); skips == 0 {
		t.Error("block-max pruning never fired on the frequent-terms workload")
	}
	if dec := idx.Counters().LoadPostingsDecoded(); dec >= exhaustive {
		t.Errorf("block-max MaxScore decoded %d >= exhaustive %d", dec, exhaustive)
	}
}

// TestStatsTotalTokens: the build-time token total the engines now rank
// with must equal what the old per-constructor lexicon scan computed.
func TestStatsTotalTokens(t *testing.T) {
	f := fix(t)
	_, idx := buildMaxScore(t)
	var scanned int64
	for id := 0; id < f.col.Lex.Size(); id++ {
		scanned += f.col.Lex.Stats(lexTermIDT(id)).CollFreq
	}
	if idx.Stats.TotalTokens != scanned {
		t.Errorf("Stats.TotalTokens = %d, lexicon scan says %d", idx.Stats.TotalTokens, scanned)
	}
	if idx.Stats.TotalTokens != f.col.TotalTokens {
		t.Errorf("Stats.TotalTokens = %d, collection says %d", idx.Stats.TotalTokens, f.col.TotalTokens)
	}
}

// BenchmarkMaxScoreSearch tracks the DAAT hot path end to end: block
// decoding, bound administration, and heap maintenance over the
// frequent-terms workload.
func BenchmarkMaxScoreSearch(b *testing.B) {
	f := fix(b)
	ms, _ := buildMaxScore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.freqQueries[i%len(f.freqQueries)]
		if _, err := ms.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMaxScoreRandomQueries widens the equivalence check beyond the fixed
// workloads: random term subsets of random sizes.
func TestMaxScoreRandomQueries(t *testing.T) {
	f := fix(t)
	ms, _ := buildMaxScore(t)
	rng := xrand.New(555)
	for trial := 0; trial < 60; trial++ {
		nTerms := 1 + rng.Intn(8)
		q := collection.Query{ID: trial}
		seen := map[int]bool{}
		for len(q.Terms) < nTerms {
			d := &f.col.Docs[rng.Intn(len(f.col.Docs))]
			if len(d.Terms) == 0 {
				continue
			}
			term := d.Terms[rng.Intn(len(d.Terms))].Term
			if !seen[int(term)] {
				seen[int(term)] = true
				q.Terms = append(q.Terms, term)
			}
		}
		n := 1 + rng.Intn(20)
		want, err := f.engine.Search(q, Options{N: n, Mode: ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ms.Search(q, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Top) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want.Top))
		}
		for i := range want.Top {
			if got[i].DocID != want.Top[i].DocID {
				t.Fatalf("trial %d: rank %d is doc %d, want %d", trial, i, got[i].DocID, want.Top[i].DocID)
			}
		}
	}
}

// TestMaxScoreSharedThreshold pins the engine's contract under a
// threshold handed in from outside: it reports exactly the documents of
// its own top N that score at least the threshold — ties at the
// threshold included — with the very bits it reports without one, it
// decodes no more postings than without one, and it publishes its own
// N-th score.
func TestMaxScoreSharedThreshold(t *testing.T) {
	f := fix(t)
	ms, idx := buildMaxScore(t)
	ctx := context.Background()
	for _, q := range f.freqQueries {
		idx.Counters().Reset()
		want, err := ms.SearchContextInto(ctx, q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		alone := idx.Counters().LoadPostingsDecoded()
		if len(want) < 10 {
			continue
		}
		var own topk.Threshold
		if _, err := ms.SearchShared(ctx, q, 10, nil, &own); err != nil {
			t.Fatal(err)
		}
		if own.Load() != want[9].Score {
			t.Fatalf("query %d: published %v, want the N-th score %v", q.ID, own.Load(), want[9].Score)
		}
		for _, k := range []int{0, 4, 9} {
			var th topk.Threshold
			th.Raise(want[k].Score)
			idx.Counters().Reset()
			got, err := ms.SearchShared(ctx, q, 10, nil, &th)
			if err != nil {
				t.Fatal(err)
			}
			if d := idx.Counters().LoadPostingsDecoded(); d > alone {
				t.Fatalf("query %d: %d postings decoded under a threshold, %d without", q.ID, d, alone)
			}
			keep := 0
			for keep < len(want) && want[keep].Score >= want[k].Score {
				keep++
			}
			if len(got) != keep {
				t.Fatalf("query %d, threshold at rank %d: %d results, want %d", q.ID, k, len(got), keep)
			}
			for i := range got {
				if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("query %d, threshold at rank %d: position %d is %v, want %v", q.ID, k, i, got[i], want[i])
				}
			}
		}
	}
}
