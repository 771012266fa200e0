package live

import (
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/rank"
	"repro/internal/storage"
)

// genCollection builds the deterministic corpus the live tests stream.
func genCollection(t testing.TB, docs int, seed uint64) *collection.Collection {
	t.Helper()
	col, err := collection.Generate(collection.Config{
		NumDocs: docs, VocabSize: 6000, MeanDocLen: 90, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func genQueries(t testing.TB, col *collection.Collection, seed uint64) []collection.Query {
	t.Helper()
	qs, err := collection.GenerateQueries(col, collection.QueryConfig{
		NumQueries: 25, MinTerms: 2, MaxTerms: 6, MaxDocFreqFrac: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// queryNames maps a collection query to term strings.
func queryNames(col *collection.Collection, q collection.Query) []string {
	out := make([]string, len(q.Terms))
	for i, term := range q.Terms {
		out[i] = col.Lex.Name(term)
	}
	return out
}

// streamInto feeds every document of col through the writer in id
// order, asserting the assigned global ids match the collection's.
func streamInto(t testing.TB, w *Writer, col *collection.Collection) {
	t.Helper()
	for i := range col.Docs {
		id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if id != col.Docs[i].ID {
			t.Fatalf("doc %d assigned global id %d", col.Docs[i].ID, id)
		}
	}
}

// assertSameTop asserts two rankings agree: identical documents in
// identical order, scores within float addition-order noise.
func assertSameTop(t *testing.T, label string, got, want []rank.DocScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID {
			t.Fatalf("%s: position %d is doc %d, want %d (scores %v vs %v)",
				label, i, got[i].DocID, want[i].DocID, got[i].Score, want[i].Score)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > 1e-9 {
			t.Fatalf("%s: score mismatch at %d: %v vs %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestLiveEquivalence is the acceptance test of the live layer:
// documents streamed through the Writer — sealing many segments and
// observing background merges — must answer every query byte-identically
// to a one-shot build over the same corpus, across all three engine
// families (MaxScore, the fragmented Engine in full mode, and the
// Progressive chain).
func TestLiveEquivalence(t *testing.T) {
	col := genCollection(t, 900, 7)
	queries := genQueries(t, col, 8)

	w, err := Open(Config{
		Dir:             t.TempDir(),
		SealDocs:        100,
		MergeFanIn:      3,
		BackgroundMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.WaitMergeIdle()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Merges == 0 {
		t.Fatalf("no background merge observed (stats %+v); the test must cover compaction", st)
	}
	if st.DocsSealed != int64(len(col.Docs)) || st.BufferedDocs != 0 {
		t.Fatalf("sealed %d docs with %d buffered, want %d/0", st.DocsSealed, st.BufferedDocs, len(col.Docs))
	}

	// One-shot baselines over the identical corpus.
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(col, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	fx, err := index.BuildFragmented(col, pool, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(fx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	mx, err := index.BuildMulti(col, pool, []float64{0.05, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgressive(mx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}

	const n = 10
	searcher := w.Searcher()
	for _, q := range queries {
		live, err := searcher.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		if !live.Exact {
			t.Fatalf("query %d: live merge lost its exactness certificate", q.ID)
		}

		msTop, err := ms.Search(q, n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "vs MaxScore", live.Top, msTop)

		full, err := engine.Search(q, core.Options{N: n, Mode: core.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "vs Engine/full", live.Top, full.Top)

		pr, err := prog.Search(q, core.ProgressiveOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Exact {
			t.Fatalf("query %d: progressive baseline not exact", q.ID)
		}
		assertSameTop(t, "vs Progressive", live.Top, pr.Top)
	}
}

// TestLiveReopen: closing and reopening the live directory must restore
// the exact searchable state (manifest, segments, master lexicon), and
// the reopened writer must keep accepting documents.
func TestLiveReopen(t *testing.T) {
	col := genCollection(t, 400, 11)
	queries := genQueries(t, col, 12)
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealDocs: 64, MergeFanIn: 3, BackgroundMerge: true}

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := len(col.Docs) / 2
	for i := 0; i < half; i++ {
		if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.WaitMergeIdle()
	const n = 10
	want := make([][]rank.DocScore, len(queries))
	s := w.Searcher()
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Top
	}
	stBefore := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same answers, then stream the rest and verify against a
	// one-shot build over the full corpus.
	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Stats(); got.DocsSealed != stBefore.DocsSealed || got.Segments != stBefore.Segments {
		t.Fatalf("reopened stats %+v, want sealed/segments of %+v", got, stBefore)
	}
	s2 := w2.Searcher()
	for i, q := range queries {
		res, err := s2.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "reopen", res.Top, want[i])
	}
	for i := half; i < len(col.Docs); i++ {
		if id, err := w2.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		} else if id != uint32(i) {
			t.Fatalf("doc %d assigned id %d after reopen", i, id)
		}
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	w2.WaitMergeIdle()

	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(col, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := s2.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := ms.Search(q, n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "reopen+append", res.Top, wantTop)
	}
}

// TestMergeSnapshotExcludesBufferedStats: a merge must persist term
// statistics covering exactly the sealed documents. Regression test: a
// merge running while documents sit unsealed in the buffer makes the
// merged segment the highest-seq authority the master lexicon reopens
// from; if it leaked the buffered documents' DocFreq/CollFreq, a
// Close-without-Flush (the crash shape) would resurrect statistics of
// documents that no longer exist — and re-adding those documents would
// double-count them.
func TestMergeSnapshotExcludesBufferedStats(t *testing.T) {
	col := genCollection(t, 300, 81)
	queries := genQueries(t, col, 82)
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealDocs: 50, MergeFanIn: 4}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sealed = 200 // 4 × SealDocs: seals exactly at the boundary
	for i := 0; i < sealed; i++ {
		if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	// A tail strictly under SealDocs: recorded into the master lexicon
	// but never sealed.
	for i := sealed; i < sealed+49; i++ {
		if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BufferedDocs != 49 {
		t.Fatalf("test setup broken: %d buffered docs, want 49 (%+v)", st.BufferedDocs, st)
	}
	if w.Stats().Merges == 0 {
		t.Fatal("merge did not run; the test needs a merged segment as the reopen authority")
	}
	if err := w.Close(); err != nil { // discards the buffered tail
		t.Fatal(err)
	}

	// Reopened state must rank exactly like a one-shot build over the
	// sealed prefix — no phantom statistics from the lost tail.
	prefix, err := collection.Generate(collection.Config{
		NumDocs: sealed, VocabSize: 6000, MeanDocLen: 90, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	prefixIdx, err := index.Build(prefix, pool)
	if err != nil {
		t.Fatal(err)
	}
	prefixMS, err := core.NewMaxScore(prefixIdx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := w2.Searcher()
	const n = 10
	for _, q := range queries {
		res, err := s2.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prefixMS.Search(q, n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "reopen after lost buffer", res.Top, want)
	}

	// Re-adding the lost tail must land on the full-corpus statistics —
	// no double counting.
	for i := sealed; i < len(col.Docs); i++ {
		if _, err := w2.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	fullIdx, err := index.Build(col, pool)
	if err != nil {
		t.Fatal(err)
	}
	fullMS, err := core.NewMaxScore(fullIdx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := s2.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fullMS.Search(q, n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "re-added tail", res.Top, want)
	}
}

// TestLiveVisibility: buffered documents become searchable at the next
// seal, not before — the documented near-real-time contract.
func TestLiveVisibility(t *testing.T) {
	col := genCollection(t, 50, 21)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumDocs() != 0 {
		t.Fatalf("unsealed documents visible: %d", snap.NumDocs())
	}
	snap.Close()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap2, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Close()
	if snap2.NumDocs() != len(col.Docs) {
		t.Fatalf("after flush %d docs visible, want %d", snap2.NumDocs(), len(col.Docs))
	}
	if snap2.Generation() <= snap.Generation() {
		t.Fatalf("flush did not advance the generation: %d -> %d", snap.Generation(), snap2.Generation())
	}
}

// BenchmarkLiveIngest measures Add throughput including amortized
// seals and deterministic merges.
func BenchmarkLiveIngest(b *testing.B) {
	col := genCollection(b, 600, 71)
	w, err := Open(Config{Dir: b.TempDir(), SealDocs: 200, MergeFanIn: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	docs := make([][]TermCount, len(col.Docs))
	for i := range col.Docs {
		docs[i] = DocTerms(col.Lex, col.Docs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Add(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSearch measures snapshot search latency over a merged
// multi-segment chain.
func BenchmarkLiveSearch(b *testing.B) {
	col := genCollection(b, 600, 72)
	queries := genQueries(b, col, 73)
	w, err := Open(Config{Dir: b.TempDir(), SealDocs: 100, MergeFanIn: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	for i := range col.Docs {
		if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := w.MergeAll(); err != nil {
		b.Fatal(err)
	}
	names := make([][]string, len(queries))
	for i, q := range queries {
		names[i] = queryNames(col, q)
	}
	s := w.Searcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(names[i%len(names)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLiveAddValidation: malformed documents are rejected without
// mutating state.
func TestLiveAddValidation(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Add(nil); err == nil {
		t.Fatal("empty document accepted")
	}
	if _, err := w.Add([]TermCount{{Term: "a", TF: 0}}); err == nil {
		t.Fatal("zero tf accepted")
	}
	// Duplicate terms coalesce into one posting.
	if _, err := w.Add([]TermCount{{Term: "a", TF: 2}, {Term: "a", TF: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	res, err := s.Search([]string{"a"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 1 || res.Top[0].DocID != 0 {
		t.Fatalf("coalesced doc not found: %+v", res.Top)
	}
}
