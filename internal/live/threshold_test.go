package live

import (
	"context"
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/rank"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// searchUnshared answers ids the way searchIDs did before queries
// carried a threshold: every segment's engine from θ = 0 with no shared
// value, ids rebased, topk.MergeShards. It is the reference the carried
// threshold must not change by a single bit.
func searchUnshared(t *testing.T, s *Snapshot, ids []lexicon.TermID, n int) ([]rank.DocScore, bool) {
	t.Helper()
	g := s.g
	shards := make([]topk.ShardTop, len(g.segs))
	for i, e := range g.engines {
		top, err := e.SearchContextInto(context.Background(), collection.Query{Terms: ids}, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range top {
			top[j].DocID += g.segs[i].base
		}
		shards[i] = topk.ShardTop{Top: top, Truncated: len(top) == n}
	}
	return topk.MergeShards(shards, n)
}

// assertSameBits asserts two rankings are the same documents in the same
// order with the same score bits.
func assertSameBits(t *testing.T, label string, got, want []rank.DocScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: position %d is doc %d scoring %v (%#x), want doc %d scoring %v (%#x)", label, i,
				got[i].DocID, got[i].Score, math.Float64bits(got[i].Score),
				want[i].DocID, want[i].Score, math.Float64bits(want[i].Score))
		}
	}
}

// assertThresholdInvariant searches every query 50 times on one worker
// and on two — under -race the two-worker interleaving, and with it the
// moment each segment sees the threshold rise, differs from repetition to
// repetition — and holds each answer to the unshared reference.
func assertThresholdInvariant(t *testing.T, w *Writer, queries [][]string, ns []int) {
	t.Helper()
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for qi, terms := range queries {
		ids := snap.resolve(terms)
		for _, n := range ns {
			want, wantExact := searchUnshared(t, snap, ids, n)
			if !wantExact {
				t.Fatalf("query %d n=%d: the unshared reference is not exact", qi, n)
			}
			for _, workers := range []int{1, 2} {
				snap.workers = workers
				for rep := 0; rep < 50; rep++ {
					res, err := snap.searchIDs(context.Background(), ids, n)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Exact || res.Degraded {
						t.Fatalf("query %d n=%d workers=%d: certificate %+v, want exact", qi, n, workers, res.Cert)
					}
					assertSameBits(t, "carried threshold vs none", res.Top, want)
				}
			}
		}
	}
}

// TestSharedThresholdChangesNoAnswer is the differential test of the
// carried threshold on a seeded corpus: segments of unequal size (one
// merged run beside fresh seals and a short tail), and n below, at and
// above the smallest segment's document count.
func TestSharedThresholdChangesNoAnswer(t *testing.T) {
	col := genCollection(t, 1130, 81)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 100, MergeFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	smallest := snap.g.segs[0].docs
	for _, seg := range snap.g.segs {
		smallest = min(smallest, seg.docs)
	}
	segments := snap.Segments()
	snap.Close()
	if segments < 3 || smallest >= 100 {
		t.Fatalf("setup left %d segments, the smallest of %d documents; want several and a short tail", segments, smallest)
	}
	var queries [][]string
	for _, q := range genQueries(t, col, 82) {
		queries = append(queries, queryNames(col, q))
	}
	assertThresholdInvariant(t, w, queries, []int{1, 10, smallest + 5})
}

// TestSharedThresholdTieAcrossSegments constructs the case the strict
// comparison exists for: two documents with the same terms, frequencies
// and length, in different segments, tie exactly at the N-th score. The
// larger segment is searched first and raises the threshold to that very
// score; the other segment must still report its twin (it is not below
// the threshold), and the merge then prefers the lower document id —
// whichever segment holds it.
func TestSharedThresholdTieAcrossSegments(t *testing.T) {
	bag := func(x, y, pad int32) []TermCount {
		out := []TermCount{{Term: "pad", TF: pad}}
		if x > 0 {
			out = append(out, TermCount{Term: "x", TF: x})
		}
		if y > 0 {
			out = append(out, TermCount{Term: "y", TF: y})
		}
		return out
	}
	// A segment is four strong documents (when it is the large one), the
	// twin, and weak documents that fill it up to size.
	segment := func(size int, strong bool) [][]TermCount {
		var docs [][]TermCount
		if strong {
			for i := 0; i < 4; i++ {
				docs = append(docs, bag(6, 6, 1))
			}
		}
		docs = append(docs, bag(3, 3, 5)) // the twin
		for len(docs) < size {
			docs = append(docs, bag(1, 0, int32(10+len(docs))))
		}
		return docs
	}
	for _, largeFirst := range []bool{true, false} {
		w, err := Open(Config{Dir: t.TempDir(), SealDocs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		order := [][][]TermCount{segment(30, true), segment(12, false)}
		if !largeFirst {
			order[0], order[1] = order[1], order[0]
		}
		var twins []uint32
		for _, docs := range order {
			for _, d := range docs {
				id, err := w.Add(d)
				if err != nil {
					t.Fatal(err)
				}
				if len(d) == 3 && d[1].TF == 3 {
					twins = append(twins, id)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.Stats(); st.Segments != 2 || len(twins) != 2 {
			t.Fatalf("setup built %d segments and %d twins, want 2 and 2", st.Segments, len(twins))
		}
		res, err := w.Searcher().Search([]string{"x", "y"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Top) != 5 || res.Top[4].DocID != twins[0] {
			t.Fatalf("large segment first=%v: top %v, want the twin with the lower id (%d) at the N-th place", largeFirst, res.Top, twins[0])
		}
		// n = 5 cuts between the twins; n = 6 admits both; n = 20 exceeds
		// the small segment.
		assertThresholdInvariant(t, w, [][]string{{"x", "y"}, {"y"}, {"x"}}, []int{5, 6, 20})
		w.Close()
	}
}

// TestFaultAfterThresholdRaised: a segment whose device starts failing
// only once its search is under way — after it has filled its heap and
// raised the query's threshold — is quarantined like any other, and the
// answer must still be the exact ranking over the documents served: the
// survivor pruned against a bound earned by documents that are no longer
// in the answer, so searchIDs repeats the pass without them.
//
// The large segment opens with twenty documents stronger than anything
// else in the index and its two postings lists span several pages each,
// so a fault at its fourth page read or later finds its heap full and the
// threshold above every document of the small segment: without the
// repeated pass the degraded answer would be empty.
func TestFaultAfterThresholdRaised(t *testing.T) {
	const sickDocs, otherDocs, n = 20000, 2000, 10
	reg := newDevRegistry()
	// One worker: the large segment is searched first and runs to its
	// fault before the small one starts.
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: sickDocs + 1, PoolPages: 8, Workers: 1, WrapDevice: reg.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := xrand.New(93)
	for i := 0; i < sickDocs+otherDocs; i++ {
		x, y, pad := 1+rng.Intn(4), 1+rng.Intn(4), 5+rng.Intn(36)
		if i < 20 {
			x, y, pad = 8+rng.Intn(3), 8+rng.Intn(3), 1
		}
		if _, err := w.Add([]TermCount{{Term: "pad", TF: int32(pad)}, {Term: "x", TF: int32(x)}, {Term: "y", TF: int32(y)}}); err != nil {
			t.Fatal(err)
		}
		if i == sickDocs-1 || i == sickDocs+otherDocs-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := w.Stats().Segments; got != 2 {
		t.Fatalf("setup built %d segments, want 2", got)
	}
	s := w.Searcher()
	sick := reg.dev(reg.names[0])
	query := []string{"x", "y"}

	// The fault-free ranking restricted to the small segment.
	full, err := s.Search(query, sickDocs+otherDocs)
	if err != nil {
		t.Fatal(err)
	}
	var want []rank.DocScore
	for _, ds := range full.Top {
		if ds.DocID >= sickDocs && len(want) < n {
			want = append(want, ds)
		}
	}

	late := 0
	for _, k := range []int64{0, 1, 2, 3, 4, 5, 6, 8} {
		// Disarm, return the segment to service, and empty its pool: every
		// trial reads the same pages in the same order.
		sick.Clear()
		if w.FaultStats().QuarantinedSegments > 0 && w.Reverify() != 1 {
			t.Fatal("the sick segment did not return to service")
		}
		if err := w.segs[0].pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		// Fail every read of the segment from the one after its k-th of
		// this query on.
		sick.FailReads(sick.Stats().Reads+k, 1<<40)
		res, err := s.Search(query, n)
		if err != nil {
			t.Fatalf("fault after read %d: %v", k, err)
		}
		if !res.Degraded {
			continue // the whole search needed no more than k reads
		}
		if res.Exact || len(res.Cert.Skipped) != 1 || res.Cert.Skipped[0] != reg.names[0] {
			t.Fatalf("fault after read %d: certificate %+v", k, res.Cert)
		}
		assertSameBits(t, "degraded answer vs the served documents' ranking", res.Top, want)
		if k >= 4 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no search read a fifth page of the large segment: the fault never came after the threshold rose")
	}
}
