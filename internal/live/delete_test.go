package live

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/rank"
	"repro/internal/storage"
)

// churnState tracks which live global ids are alive and which original
// collection document each one carries (updates re-ingest the same
// content under a fresh id).
type churnState struct {
	alive   []uint32 // sorted ascending: ids are assigned monotonically
	content map[uint32]int
}

func newChurnState() *churnState {
	return &churnState{content: map[uint32]int{}}
}

func (c *churnState) add(id uint32, doc int) {
	c.alive = append(c.alive, id)
	c.content[id] = doc
}

// removeAt drops the alive entry at position i, returning its id.
func (c *churnState) removeAt(i int) (uint32, int) {
	id := c.alive[i]
	doc := c.content[id]
	c.alive = append(c.alive[:i], c.alive[i+1:]...)
	delete(c.content, id)
	return id, doc
}

// survivorRef builds the fresh one-shot baseline over the surviving
// documents: a new lexicon interned from scratch in arrival order, so
// its statistics — term and corpus alike — cover exactly the survivors.
// fromRef maps baseline ids back to live global ids.
func survivorRef(t *testing.T, col *collection.Collection, st *churnState) (*collection.Collection, []uint32) {
	t.Helper()
	sub := &collection.Collection{Lex: lexicon.New()}
	fromRef := make([]uint32, len(st.alive))
	for i, id := range st.alive {
		src := &col.Docs[st.content[id]]
		d := collection.Document{ID: uint32(i)}
		for _, tf := range src.Terms {
			d.Terms = append(d.Terms, collection.TermFreq{
				Term: sub.Lex.Intern(col.Lex.Name(tf.Term)), TF: tf.TF,
			})
			d.Len += tf.TF
		}
		sort.Slice(d.Terms, func(a, b int) bool { return d.Terms[a].Term < d.Terms[b].Term })
		for _, tf := range d.Terms {
			if err := sub.Lex.Record(tf.Term, int(tf.TF)); err != nil {
				t.Fatal(err)
			}
		}
		sub.Docs = append(sub.Docs, d)
		sub.TotalTokens += int64(d.Len)
		fromRef[i] = id
	}
	if len(sub.Docs) > 0 {
		sub.AvgDocLen = float64(sub.TotalTokens) / float64(len(sub.Docs))
	}
	return sub, fromRef
}

// refQuery maps a query's term names into the baseline lexicon,
// dropping names the survivors no longer contain (the live side skips
// them through a zero document frequency — same outcome).
func refQuery(lex *lexicon.Lexicon, names []string) collection.Query {
	var q collection.Query
	for _, name := range names {
		if id := lex.Lookup(name); id != lexicon.InvalidTerm {
			q.Terms = append(q.Terms, id)
		}
	}
	return q
}

// mapRef rewrites a baseline ranking onto live global ids.
func mapRef(top []rank.DocScore, fromRef []uint32) []rank.DocScore {
	out := append([]rank.DocScore(nil), top...)
	for i := range out {
		out[i].DocID = fromRef[out[i].DocID]
	}
	return out
}

// TestDeleteEquivalence is the acceptance test of the delete path: after
// an arbitrary deterministic interleaving of Add, Delete, Update, Flush,
// and MergeAll, live search results must be byte-identical to a fresh
// one-shot build over the surviving documents — across all three engine
// families — and every answer must keep its exactness certificate.
func TestDeleteEquivalence(t *testing.T) {
	col := genCollection(t, 900, 17)
	queries := genQueries(t, col, 18)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 90, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	st := newChurnState()
	rng := rand.New(rand.NewSource(171))
	next := 0
	for next < len(col.Docs) {
		switch op := rng.Intn(10); {
		case op < 6 || len(st.alive) < 10:
			id, err := w.Add(DocTerms(col.Lex, col.Docs[next]))
			if err != nil {
				t.Fatal(err)
			}
			st.add(id, next)
			next++
		case op < 8: // delete a random alive document (buffered or sealed)
			id, _ := st.removeAt(rng.Intn(len(st.alive)))
			if err := w.Delete(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
		case op == 8: // update: same content, fresh id
			id, doc := st.removeAt(rng.Intn(len(st.alive)))
			nid, err := w.Update(id, DocTerms(col.Lex, col.Docs[doc]))
			if err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			st.add(nid, doc)
		default: // interleave flushes and merges with the churn
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := w.MergeAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	if ws.DocsDeleted == 0 || ws.Merges == 0 {
		t.Fatalf("churn too tame for the test to mean anything: %+v", ws)
	}
	if ws.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("writer sees %d alive docs, churn state %d", ws.DocsAlive, len(st.alive))
	}

	// One-shot baselines over exactly the survivors.
	sub, fromRef := survivorRef(t, col, st)
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(sub, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	fx, err := index.BuildFragmented(sub, pool, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(fx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	mx, err := index.BuildMulti(sub, pool, []float64{0.05, 0.25})
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
		names := queryNames(col, q)
		live, err := searcher.Search(names, n)
		if err != nil {
			t.Fatal(err)
		}
		if !live.Exact {
			t.Fatalf("query %d: live merge lost its exactness certificate under churn", q.ID)
		}
		rq := refQuery(sub.Lex, names)

		msTop, err := ms.Search(rq, n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "vs MaxScore over survivors", live.Top, mapRef(msTop, fromRef))

		full, err := engine.Search(rq, core.Options{N: n, Mode: core.ModeFull})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "vs Engine/full over survivors", live.Top, mapRef(full.Top, fromRef))

		pr, err := prog.Search(rq, core.ProgressiveOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Exact {
			t.Fatalf("query %d: progressive baseline not exact", q.ID)
		}
		assertSameTop(t, "vs Progressive over survivors", live.Top, mapRef(pr.Top, fromRef))
	}
}

// TestDeleteSnapshotVisibility: a delete committed mid-query is
// invisible to in-flight searches — a snapshot acquired before the
// delete keeps answering from its deletion view, while a snapshot
// acquired after sees the document gone with tightened statistics.
func TestDeleteSnapshotVisibility(t *testing.T) {
	col := genCollection(t, 200, 23)
	queries := genQueries(t, col, 24)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	const n = 10
	old, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	before := make([][]rank.DocScore, len(queries))
	for i, q := range queries {
		res, err := old.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res.Top
	}

	// Delete the top document of the first query with results.
	var victim uint32
	found := false
	for _, top := range before {
		if len(top) > 0 {
			victim = top[0].DocID
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no query produced results; bad test corpus")
	}
	if err := w.Delete(victim); err != nil {
		t.Fatal(err)
	}

	// The held snapshot still answers identically — the victim included.
	for i, q := range queries {
		res, err := old.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "pre-delete snapshot", res.Top, before[i])
	}
	// A fresh snapshot never returns the victim.
	fresh, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.NumDocs() != len(col.Docs)-1 {
		t.Fatalf("fresh snapshot sees %d docs, want %d", fresh.NumDocs(), len(col.Docs)-1)
	}
	for _, q := range queries {
		res, err := fresh.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range res.Top {
			if ds.DocID == victim {
				t.Fatalf("deleted doc %d resurfaced in a post-delete snapshot", victim)
			}
		}
	}
}

// TestDeleteBufferedAndErrors: deleting a never-sealed document leaves
// no trace anywhere (statistics, ids, or disk — its slot seals as an
// empty forward entry that the reopened ledger must never subtract),
// and the error contract holds — unknown ids, double deletes, and
// malformed updates all fail cleanly without mutating state.
func TestDeleteBufferedAndErrors(t *testing.T) {
	col := genCollection(t, 120, 27)
	queries := genQueries(t, col, 28)
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SealDocs: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := newChurnState()
	for i := range col.Docs {
		id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		st.add(id, i)
	}
	// Tombstone a buffered slice of the corpus before anything seals.
	for k := 0; k < 30; k++ {
		id, _ := st.removeAt((k * 7) % len(st.alive))
		if err := w.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := w.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete of buffered %d: %v, want ErrNotFound", id, err)
		}
	}
	if err := w.Delete(1 << 30); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of unassigned id: %v, want ErrNotFound", err)
	}
	if _, err := w.Update(st.alive[0], nil); err == nil {
		t.Fatal("empty replacement accepted; the original must not have been deleted for it")
	}
	if _, err := w.Update(st.alive[0], []TermCount{{Term: "x", TF: -1}}); err == nil {
		t.Fatal("negative-tf replacement accepted")
	}
	// Both rejected updates must have left the original untouched.
	if err := w.Delete(st.alive[0]); err != nil {
		t.Fatalf("original was mutated by a rejected update: %v", err)
	}
	_, _ = st.removeAt(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	if ws.DocsAlive != int64(len(st.alive)) || ws.BufferedDocs != 0 {
		t.Fatalf("after flush: %+v, want %d alive", ws, len(st.alive))
	}

	sub, fromRef := survivorRef(t, col, st)
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(sub, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	const n = 10
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s.Search(names, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ms.Search(refQuery(sub.Lex, names), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "buffered deletes", res.Top, mapRef(want, fromRef))
	}

	// Reopen: the dead slots persisted as empty forward entries, which
	// the ledger reconstruction must skip — their statistics were never
	// in any snapshot, so subtracting them would underflow or, worse,
	// silently skew every IDF.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Config{Dir: dir, SealDocs: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Stats(); got.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("reopen sees %d alive, want %d", got.DocsAlive, len(st.alive))
	}
	s2 := w2.Searcher()
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s2.Search(names, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ms.Search(refQuery(sub.Lex, names), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "buffered deletes after reopen", res.Top, mapRef(want, fromRef))
	}
}

// TestPurgeRewrite: once enough of a segment is tombstoned, the merge
// policy rewrites it alone — reclaiming the dead postings, zeroing the
// dead lengths, re-tightening bounds — without changing a single
// answer, and the reclaimed tombstones never resurrect.
func TestPurgeRewrite(t *testing.T) {
	col := genCollection(t, 300, 33)
	queries := genQueries(t, col, 34)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 300, PurgeDeadFrac: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := newChurnState()
	for i := range col.Docs {
		id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		st.add(id, i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(331))
	for k := 0; k < 150; k++ {
		id, _ := st.removeAt(rng.Intn(len(st.alive)))
		if err := w.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	const n = 10
	s := w.Searcher()
	preTop := make([][]rank.DocScore, len(queries))
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		preTop[i] = res.Top
	}
	sizeBefore := segmentsSize(t, w)
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Merges == 0 {
		t.Fatal("purge rewrite did not run at 50% dead")
	}
	if size := segmentsSize(t, w); size >= sizeBefore {
		t.Fatalf("purge did not reclaim postings space: %d -> %d bytes", sizeBefore, size)
	}
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-purge", res.Top, preTop[i])
	}
	// A second MergeAll finds nothing: the rewrite must not re-qualify
	// its own output (the dead are purged, not forgotten).
	m := w.Stats().Merges
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Merges; got != m {
		t.Fatalf("purge rewrite loops: %d -> %d merges", m, got)
	}
}

// segmentsSize sums the compressed postings bytes of the current chain.
func segmentsSize(t *testing.T, w *Writer) int64 {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, s := range w.segs {
		total += s.bytes
	}
	return total
}

// TestDeleteReopen: tombstones — purged and unpurged alike — survive
// close and reopen: the ledger is rebuilt from the bitmaps and forward
// sidecars, so the reopened index ranks byte-identically to the
// survivor baseline, keeps rejecting deleted ids, and accepts new
// writes on top.
func TestDeleteReopen(t *testing.T) {
	col := genCollection(t, 500, 37)
	queries := genQueries(t, col, 38)
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealDocs: 60, MergeFanIn: 3}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := newChurnState()
	half := len(col.Docs) / 2
	for i := 0; i < half; i++ {
		id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		st.add(id, i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(371))
	var deleted []uint32
	for k := 0; k < 60; k++ {
		id, _ := st.removeAt(rng.Intn(len(st.alive)))
		if err := w.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted = append(deleted, id)
	}
	if err := w.MergeAll(); err != nil { // purges some tombstones
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Stats(); got.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("reopen sees %d alive docs, want %d (%+v)", got.DocsAlive, len(st.alive), got)
	}
	for _, id := range deleted {
		if err := w2.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted doc %d deletable again after reopen: %v", id, err)
		}
	}

	sub, fromRef := survivorRef(t, col, st)
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(sub, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	s2 := w2.Searcher()
	const n = 10
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s2.Search(names, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ms.Search(refQuery(sub.Lex, names), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "reopen after deletes", res.Top, mapRef(want, fromRef))
	}

	// The reopened writer keeps accepting — and deleting — new work.
	for i := half; i < len(col.Docs); i++ {
		id, err := w2.Add(DocTerms(col.Lex, col.Docs[i]))
		if err != nil {
			t.Fatal(err)
		}
		st.add(id, i)
	}
	id, _ := st.removeAt(len(st.alive) - 3)
	nid, err := w2.Update(id, DocTerms(col.Lex, col.Docs[0]))
	if err != nil {
		t.Fatal(err)
	}
	st.add(nid, 0)
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	sub2, fromRef2 := survivorRef(t, col, st)
	idx2, err := index.Build(sub2, pool)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := core.NewMaxScore(idx2, rank.NewBM25())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s2.Search(names, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ms2.Search(refQuery(sub2.Lex, names), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "reopen + appended churn", res.Top, mapRef(want, fromRef2))
	}
}
