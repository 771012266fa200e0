package live

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/rank"
	"repro/internal/storage"
)

// churnRegistry is the stress test's shared view of the corpus: which
// live ids are alive, what content they carry, and which ids have had
// their deletion *committed* (Delete/Update returned). The visibility
// invariant leans on the commit order: a tombstone recorded here
// happened-before any snapshot acquired afterwards, so such a snapshot
// must never return the id.
type churnRegistry struct {
	mu      sync.Mutex
	st      *churnState
	deleted map[uint32]bool
}

func (r *churnRegistry) add(id uint32, doc int) {
	r.mu.Lock()
	r.st.add(id, doc)
	r.mu.Unlock()
}

// pick removes a random alive id for deletion, returning ok=false when
// too few remain.
func (r *churnRegistry) pick(rng *rand.Rand) (uint32, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.st.alive) < 20 {
		return 0, 0, false
	}
	id, doc := r.st.removeAt(rng.Intn(len(r.st.alive)))
	return id, doc, true
}

// committed records that id's tombstone commit returned.
func (r *churnRegistry) committed(id uint32) {
	r.mu.Lock()
	r.deleted[id] = true
	r.mu.Unlock()
}

// deadSet snapshots the committed tombstones.
func (r *churnRegistry) deadSet() map[uint32]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint32]bool, len(r.deleted))
	for id := range r.deleted {
		out[id] = true
	}
	return out
}

// TestConcurrentChurn is the delete path's -race stress: inserters,
// a deleter, an updater, searchers, the timed flusher, the background
// merger (purges included), and explicit MergeAll calls all hammer one
// Writer. Invariants checked while it runs: every search is exact and
// internally consistent, and no document whose deletion committed
// before the snapshot was acquired ever resurfaces (no resurrected
// doc). Afterwards the final state must be byte-identical to a one-shot
// build over the survivors — churn-proof end to end.
func TestConcurrentChurn(t *testing.T) {
	col := genCollection(t, 1500, 57)
	queries := genQueries(t, col, 58)
	w, err := Open(Config{
		Dir:             t.TempDir(),
		SealDocs:        80,
		MergeFanIn:      3,
		PurgeDeadFrac:   0.3,
		BackgroundMerge: true,
		FlushEvery:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	reg := &churnRegistry{st: newChurnState(), deleted: map[uint32]bool{}}
	done := make(chan struct{})
	var searches, churned atomic.Int64

	var writeWG sync.WaitGroup
	const inserters = 2
	for g := 0; g < inserters; g++ {
		writeWG.Add(1)
		go func(g int) {
			defer writeWG.Done()
			for i := g; i < len(col.Docs); i += inserters {
				id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				reg.add(id, i)
			}
		}(g)
	}

	// One deleter and one updater; each owns the ids it picked, so a
	// double delete can only come from a bug, never from the test.
	writeWG.Add(2)
	go func() {
		defer writeWG.Done()
		rng := rand.New(rand.NewSource(571))
		for i := 0; i < 250; i++ {
			id, _, ok := reg.pick(rng)
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			if err := w.Delete(id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			reg.committed(id)
			churned.Add(1)
		}
	}()
	go func() {
		defer writeWG.Done()
		rng := rand.New(rand.NewSource(572))
		for i := 0; i < 250; i++ {
			id, doc, ok := reg.pick(rng)
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			nid, err := w.Update(id, DocTerms(col.Lex, col.Docs[doc]))
			if err != nil {
				t.Errorf("update %d: %v", id, err)
				return
			}
			reg.committed(id)
			reg.add(nid, doc)
			churned.Add(1)
		}
	}()

	var searchWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		searchWG.Add(1)
		go func(g int) {
			defer searchWG.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Read the committed tombstones *before* acquiring: every
				// one of them happened-before this snapshot.
				dead := reg.deadSet()
				snap, err := w.Acquire()
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				q := queries[(i+g)%len(queries)]
				res, err := snap.Search(queryNames(col, q), 10)
				snap.Close()
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if !res.Exact {
					t.Errorf("inexact result at generation %d", res.Generation)
					return
				}
				seen := map[uint32]bool{}
				for j, ds := range res.Top {
					if dead[ds.DocID] {
						t.Errorf("resurrected doc %d: deletion committed before snapshot generation %d",
							ds.DocID, res.Generation)
						return
					}
					if seen[ds.DocID] {
						t.Errorf("duplicate doc %d in merged top", ds.DocID)
						return
					}
					seen[ds.DocID] = true
					if j > 0 && res.Top[j-1].Score < ds.Score {
						t.Errorf("unsorted merged top at %d", j)
						return
					}
				}
				searches.Add(1)
			}
		}(g)
	}

	// A competing foreground merger exercises MergeAll vs the background
	// goroutine (and deletion commits) on the mergeBusy latch.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; i < 10; i++ {
			if err := w.MergeAll(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("merge: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	writeWG.Wait()
	flushErr := w.Flush()
	w.WaitMergeIdle()
	close(done)
	searchWG.Wait()
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if searches.Load() == 0 || churned.Load() == 0 {
		t.Fatalf("stress did no work: %d searches, %d churn ops", searches.Load(), churned.Load())
	}
	st := w.Stats()
	if st.Merges == 0 {
		t.Fatal("stress never exercised a merge")
	}
	if st.DocsAlive != int64(len(reg.st.alive)) {
		t.Fatalf("writer sees %d alive docs, registry %d", st.DocsAlive, len(reg.st.alive))
	}

	// Churn-proof finish: byte-identical to a one-shot build over the
	// survivors. Registration order raced the id assignment, so restore
	// arrival (id) order first — the order the baseline build assumes.
	sort.Slice(reg.st.alive, func(a, b int) bool { return reg.st.alive[a] < reg.st.alive[b] })
	sub, fromRef := survivorRef(t, col, reg.st)
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
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s.Search(names, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ms.Search(refQuery(sub.Lex, names), 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-stress vs survivor build", res.Top, mapRef(want, fromRef))
	}
}
