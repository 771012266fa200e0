package live

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentInsertMergeSearch is the live layer's -race stress: two
// inserters, four searchers, the background merger, and the timed
// flusher all running against one Writer. Every search must come back
// exact and internally consistent while seals, merges, and hot swaps
// commit underneath it.
func TestConcurrentInsertMergeSearch(t *testing.T) {
	col := genCollection(t, 1200, 51)
	queries := genQueries(t, col, 52)
	w, err := Open(Config{
		Dir:             t.TempDir(),
		SealDocs:        60,
		MergeFanIn:      3,
		BackgroundMerge: true,
		FlushEvery:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const inserters = 2
	var wg sync.WaitGroup
	var searches atomic.Int64
	done := make(chan struct{})

	// Inserters split the corpus; interleaved arrival means global ids
	// differ from col ids — irrelevant here, the stress is about safety
	// and per-query consistency, not equivalence (live_test covers that).
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(col.Docs); i += inserters {
				if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(g)
	}

	var searchWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		searchWG.Add(1)
		go func(g int) {
			defer searchWG.Done()
			s := w.Searcher()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[(i+g)%len(queries)]
				res, err := s.Search(queryNames(col, q), 10)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if !res.Exact {
					t.Errorf("inexact live result at generation %d", res.Generation)
					return
				}
				// Scores must be sorted and ids unique — a torn snapshot
				// would violate one of the two.
				seen := map[uint32]bool{}
				for j, ds := range res.Top {
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

	wg.Wait()
	flushErr := w.Flush()
	w.WaitMergeIdle()
	// Stop the searchers before any Fatal below, so no goroutine logs
	// into a finished test.
	close(done)
	searchWG.Wait()
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	st := w.Stats()
	if st.DocsAdded != int64(len(col.Docs)) {
		t.Fatalf("added %d docs, want %d", st.DocsAdded, len(col.Docs))
	}
	if st.DocsSealed != int64(len(col.Docs)) {
		t.Fatalf("sealed %d docs, want %d", st.DocsSealed, len(col.Docs))
	}
	if st.Merges == 0 {
		t.Fatal("stress never exercised a background merge")
	}
	if searches.Load() == 0 {
		t.Fatal("stress never completed a search")
	}

	// Final state answers like a one-shot index over the arrived order:
	// every document is present exactly once, so total hits over a
	// match-all style probe equal the corpus — checked cheaply via
	// NumDocs.
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumDocs() != len(col.Docs) {
		t.Fatalf("final snapshot holds %d docs, want %d", snap.NumDocs(), len(col.Docs))
	}
}

// TestSnapshotCloseVsSearch: Close on a shared snapshot must
// synchronize with concurrent Search — a search that started before
// the close keeps its segments alive (even merged-away ones mid-
// deletion), and one that starts after gets the closed-snapshot error,
// never a read failure.
func TestSnapshotCloseVsSearch(t *testing.T) {
	col := genCollection(t, 400, 91)
	queries := genQueries(t, col, 92)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 50, MergeFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		snap, err := w.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					_, err := snap.Search(queryNames(col, queries[(g+i)%len(queries)]), 10)
					if err != nil && !strings.Contains(err.Error(), "closed snapshot") {
						t.Errorf("round %d: search failed with a non-closed error: %v", round, err)
						return
					}
				}
			}(g)
		}
		snap.Close() // races the searches above
		wg.Wait()
		// Merging between rounds makes the closed generation's segments
		// deletion candidates, so a lost race would surface as a read
		// from a deleted segment file.
		if err := w.MergeAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotSurvivesClose: a snapshot acquired before Close keeps
// serving (the refcount holds its segments open) and the writer rejects
// new work after Close.
func TestSnapshotSurvivesClose(t *testing.T) {
	col := genCollection(t, 120, 61)
	queries := genQueries(t, col, 62)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 40})
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Search(queryNames(col, queries[0]), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Search(queryNames(col, queries[0]), 10)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTop(t, "snapshot after close", got.Top, want.Top)
	snap.Close()

	if _, err := w.Add([]TermCount{{Term: "x", TF: 1}}); err != ErrClosed {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
	if _, err := w.Acquire(); err != ErrClosed {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	if _, err := w.Searcher().Search([]string{"x"}, 1); err != ErrClosed {
		t.Fatalf("Search after Close: %v, want ErrClosed", err)
	}
}
