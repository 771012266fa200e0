package live

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/storage"
)

// copyDir deep-copies a live directory — the "crash image" the recovery
// tests reopen.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == lockFileName {
			continue
		}
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, s, d)
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// buildChurnedDir opens a live index under dir, streams col through it,
// tombstones some documents, and returns the surviving state. With
// merge true it compacts (purging tombstones) before closing.
func buildChurnedDir(t *testing.T, dir string, merge bool) (*churnState, []uint32, [][]string, [][]rank.DocScore) {
	t.Helper()
	col := genCollection(t, 400, 43)
	queries := genQueries(t, col, 44)
	w, err := Open(Config{Dir: dir, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
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
	rng := rand.New(rand.NewSource(431))
	var deleted []uint32
	for k := 0; k < 50; k++ {
		id, _ := st.removeAt(rng.Intn(len(st.alive)))
		if err := w.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted = append(deleted, id)
	}
	if merge {
		if err := w.MergeAll(); err != nil {
			t.Fatal(err)
		}
	}
	names := make([][]string, len(queries))
	want := make([][]rank.DocScore, len(queries))
	s := w.Searcher()
	for i, q := range queries {
		names[i] = queryNames(col, q)
		res, err := s.Search(names[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Top
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return st, deleted, names, want
}

// TestCrashBetweenTombstoneAndMergeCommit simulates the ISSUE's crash
// window: tombstones are committed, then the process dies after a merge
// has built (and persisted) its output segment but before the manifest
// swap. Reopen must garbage-collect the orphan merge output, keep every
// committed tombstone (no resurrected document), and lose none of the
// surviving documents.
func TestCrashBetweenTombstoneAndMergeCommit(t *testing.T) {
	liveDir := filepath.Join(t.TempDir(), "live")
	st, deleted, names, want := buildChurnedDir(t, liveDir, false)

	// Fabricate the crash leftovers a killed merge leaves: a fully
	// persisted segment directory the manifest never adopted (copied
	// from a real one, the exact shape mergeSegments produces before
	// commitLocked) plus its bitmap and a stray .tmp.
	var src string
	entries, err := os.ReadDir(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") {
			src = e.Name()
			break
		}
	}
	orphan := filepath.Join(liveDir, "seg-909090")
	copyDir(t, filepath.Join(liveDir, src), orphan)
	if err := index.WriteAlive(filepath.Join(orphan, aliveName(1)),
		postings.NewAliveBitmap(4)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(liveDir, src, DocTermsFile+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := Open(Config{Dir: liveDir, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan merge output survived reopen: %v", err)
	}
	if got := w.Stats(); got.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("reopen sees %d alive, want %d — a tombstone was lost or a document resurrected",
			got.DocsAlive, len(st.alive))
	}
	for _, id := range deleted {
		if err := w.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("doc %d resurrected by the crash: %v", id, err)
		}
	}
	s := w.Searcher()
	for i := range names {
		res, err := s.Search(names[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-crash", res.Top, want[i])
	}
}

// TestCrashUncommittedTombstone: a bitmap version written but never
// referenced by a manifest swap is a tombstone that never committed —
// Delete did not return. Reopen must discard it: the document stays
// alive, statistics untouched.
func TestCrashUncommittedTombstone(t *testing.T) {
	liveDir := filepath.Join(t.TempDir(), "live")
	st, _, names, want := buildChurnedDir(t, liveDir, true)

	// Find a segment and write an unreferenced bitmap version killing
	// every document — the torn write of a Delete that never returned.
	m, err := readManifest(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("no segments")
	}
	ms := m.Segments[0]
	stale := postings.NewAliveBitmap(ms.Docs)
	for i := 0; i < ms.Docs; i++ {
		stale.Kill(uint32(i))
	}
	staleName := aliveName(ms.Tomb + 7)
	if err := index.WriteAlive(filepath.Join(liveDir, ms.Name, staleName), stale); err != nil {
		t.Fatal(err)
	}

	w, err := Open(Config{Dir: liveDir, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(filepath.Join(liveDir, ms.Name, staleName)); !os.IsNotExist(err) {
		t.Fatalf("uncommitted bitmap version survived reopen: %v", err)
	}
	if got := w.Stats(); got.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("uncommitted tombstone applied: %d alive, want %d", got.DocsAlive, len(st.alive))
	}
	s := w.Searcher()
	for i := range names {
		res, err := s.Search(names[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-crash (uncommitted tombstone)", res.Top, want[i])
	}
}

// TestLegacySegmentUpgrade: a live directory written before the delete
// path existed has no forward sidecars. Open must upgrade such
// segments in place — rebuilding docterms.fwd from the inverted lists —
// so old directories stay openable, answer identically, and accept
// deletes.
func TestLegacySegmentUpgrade(t *testing.T) {
	col := genCollection(t, 250, 47)
	queries := genQueries(t, col, 48)
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealDocs: 60, MergeFanIn: 3}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := make([][]rank.DocScore, len(queries))
	s := w.Searcher()
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), 10)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Top
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip every sidecar: the exact on-disk shape the previous version
	// persisted.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") {
			if err := os.Remove(filepath.Join(dir, e.Name(), DocTermsFile)); err != nil {
				t.Fatal(err)
			}
			stripped++
		}
	}
	if stripped == 0 {
		t.Fatal("no segments to strip")
	}

	w2, err := Open(cfg)
	if err != nil {
		t.Fatalf("legacy directory failed to reopen: %v", err)
	}
	defer w2.Close()
	s2 := w2.Searcher()
	for i, q := range queries {
		res, err := s2.Search(queryNames(col, q), 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "legacy upgrade", res.Top, want[i])
	}
	// The rebuilt sidecars must carry real term lists: a delete against
	// an upgraded segment subtracts the right statistics.
	st := newChurnState()
	for i := range col.Docs {
		st.add(uint32(i), i)
	}
	victim, _ := st.removeAt(5)
	if err := w2.Delete(victim); err != nil {
		t.Fatalf("delete on an upgraded segment: %v", err)
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
	for _, q := range queries {
		names := queryNames(col, q)
		res, err := s2.Search(names, 10)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ms.Search(refQuery(sub.Lex, names), 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "delete after legacy upgrade", res.Top, mapRef(ref, fromRef))
	}
}

// TestCrashImageAfterPurge: a crash image taken after tombstones were
// purged by merges must reopen to the identical searchable state — the
// ledger reconstruction path for purged documents (postings gone,
// forward entries retained).
func TestCrashImageAfterPurge(t *testing.T) {
	liveDir := filepath.Join(t.TempDir(), "live")
	st, deleted, names, want := buildChurnedDir(t, liveDir, true)
	image := filepath.Join(t.TempDir(), "image")
	copyDir(t, liveDir, image)

	w, err := Open(Config{Dir: image, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Stats(); got.DocsAlive != int64(len(st.alive)) {
		t.Fatalf("crash image reopened with %d alive, want %d", got.DocsAlive, len(st.alive))
	}
	for _, id := range deleted {
		if err := w.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("purged doc %d resurrected from the crash image: %v", id, err)
		}
	}
	s := w.Searcher()
	for i := range names {
		res, err := s.Search(names[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "crash image after purge", res.Top, want[i])
	}
	// And the reopened image still ranks like a fresh build over the
	// survivors — the ledger arithmetic, not just the result cache.
	col := genCollection(t, 400, 43)
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
	for i := range names {
		res, err := s.Search(names[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ms.Search(refQuery(sub.Lex, names[i]), 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "crash image vs survivor build", res.Top, mapRef(ref, fromRef))
	}
}
