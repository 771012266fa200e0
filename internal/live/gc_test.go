package live

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rank"
)

// segDirs lists the seg-* directories under dir.
func segDirs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") {
			out[e.Name()] = true
		}
	}
	return out
}

// TestMergeDeferredDeletion: a merge that commits while a reader still
// holds the old generation must not delete the input segments until
// that reader releases its snapshot — and must delete them then.
func TestMergeDeferredDeletion(t *testing.T) {
	col := genCollection(t, 300, 31)
	queries := genQueries(t, col, 32)
	dir := t.TempDir()
	// Manual merging so the test controls exactly when compaction runs.
	w, err := Open(Config{Dir: dir, SealDocs: 75, MergeFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	before := segDirs(t, dir)
	if len(before) < 4 {
		t.Fatalf("want at least 4 sealed segments, got %v", before)
	}

	// Hold the pre-merge generation open, record its answers.
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	want := make([][]rank.DocScore, len(queries))
	for i, q := range queries {
		res, err := snap.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Top
	}

	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Merges == 0 {
		t.Fatal("merge did not run")
	}
	after := segDirs(t, dir)
	for name := range before {
		if !after[name] {
			t.Fatalf("input segment %s deleted while a snapshot still holds it", name)
		}
	}

	// The held snapshot keeps answering from the old generation,
	// identically.
	for i, q := range queries {
		res, err := snap.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "held snapshot", res.Top, want[i])
	}
	// And a fresh snapshot serves the merged chain with the same
	// answers.
	fresh, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Segments() >= snap.Segments() {
		t.Fatalf("merge did not shrink the chain: %d -> %d", snap.Segments(), fresh.Segments())
	}
	for i, q := range queries {
		res, err := fresh.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-merge snapshot", res.Top, want[i])
	}
	fresh.Close()

	// Releasing the last holder of the old generation deletes exactly
	// the merged-away inputs.
	snap.Close()
	final := segDirs(t, dir)
	deleted := 0
	for name := range before {
		if !final[name] {
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatalf("no merged input was deleted after the last snapshot released (dirs %v)", final)
	}
	surviving, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer surviving.Close()
	if got := len(final); got != surviving.Segments() {
		t.Fatalf("%d segment dirs on disk, current generation holds %d", got, surviving.Segments())
	}
}

// TestStaleSegmentGC simulates a crash between the manifest swap and
// the deferred deletion of merged inputs: segment directories not
// listed in the manifest must be ignored and garbage-collected on
// reopen, and answers must be unaffected.
func TestStaleSegmentGC(t *testing.T) {
	col := genCollection(t, 200, 41)
	queries := genQueries(t, col, 42)
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealDocs: 50, MergeFanIn: 4}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	const n = 10
	s := w.Searcher()
	want := make([][]rank.DocScore, len(queries))
	for i, q := range queries {
		res, err := s.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Top
	}
	live := segDirs(t, dir)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Fake two crash leftovers: a full copy of a real segment under an
	// unlisted name (the shape a completed-but-unswapped merge leaves)
	// and a junk directory.
	var src string
	for name := range live {
		src = name
		break
	}
	stale := filepath.Join(dir, "seg-909090")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, src, "segment.topn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "segment.topn"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "seg-999999")
	if err := os.MkdirAll(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(junk, "segment.topn"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	after := segDirs(t, dir)
	if after["seg-909090"] || after["seg-999999"] {
		t.Fatalf("stale segment directories survived reopen: %v", after)
	}
	for name := range live {
		if !after[name] {
			t.Fatalf("live segment %s was garbage-collected", name)
		}
	}
	s2 := w2.Searcher()
	for i, q := range queries {
		res, err := s2.Search(queryNames(col, q), n)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTop(t, "post-gc", res.Top, want[i])
	}
}

// TestDirLock: a live directory is single-writer — a second Open fails
// cleanly while the first holds it, and succeeds after Close releases
// the flock.
func TestDirLock(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second Open on a held directory succeeded; silent corruption would follow")
	} else if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second Open failed for the wrong reason: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshDirWithoutManifest: with no manifest, the directory reads as
// an empty index and stray segment directories are collected — the
// manifest is the root of truth.
func TestFreshDirWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "seg-000123")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray segment directory survived fresh open: %v", err)
	}
	snap, err := w.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumDocs() != 0 || snap.Segments() != 0 {
		t.Fatalf("fresh index not empty: %d docs, %d segments", snap.NumDocs(), snap.Segments())
	}
}

// TestSegmentWriteFailureLeavesNoDirectory: seal and merge persist
// through one writeSegment, so they share one cleanup. With the next
// segment's sidecar path pre-created as a directory, the postings file
// persists and the sidecar write then fails: both operations must
// return the error and remove the uncommitted directory, and the
// generation that was serving keeps serving.
func TestSegmentWriteFailureLeavesNoDirectory(t *testing.T) {
	col := genCollection(t, 200, 37)
	blockNext := func(t *testing.T, w *Writer) string {
		t.Helper()
		name := SegmentDirName(w.Manifest().NextSeq)
		if err := os.MkdirAll(filepath.Join(w.Dir(), name, DocTermsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		return name
	}
	for _, op := range []string{"seal", "merge"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Config{Dir: dir, SealDocs: 50, MergeFanIn: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var blocked string
			if op == "seal" {
				for i := 0; i < 49; i++ { // one short of the seal threshold
					if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
						t.Fatal(err)
					}
				}
				blocked = blockNext(t, w)
				err = w.Flush()
			} else {
				streamInto(t, w, col) // four sealed segments: one tiered run
				blocked = blockNext(t, w)
				err = w.MergeAll()
			}
			if err == nil || !strings.Contains(err.Error(), "docterms") {
				t.Fatalf("%s with an unwritable sidecar: %v, want the sidecar write error", op, err)
			}
			if segDirs(t, dir)[blocked] {
				t.Fatalf("failed %s left %s behind", op, blocked)
			}
			res, err := w.Searcher().Search(queryNames(col, genQueries(t, col, 38)[0]), 5)
			if err != nil || !res.Exact {
				t.Fatalf("search after the failed %s: exact %v, err %v", op, res.Exact, err)
			}
			if op == "merge" && len(res.Top) == 0 {
				t.Fatal("the four sealed segments stopped answering after the failed merge")
			}
		})
	}
}
