package live

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/index"
)

// A follower-mode writer is read-only: every mutation entry point must
// refuse with ErrReadOnly, and follower mode must reject the background
// loops that imply local writes.
func TestFollowerModeIsReadOnly(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.ReadOnly() {
		t.Fatal("follower writer does not report ReadOnly")
	}
	if _, err := w.Add([]TermCount{{Term: "t1", TF: 1}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Add: %v, want ErrReadOnly", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Flush: %v, want ErrReadOnly", err)
	}
	if err := w.Delete(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete: %v, want ErrReadOnly", err)
	}
	if _, err := w.Update(0, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update: %v, want ErrReadOnly", err)
	}
	if err := w.MergeAll(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("MergeAll: %v, want ErrReadOnly", err)
	}

	if _, err := Open(Config{Dir: t.TempDir(), Follower: true, BackgroundMerge: true}); err == nil {
		t.Fatal("follower + BackgroundMerge must be rejected")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Follower: true, FlushEvery: time.Second}); err == nil {
		t.Fatal("follower + FlushEvery must be rejected")
	}
}

// A mid-pull crash leaves staging directories and partial files under
// the index dir; follower-mode Open must reclaim them all without
// touching committed state.
func TestFollowerOpenGCsPullLeftovers(t *testing.T) {
	dir := t.TempDir()
	staging := filepath.Join(dir, "pull-seg-000004")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		filepath.Join(staging, index.SegmentFile),
		filepath.Join(staging, DocTermsFile+".partial"),
		filepath.Join(dir, "stray.tmp"),
		filepath.Join(dir, "transfer.partial"),
	} {
		if err := os.WriteFile(f, []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Open(Config{Dir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "pull-") ||
			strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".partial") {
			t.Fatalf("reopen GC left %s behind", name)
		}
	}
}

// copySegments copies the segment directories a manifest references
// from one index dir into another — a stand-in for the pull protocol,
// so ApplyManifest is testable without HTTP.
func copySegments(t *testing.T, m Manifest, from, to string) {
	t.Helper()
	for _, info := range m.Segments {
		src := filepath.Join(from, info.Name)
		dst := filepath.Join(to, info.Name)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		files := []string{index.SegmentFile, DocTermsFile}
		if info.Tomb > 0 {
			files = append(files, AliveFileName(info.Tomb))
		}
		for _, f := range files {
			if err := copyFile(filepath.Join(src, f), filepath.Join(dst, f)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ApplyManifest is the follower-side install seam: given the leader's
// manifest and its committed files on local disk, it must install the
// exact leader state — same answers, tombstones included — reject
// stale ordinals, and persist across a reopen.
func TestApplyManifestInstallsLeaderState(t *testing.T) {
	col := genCollection(t, 400, 11)
	queries := genQueries(t, col, 12)
	ldir, fdir := t.TempDir(), t.TempDir()

	lw, err := Open(Config{Dir: ldir, SealDocs: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	// Two sealed generations with tombstones in the first.
	for i := 0; i < 200; i++ {
		if _, err := lw.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 400; i++ {
		if _, err := lw.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(0); id < 5; id++ {
		if err := lw.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	fw, err := Open(Config{Dir: fdir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	m := lw.Manifest()
	copySegments(t, m, ldir, fdir)
	if err := fw.ApplyManifest(m); err != nil {
		t.Fatal(err)
	}
	if got := fw.Manifest().Generation; got != m.Generation {
		t.Fatalf("follower at generation %d after apply, want %d", got, m.Generation)
	}
	assertFollowerEquiv(t, lw, fw, col, queries)

	// Same or older ordinal must be refused: the replication clock only
	// moves forward.
	if err := fw.ApplyManifest(m); err == nil {
		t.Fatal("re-applying the installed generation succeeded")
	}

	// The leader moves on (more tombstones -> a new alive version);
	// shipping just the delta installs cleanly.
	for id := uint32(5); id < 10; id++ {
		if err := lw.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	m2 := lw.Manifest()
	if m2.Generation <= m.Generation {
		t.Fatalf("leader did not advance: %d -> %d", m.Generation, m2.Generation)
	}
	copySegments(t, m2, ldir, fdir)
	if err := fw.ApplyManifest(m2); err != nil {
		t.Fatal(err)
	}
	assertFollowerEquiv(t, lw, fw, col, queries)

	// The installed state is durable: a reopen serves it unchanged.
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fw2, err := Open(Config{Dir: fdir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if got := fw2.Manifest().Generation; got != m2.Generation {
		t.Fatalf("reopened follower at generation %d, want %d", got, m2.Generation)
	}
	assertFollowerEquiv(t, lw, fw2, col, queries)
}

// ApplyManifest must verify what it installs: a manifest referencing a
// segment whose files are absent (or inconsistent) fails without moving
// the serving generation.
func TestApplyManifestRejectsMissingFiles(t *testing.T) {
	col := genCollection(t, 120, 13)
	ldir, fdir := t.TempDir(), t.TempDir()
	lw, err := Open(Config{Dir: ldir, SealDocs: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	streamInto(t, lw, col)
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	fw, err := Open(Config{Dir: fdir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	m := lw.Manifest()
	if err := fw.ApplyManifest(m); err == nil {
		t.Fatal("ApplyManifest installed a manifest whose segment files are missing")
	}
	if got := fw.Manifest().Generation; got != 0 {
		t.Fatalf("failed apply moved the generation to %d", got)
	}
	s, err := fw.Acquire()
	if err != nil {
		t.Fatalf("follower unusable after failed apply: %v", err)
	}
	s.Close()
}

// assertFollowerEquiv runs every query on both writers and requires
// byte-identical rankings.
func assertFollowerEquiv(t *testing.T, lw, fw *Writer, col *collection.Collection, queries []collection.Query) {
	t.Helper()
	ls, fs := lw.Searcher(), fw.Searcher()
	for i, q := range queries {
		names := queryNames(col, q)
		lr, err := ls.Search(names, 10)
		if err != nil {
			t.Fatalf("leader query %d: %v", i, err)
		}
		fr, err := fs.Search(names, 10)
		if err != nil {
			t.Fatalf("follower query %d: %v", i, err)
		}
		if !lr.Exact || !fr.Exact {
			t.Fatalf("query %d not exact (leader %v, follower %v)", i, lr.Exact, fr.Exact)
		}
		assertSameTop(t, "follower equivalence", fr.Top, lr.Top)
	}
}
