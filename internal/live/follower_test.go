package live

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/rank"
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
// the index dir — and, for a bitmap version pulled into a segment the
// follower already serves, a partial inside that committed directory;
// follower-mode Open must reclaim them all without touching committed
// state.
func TestFollowerOpenGCsPullLeftovers(t *testing.T) {
	dir := t.TempDir()
	// One committed segment with a committed bitmap version (1).
	lw, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	streamInto(t, lw, genCollection(t, 20, 17))
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Delete(3); err != nil {
		t.Fatal(err)
	}
	seg := lw.Manifest().Segments[0]
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	staging := filepath.Join(dir, "pull-seg-000004")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	bitmapPartial := filepath.Join(dir, seg.Name, AliveFileName(seg.Tomb+1)+".partial")
	for _, f := range []string{
		filepath.Join(staging, index.SegmentFile),
		filepath.Join(staging, DocTermsFile+".partial"),
		filepath.Join(dir, "stray.tmp"),
		filepath.Join(dir, "transfer.partial"),
		bitmapPartial,
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
	if _, err := os.Stat(bitmapPartial); !os.IsNotExist(err) {
		t.Fatalf("reopen GC left the bitmap partial behind (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, seg.Name, AliveFileName(seg.Tomb))); err != nil {
		t.Fatalf("reopen GC touched the committed bitmap version: %v", err)
	}
	if got := w.Stats(); got.DocsAlive != 19 || got.DocsDeleted != 1 {
		t.Fatalf("committed state moved: %+v", got)
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

// churnedLeader opens a leader under dir and drives it through every
// way a segment comes to exist or change: seals, a buffered delete (a
// hole sealed with bitmap version 1), a purge rewrite (holes whose
// forward entries survive), a tiered merge, and sealed deletes taking
// one segment's bitmap to version 2.
func churnedLeader(t *testing.T, dir string, col *collection.Collection) *Writer {
	t.Helper()
	w, err := Open(Config{Dir: dir, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	add := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(ids ...uint32) {
		t.Helper()
		for _, id := range ids {
			if err := w.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 60) // seals seg-000000
	for id := uint32(0); id < 40; id++ {
		del(id)
	}
	if err := w.MergeAll(); err != nil { // 2/3 dead: the purge rewrite
		t.Fatal(err)
	}
	add(60, 70)
	del(65) // still buffered: seals as a hole
	add(70, 240)
	if err := w.MergeAll(); err != nil { // four 60-doc segments: a tiered merge
		t.Fatal(err)
	}
	add(240, 300)
	del(241)
	del(250) // second sealed delete in one segment: bitmap version 2
	if st := w.Stats(); st.Merges < 2 || st.Segments < 2 {
		t.Fatalf("churn did not purge and merge: %+v", st)
	}
	var v2, purgeHole, bufferHole bool
	for _, s := range w.segs {
		v2 = v2 || s.aliveVer == 2
		for id := 0; id < s.docs; id++ {
			if s.alive == nil || s.alive.Alive(uint32(id)) || s.idx.Stats.DocLen(uint32(id)) != 0 {
				continue
			}
			raw, err := s.fwd.raw(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			purgeHole = purgeHole || raw != nil
			bufferHole = bufferHole || raw == nil
		}
	}
	if !v2 || !purgeHole || !bufferHole {
		t.Fatalf("churn missed a shape: bitmap v2 %v, purge hole %v, buffered-delete hole %v", v2, purgeHole, bufferHole)
	}
	return w
}

// lexStats spells a lexicon's statistics out by term name.
func lexStats(l *lexicon.Lexicon) map[string]lexicon.Stats {
	out := make(map[string]lexicon.Stats, l.Size())
	for id := 0; id < l.Size(); id++ {
		out[l.Name(lexicon.TermID(id))] = l.Stats(lexicon.TermID(id))
	}
	return out
}

// ApplyManifest is the follower-side install seam: given the leader's
// manifest and its committed files on local disk, it must install the
// exact leader state — same answers, tombstones included — reject
// stale ordinals, and persist across a reopen. And because Open is the
// same operation run from nothing, a copy of the leader's directory
// Open'ed and an empty follower handed the manifest must come out
// identical.
func TestApplyManifestInstallsLeaderState(t *testing.T) {
	col := genCollection(t, 400, 11)
	queries := genQueries(t, col, 12)
	ldir, fdir := t.TempDir(), t.TempDir()
	lw := churnedLeader(t, ldir, col)
	defer lw.Close()

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
	for id := uint32(260); id < 265; id++ {
		if err := lw.Delete(id); err != nil {
			t.Fatal(err)
		}
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

	// Open == ApplyManifest from nothing: the leader's directory copied
	// and Open'ed (as a leader), against an empty follower handed m2.
	odir, edir := t.TempDir(), t.TempDir()
	copyDir(t, ldir, odir)
	ow, err := Open(Config{Dir: odir, SealDocs: 60, MergeFanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ow.Close()
	ew, err := Open(Config{Dir: edir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ew.Close()
	copySegments(t, m2, ldir, edir)
	if err := ew.ApplyManifest(m2); err != nil {
		t.Fatal(err)
	}
	if o, e := ow.Stats(), ew.Stats(); o != e {
		t.Fatalf("Stats differ:\n opened  %+v\n applied %+v", o, e)
	}
	if o, e := ow.Manifest(), ew.Manifest(); !reflect.DeepEqual(o, e) {
		t.Fatalf("manifests differ:\n opened  %+v\n applied %+v", o, e)
	}
	shared := lexStats(ew.cur.lex)
	if !reflect.DeepEqual(lexStats(ow.cur.lex), shared) {
		t.Fatal("ranking lexicon statistics differ between Open and ApplyManifest")
	}
	sealed := lexStats(ow.sealedSnap)
	openedS, appliedS := ow.Searcher(), ew.Searcher()
	answers := func(s *Searcher) [][]rank.DocScore {
		out := make([][]rank.DocScore, len(queries))
		for i, q := range queries {
			res, err := s.Search(queryNames(col, q), 10)
			if err != nil || !res.Exact {
				t.Fatalf("query %d: exact %v, err %v", i, res.Exact, err)
			}
			out[i] = res.Top
		}
		return out
	}
	want := answers(appliedS)
	if !reflect.DeepEqual(answers(openedS), want) {
		t.Fatal("Open'ed copy and ApplyManifest'ed follower answer differently")
	}

	// The Open'ed copy is a leader: it takes writes. Buffered documents
	// are recorded into its master lexicon, which must be its own — the
	// sealed snapshot and the statistics the serving generation ranks
	// with (the ones a follower shares) cover exactly the sealed
	// documents until the seal commits.
	for i := 300; i < 330; i++ {
		if _, err := ow.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(lexStats(ow.sealedSnap), sealed) || !reflect.DeepEqual(lexStats(ow.cur.lex), shared) {
		t.Fatal("buffered documents leaked into the sealed snapshot: the master lexicon aliases it")
	}
	if !reflect.DeepEqual(answers(openedS), want) {
		t.Fatal("buffered documents moved the serving generation's answers")
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ow.Stats(); got.DocsAlive != ew.Stats().DocsAlive+30 || got.Seals != 1 {
		t.Fatalf("seal after reopen: %+v", got)
	}
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
