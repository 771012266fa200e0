package index

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// segCollection generates a deterministic random collection for
// segment tests.
func segCollection(t *testing.T, seed uint64, docs int) *collection.Collection {
	t.Helper()
	col, err := collection.Generate(collection.Config{
		NumDocs: docs, VocabSize: 4000, MeanDocLen: 80, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func buildPool(t *testing.T) *storage.Pool {
	t.Helper()
	p, err := storage.NewPool(storage.NewDisk(), 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// openSmallPool opens dir with a pool deliberately smaller than the
// segment, asserting that the paging machinery is actually exercised.
func openSmallPool(t *testing.T, dir string) *storage.Pool {
	t.Helper()
	pool, fd, err := OpenPool(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	if fd.NumPages() <= pool.Capacity() {
		t.Fatalf("segment holds %d pages, not larger than the %d-frame pool — test would not exercise paging",
			fd.NumPages(), pool.Capacity())
	}
	return pool
}

func equalLexicons(t *testing.T, a, b *lexicon.Lexicon) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("lexicon size %d != %d", b.Size(), a.Size())
	}
	for id := 0; id < a.Size(); id++ {
		tid := lexicon.TermID(id)
		if a.Name(tid) != b.Name(tid) {
			t.Fatalf("term %d name %q != %q", id, b.Name(tid), a.Name(tid))
		}
		if a.Stats(tid) != b.Stats(tid) {
			t.Fatalf("term %d stats %+v != %+v", id, b.Stats(tid), a.Stats(tid))
		}
	}
}

func equalStats(t *testing.T, a, b Stats) {
	t.Helper()
	if a.NumDocs != b.NumDocs || a.AvgDocLen != b.AvgDocLen || a.TotalTokens != b.TotalTokens {
		t.Fatalf("stats %+v != %+v", b, a)
	}
	if len(a.DocLens) != len(b.DocLens) {
		t.Fatalf("%d doc lens, want %d", len(b.DocLens), len(a.DocLens))
	}
	for i := range a.DocLens {
		if a.DocLens[i] != b.DocLens[i] {
			t.Fatalf("doc %d len %d != %d", i, b.DocLens[i], a.DocLens[i])
		}
	}
}

// TestSegmentRoundTripProperty persists random unfragmented indexes and
// reopens them through a pool smaller than the segment, demanding the
// lexicon, corpus statistics, and every posting come back equal.
func TestSegmentRoundTripProperty(t *testing.T) {
	rng := xrand.New(99)
	for round := 0; round < 3; round++ {
		seed := rng.Uint64()
		col := segCollection(t, seed, 150+int(seed%100))
		built, err := Build(col, buildPool(t))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.Persist(dir); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(dir, openSmallPool(t, dir))
		if err != nil {
			t.Fatal(err)
		}

		equalLexicons(t, built.Lex, opened.Lex)
		equalStats(t, built.Stats, opened.Stats)
		if got, want := opened.TotalPostings(), built.TotalPostings(); got != want {
			t.Fatalf("round %d: %d postings, want %d", round, got, want)
		}
		for id := 0; id < built.Lex.Size(); id++ {
			tid := lexicon.TermID(id)
			if opened.DocFreq(tid) != built.DocFreq(tid) || opened.MaxTF(tid) != built.MaxTF(tid) {
				t.Fatalf("round %d term %d: df/maxTF mismatch", round, id)
			}
			want, err := built.Postings(tid)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opened.Postings(tid)
			if err != nil {
				t.Fatalf("round %d term %d: %v", round, id, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d term %d: %d postings, want %d", round, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d term %d posting %d: %v != %v", round, id, i, got[i], want[i])
				}
			}
		}
		if opened.Counters().BlocksFaulted == 0 {
			t.Error("paged reads reported zero block faults")
		}
	}
}

// TestSegmentRoundTripFragmented checks the two-fragment flavor: the
// fragmentation predicate and both fragments' contents survive the trip.
func TestSegmentRoundTripFragmented(t *testing.T) {
	col := segCollection(t, 17, 250)
	fx, err := BuildFragmented(col, buildPool(t), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := fx.Persist(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFragmented(dir, openSmallPool(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got.DFThreshold != fx.DFThreshold || got.BoundaryID != fx.BoundaryID {
		t.Fatalf("predicate (%d,%d) != (%d,%d)", got.DFThreshold, got.BoundaryID, fx.DFThreshold, fx.BoundaryID)
	}
	if got.SmallFraction() != fx.SmallFraction() {
		t.Fatalf("small fraction %v != %v", got.SmallFraction(), fx.SmallFraction())
	}
	equalLexicons(t, fx.Lex, got.Lex)
	equalStats(t, fx.Stats, got.Stats)
	for id := 0; id < col.Lex.Size(); id++ {
		tid := lexicon.TermID(id)
		if fx.Small.Has(tid) != got.Small.Has(tid) || fx.Large.Has(tid) != got.Large.Has(tid) {
			t.Fatalf("term %d changed fragments", id)
		}
		frag, openedFrag := fx.FragmentOf(tid), got.FragmentOf(tid)
		if (frag == nil) != (openedFrag == nil) {
			t.Fatalf("term %d presence mismatch", id)
		}
		if frag == nil {
			continue
		}
		want, err := frag.Postings(tid)
		if err != nil {
			t.Fatal(err)
		}
		have, err := openedFrag.Postings(tid)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(have) {
			t.Fatalf("term %d: %d postings, want %d", id, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("term %d posting %d: %v != %v", id, i, have[i], want[i])
			}
		}
	}
}

// TestSegmentRoundTripMulti checks the fragment-chain flavor, including
// the term→fragment assignment.
func TestSegmentRoundTripMulti(t *testing.T) {
	col := segCollection(t, 23, 250)
	mx, err := BuildMulti(col, buildPool(t), []float64{0.05, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := mx.Persist(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenMulti(dir, openSmallPool(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fragments) != len(mx.Fragments) {
		t.Fatalf("%d fragments, want %d", len(got.Fragments), len(mx.Fragments))
	}
	equalLexicons(t, mx.Lex, got.Lex)
	equalStats(t, mx.Stats, got.Stats)
	if got.TotalPostings() != mx.TotalPostings() {
		t.Fatalf("%d postings, want %d", got.TotalPostings(), mx.TotalPostings())
	}
	for id := 0; id < col.Lex.Size(); id++ {
		tid := lexicon.TermID(id)
		if got.FragmentIndexOf(tid) != mx.FragmentIndexOf(tid) {
			t.Fatalf("term %d assigned to fragment %d, want %d", id, got.FragmentIndexOf(tid), mx.FragmentIndexOf(tid))
		}
		if got.DocFreq(tid) != mx.DocFreq(tid) || got.MaxTF(tid) != mx.MaxTF(tid) {
			t.Fatalf("term %d df/maxTF mismatch", id)
		}
	}
}

// TestSegmentFlavorMismatch: opening a segment with the wrong flavor
// accessor must fail cleanly, not misinterpret sections.
func TestSegmentFlavorMismatch(t *testing.T) {
	col := segCollection(t, 31, 120)
	built, err := Build(col, buildPool(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Persist(dir); err != nil {
		t.Fatal(err)
	}
	pool, fd, err := OpenPool(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if _, err := OpenFragmented(dir, pool); err == nil {
		t.Error("OpenFragmented accepted a plain segment")
	}
	if _, err := OpenMulti(dir, pool); err == nil {
		t.Error("OpenMulti accepted a plain segment")
	}
	if _, err := Open(dir, nil); err == nil || !strings.Contains(err.Error(), "nil pool") {
		t.Errorf("Open with nil pool: err = %v", err)
	}
}

// TestSegmentCorruption flips one byte inside every section payload (and
// the superblock) of a persisted segment and demands Open fail with a
// diagnosable error each time; truncated files must be rejected before
// any section is interpreted.
func TestSegmentCorruption(t *testing.T) {
	col := segCollection(t, 41, 150)
	built, err := Build(col, buildPool(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Persist(dir); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(SegmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Learn the section extents so every flip lands inside a checksummed
	// payload, never in page padding.
	pool, fd, err := OpenPool(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := readSuperblock(pool)
	if err != nil {
		t.Fatal(err)
	}
	fd.Close()

	targets := []struct {
		name string
		off  int64
	}{
		{"superblock magic", 2},
		{"superblock directory", 64},
	}
	for _, s := range sb.sections {
		base := int64(s.startPage-1) * storage.PageSize
		targets = append(targets,
			struct {
				name string
				off  int64
			}{kindName(s.kind), base},
			struct {
				name string
				off  int64
			}{kindName(s.kind) + " middle", base + s.length/2},
		)
	}

	for _, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			corrupt := append([]byte(nil), pristine...)
			corrupt[tc.off] ^= 0x5a
			cdir := t.TempDir()
			if err := os.WriteFile(SegmentPath(cdir), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			pool, fd, err := OpenPool(cdir, 8)
			if err != nil {
				return // rejected even earlier: fine
			}
			defer fd.Close()
			if _, err := Open(cdir, pool); err == nil {
				t.Fatalf("Open accepted a segment with byte %d flipped", tc.off)
			} else if !strings.Contains(err.Error(), "corrupt") &&
				!strings.Contains(err.Error(), "segment") {
				t.Errorf("error does not identify corruption: %v", err)
			}
		})
	}

	// A section directory with a valid superblock CRC but an extent the
	// file cannot hold: past MaxInt64 (negative once parsed), absurdly
	// large, one page too many, or starting inside the superblock. Each
	// must be refused before it sizes an allocation or a page walk.
	filePages := uint32(len(pristine) / storage.PageSize)
	for _, tc := range []struct {
		name   string
		start  uint32
		length uint64
	}{
		{"section length above MaxInt64", uint32(sb.sections[0].startPage), 1 << 63},
		{"section length of exabytes", uint32(sb.sections[0].startPage), 1<<62 + 12345},
		{"section one page past the file", 2, uint64(filePages) * storage.PageSize},
		{"section starting in the superblock", 1, uint64(sb.sections[0].length)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(SegmentPath(cdir), doctorSection(pristine, 0, tc.start, tc.length), 0o644); err != nil {
				t.Fatal(err)
			}
			pool, fd, err := OpenPool(cdir, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer fd.Close()
			if _, err := Open(cdir, pool); err == nil || !strings.Contains(err.Error(), "lies outside") {
				t.Fatalf("Open = %v, want the extent check to refuse the section", err)
			}
		})
	}

	t.Run("truncated to partial page", func(t *testing.T) {
		cdir := t.TempDir()
		if err := os.WriteFile(SegmentPath(cdir), pristine[:len(pristine)-100], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenPool(cdir, 8); err == nil {
			t.Fatal("OpenPool accepted a truncated (non page-multiple) segment")
		}
	})
	t.Run("truncated by whole pages", func(t *testing.T) {
		cdir := t.TempDir()
		if err := os.WriteFile(SegmentPath(cdir), pristine[:len(pristine)-2*storage.PageSize], 0o644); err != nil {
			t.Fatal(err)
		}
		pool, fd, err := OpenPool(cdir, 8)
		if err != nil {
			return
		}
		defer fd.Close()
		if _, err := Open(cdir, pool); err == nil {
			t.Fatal("Open accepted a segment missing its tail pages")
		}
	})
	t.Run("empty file", func(t *testing.T) {
		cdir := t.TempDir()
		if err := os.WriteFile(SegmentPath(cdir), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenPool(cdir, 8); err == nil {
			t.Fatal("OpenPool accepted an empty segment")
		}
	})
}

// doctorSection returns a copy of the segment image raw whose section
// directory entry sec claims the given start page and length, with the
// superblock checksum recomputed — the shape of damage (or hostility)
// the superblock CRC cannot catch.
func doctorSection(raw []byte, sec int, start uint32, length uint64) []byte {
	out := append([]byte(nil), raw...)
	const dirOff, entry = 8 + 7*4, 24
	count := int(binary.LittleEndian.Uint32(out[dirOff-4:]))
	binary.LittleEndian.PutUint32(out[dirOff+entry*sec+8:], start)
	binary.LittleEndian.PutUint64(out[dirOff+entry*sec+12:], length)
	end := dirOff + entry*count
	binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[:end]))
	return out
}

func kindName(kind uint32) string {
	switch kind {
	case secLexicon:
		return "lexicon"
	case secStats:
		return "stats"
	case secMeta:
		return "meta"
	case secPostings:
		return "postings"
	}
	return "unknown"
}
