package index

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/storage"
)

// segmentSeedBytes builds a small valid segment and returns its raw
// file bytes — the fuzz corpus seed mutations grow from.
func segmentSeedBytes(f *testing.F) []byte {
	f.Helper()
	col, err := collection.Generate(collection.Config{NumDocs: 60, VocabSize: 500, MeanDocLen: 30, Seed: 99})
	if err != nil {
		f.Fatal(err)
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<12)
	if err != nil {
		f.Fatal(err)
	}
	idx, err := Build(col, pool)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := idx.Persist(dir); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(SegmentPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzSegmentOpen feeds mutated segment files through index.Open: a
// valid segment opens and serves, and any mutation — a flipped
// superblock bit, a truncated section, an implausible count — must fail
// with a clean error. Never a panic, never an unbounded allocation
// (every length field is validated against the section payload before
// being trusted), never garbage results served as an index.
func FuzzSegmentOpen(f *testing.F) {
	raw := segmentSeedBytes(f)
	f.Add(raw)
	// Targeted superblock mutations: magic, version, section count, and a
	// section length, so the fuzzer starts at the interesting offsets.
	for _, off := range []int{0, 8, 32, 60} {
		if off < len(raw) {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add(doctorSection(raw, 0, 2, 1<<63))    // valid superblock CRC, section length past MaxInt64
	f.Add(raw[:storage.PageSize])             // superblock only, sections gone
	f.Add(append([]byte(nil), raw[4096:]...)) // superblock sheared off

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return // keep per-exec disk writes bounded
		}
		dir := t.TempDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SegmentFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		pool, fd, err := OpenPool(dir, 8)
		if err != nil {
			return // unreadable as a page device: a clean failure
		}
		defer fd.Close()
		ix, err := Open(dir, pool)
		if err != nil {
			return // corrupt segment rejected with an error — the contract
		}
		// A segment that opened must actually serve: walk a few lists end
		// to end so latent corruption surfaces as iterator errors, not
		// panics.
		terms := 0
		for id := 0; id < ix.Lex.Size() && terms < 16; id++ {
			it, ok, err := ix.Reader(lexicon.TermID(id))
			if err != nil || !ok {
				continue
			}
			for it.Next() {
			}
			_ = it.Err()
			it.Close()
			terms++
		}
	})
}
