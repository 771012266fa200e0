package postings

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/xrand"
)

func TestUvarintRoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		buf := putUvarint(nil, v)
		got, n := uvarint(buf)
		return n == len(buf) && got == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	buf := putUvarint(nil, 1<<30)
	for cut := 0; cut < len(buf); cut++ {
		if _, n := uvarint(buf[:cut]); n != 0 && cut < len(buf) {
			// Any prefix that still terminates must decode to something;
			// only prefixes ending mid-value must return n==0. A prefix of
			// a multi-byte encoding always has the continuation bit set on
			// its last byte, so n must be 0.
			last := buf[cut-1]
			if last >= 0x80 {
				t.Errorf("truncated input of %d bytes decoded", cut)
			}
		}
	}
	if _, n := uvarint(nil); n != 0 {
		t.Error("empty input decoded")
	}
}

func TestUvarintOverlong(t *testing.T) {
	// Six continuation bytes exceed what a uint32 can need.
	buf := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, n := uvarint(buf); n != 0 {
		t.Error("overlong encoding accepted")
	}
}

func randomList(rng *xrand.RNG, n int) []Posting {
	docs := make(map[uint32]bool, n)
	for len(docs) < n {
		docs[uint32(rng.Intn(1<<22))] = true
	}
	out := make([]Posting, 0, n)
	for d := range docs {
		out = append(out, Posting{DocID: d, TF: uint32(1 + rng.Intn(50))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := xrand.New(42)
	for _, n := range []int{0, 1, 2, 10, 127, 128, 129, 1000, 5000} {
		ps := randomList(rng, n)
		buf, err := Encode(ps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ps) {
			t.Fatalf("n=%d: decoded %d postings", n, len(got))
		}
		if n > 0 && !reflect.DeepEqual(got, ps) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode([]Posting{{5, 1}, {5, 1}}); err == nil {
		t.Error("duplicate doc ids accepted")
	}
	if _, err := Encode([]Posting{{5, 1}, {3, 1}}); err == nil {
		t.Error("descending doc ids accepted")
	}
	if _, err := Encode([]Posting{{5, 0}}); err == nil {
		t.Error("zero TF accepted")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	ps := []Posting{{1, 2}, {3, 4}, {100, 5}}
	buf, _ := Encode(ps)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Error("nil input accepted")
	}
	// A declared count of 2^32-1 with no blocks behind it: the allocation
	// must follow the input's length, not the declared count.
	if _, err := Decode([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge declared count: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeCompresses(t *testing.T) {
	// Dense consecutive doc ids with small TFs should cost about 2 bytes
	// per posting, far below the 8-byte struct size.
	ps := make([]Posting, 10000)
	for i := range ps {
		ps[i] = Posting{DocID: uint32(i), TF: 1}
	}
	buf, err := Encode(ps)
	if err != nil {
		t.Fatal(err)
	}
	if perPosting := float64(len(buf)) / float64(len(ps)); perPosting > 2.1 {
		t.Errorf("dense list costs %.2f bytes/posting, want about 2", perPosting)
	}
}

func newStore(t testing.TB) *Store {
	t.Helper()
	d := storage.NewDisk()
	p, err := storage.NewPool(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(storage.NewFile(p))
}

func TestStorePutReadAll(t *testing.T) {
	s := newStore(t)
	rng := xrand.New(7)
	lists := make([][]Posting, 20)
	metas := make([]ListMeta, 20)
	for i := range lists {
		lists[i] = randomList(rng, 1+rng.Intn(500))
		m, err := s.Put(lists[i])
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = m
	}
	for i := range lists {
		got, err := s.ReadAll(metas[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, lists[i]) {
			t.Fatalf("list %d round trip mismatch", i)
		}
	}
}

func TestIteratorSequential(t *testing.T) {
	s := newStore(t)
	rng := xrand.New(11)
	ps := randomList(rng, 777)
	meta, err := s.Put(ps)
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []Posting
	for it.Next() {
		got = append(got, it.At())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Fatal("iterator did not reproduce the list")
	}
	if it.DocFreq() != len(ps) {
		t.Errorf("DocFreq = %d, want %d", it.DocFreq(), len(ps))
	}
}

// TestBlockIndexBuilt: every non-empty list gets one SkipEntry per block
// (the last possibly partial), and each entry carries the block's exact
// doc range, count, and max TF — the inputs of Block-Max pruning.
func TestBlockIndexBuilt(t *testing.T) {
	s := newStore(t)
	rng := xrand.New(3)
	for _, n := range []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 1,
		2*BlockSize - 1, 2 * BlockSize, 5*BlockSize + 17} {
		ps := randomList(rng, n)
		meta, err := s.Put(ps)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := (n + BlockSize - 1) / BlockSize
		if len(meta.Skips) != wantBlocks {
			t.Fatalf("n=%d: %d skip entries, want %d", n, len(meta.Skips), wantBlocks)
		}
		var listMax uint32
		for bi, e := range meta.Skips {
			start := bi * BlockSize
			end := start + int(e.Count)
			if e.FirstDoc != ps[start].DocID || e.LastDoc != ps[end-1].DocID {
				t.Fatalf("n=%d block %d: range [%d,%d], want [%d,%d]",
					n, bi, e.FirstDoc, e.LastDoc, ps[start].DocID, ps[end-1].DocID)
			}
			var blockMax uint32
			for _, p := range ps[start:end] {
				if p.TF > blockMax {
					blockMax = p.TF
				}
			}
			if e.MaxTF != blockMax {
				t.Fatalf("n=%d block %d: maxTF %d, want %d", n, bi, e.MaxTF, blockMax)
			}
			if blockMax > listMax {
				listMax = blockMax
			}
		}
		if meta.MaxTF != listMax {
			t.Fatalf("n=%d: list maxTF %d, want %d", n, meta.MaxTF, listMax)
		}
	}
}

// TestBlockMaxTF: the bound must be exact for covered documents, zero
// for documents provably absent, and never underestimate.
func TestBlockMaxTF(t *testing.T) {
	s := newStore(t)
	rng := xrand.New(29)
	ps := randomList(rng, 3*BlockSize+40)
	meta, err := s.Put(ps)
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	present := make(map[uint32]uint32, len(ps))
	for _, p := range ps {
		present[p.DocID] = p.TF
	}
	for probe := uint32(0); probe < ps[len(ps)-1].DocID+5; probe += 3 {
		bound := it.BlockMaxTF(probe)
		if tf, ok := present[probe]; ok && bound < tf {
			t.Fatalf("doc %d: bound %d below actual tf %d", probe, bound, tf)
		}
	}
	if it.BlockMaxTF(ps[len(ps)-1].DocID+1) != 0 {
		t.Error("bound past the last document must be 0")
	}
	if ps[0].DocID > 0 && it.BlockMaxTF(ps[0].DocID-1) != 0 {
		t.Error("bound before the first document must be 0")
	}
}

// TestIteratorClose: Close flushes the batched counters, double Close is
// a no-op, and a closed iterator's buffer can be reused by a new one.
func TestIteratorClose(t *testing.T) {
	s := newStore(t)
	rng := xrand.New(31)
	ps := randomList(rng, 3*BlockSize)
	meta, err := s.Put(ps)
	if err != nil {
		t.Fatal(err)
	}
	s.Counters.Reset()
	it, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	it.NoteBlockSkip() // pending local count that only Close flushes
	it.Close()
	it.Close() // must be a no-op
	if got := s.Counters.LoadPostingsDecoded(); got != int64(len(ps)) {
		t.Errorf("decoded counter %d after close, want %d", got, len(ps))
	}
	if got := s.Counters.LoadSkipsTaken(); got != 1 {
		t.Errorf("skips counter %d after close, want 1", got)
	}
	// The pooled buffer must be reusable without corrupting a new read.
	it2, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	for i := 0; it2.Next(); i++ {
		if it2.At() != ps[i] {
			t.Fatalf("reused buffer diverged at %d", i)
		}
	}
}

func TestSeekGEEquivalence(t *testing.T) {
	// SeekGE through the sparse index must land exactly where a linear
	// scan would, for arbitrary targets.
	s := newStore(t)
	rng := xrand.New(5)
	ps := randomList(rng, 3000)
	meta, err := s.Put(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Skips) == 0 {
		t.Fatal("expected a sparse index")
	}
	targets := []uint32{0, 1, ps[0].DocID, ps[10].DocID, ps[10].DocID + 1,
		ps[1500].DocID, ps[2999].DocID, ps[2999].DocID + 1}
	for i := 0; i < 60; i++ {
		targets = append(targets, uint32(rng.Intn(1<<22)))
	}
	for _, target := range targets {
		it, err := s.NewIterator(meta)
		if err != nil {
			t.Fatal(err)
		}
		ok := it.SeekGE(target)
		defer it.Close()
		// Reference answer by binary search on the decoded list.
		idx := sort.Search(len(ps), func(i int) bool { return ps[i].DocID >= target })
		if idx == len(ps) {
			if ok {
				t.Fatalf("target %d: SeekGE found %v, want none", target, it.At())
			}
			continue
		}
		if !ok {
			t.Fatalf("target %d: SeekGE found nothing, want %v", target, ps[idx])
		}
		if it.At() != ps[idx] {
			t.Fatalf("target %d: SeekGE at %v, want %v", target, it.At(), ps[idx])
		}
		// The iterator must still stream the remainder correctly.
		want := idx
		for it.Next() {
			want++
			if want >= len(ps) || it.At() != ps[want] {
				t.Fatalf("target %d: stream after seek diverged at %d", target, want)
			}
		}
	}
}

func TestSeekGESavesDecoding(t *testing.T) {
	s := newStore(t)
	// A long dense list; seeking to the end should decode far fewer
	// postings than the list holds.
	n := 100 * BlockSize
	ps := make([]Posting, n)
	for i := range ps {
		ps[i] = Posting{DocID: uint32(i * 3), TF: 1}
	}
	meta, err := s.Put(ps)
	if err != nil {
		t.Fatal(err)
	}
	s.Counters.Reset()
	it, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.SeekGE(ps[n-1].DocID) {
		t.Fatal("seek to last posting failed")
	}
	if dec := s.Counters.PostingsDecoded; dec > int64(2*BlockSize) {
		t.Errorf("seek to end decoded %d postings, want <= %d", dec, 2*BlockSize)
	}
	if s.Counters.SkipsTaken == 0 {
		t.Error("no skips recorded")
	}
}

func TestSeekGEMonotoneCalls(t *testing.T) {
	// Repeated seeks with increasing targets (the intersection pattern)
	// must all land correctly.
	s := newStore(t)
	rng := xrand.New(17)
	ps := randomList(rng, 5000)
	meta, _ := s.Put(ps)
	it, err := s.NewIterator(meta)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	step := len(ps) / 37
	for i := 0; i < len(ps); i += step {
		target := ps[i].DocID
		if !it.SeekGE(target) {
			t.Fatalf("monotone seek to %d failed", target)
		}
		if it.At().DocID != target {
			t.Fatalf("monotone seek to %d landed on %d", target, it.At().DocID)
		}
	}
}

func TestIteratorPropertyAgainstDecode(t *testing.T) {
	// Property: for random lists, full iteration == Decode(Encode(list)).
	cfg := &quick.Config{MaxCount: 25}
	rng := xrand.New(23)
	if err := quick.Check(func(seed uint32, size uint16) bool {
		n := int(size)%2000 + 1
		_ = seed
		ps := randomList(rng, n)
		s := newStore(t)
		meta, err := s.Put(ps)
		if err != nil {
			return false
		}
		it, err := s.NewIterator(meta)
		if err != nil {
			return false
		}
		defer it.Close()
		i := 0
		for it.Next() {
			if i >= len(ps) || it.At() != ps[i] {
				return false
			}
			i++
		}
		return i == len(ps) && it.Err() == nil
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCodecProperty is the block codec's property test: for seeded
// random lists — with sizes forced through the interesting boundaries
// (exactly one block, partial blocks, one-past boundaries) — the
// iterator must reproduce Decode(Encode(list)) posting for posting, and
// SeekGE must land exactly where a naive reference search says, from
// both fresh and monotonically advancing iterators.
func TestBlockCodecProperty(t *testing.T) {
	rng := xrand.New(97)
	boundary := []int{1, BlockSize - 1, BlockSize, BlockSize + 1,
		2*BlockSize - 1, 2 * BlockSize, 2*BlockSize + 1}
	cfg := &quick.Config{MaxCount: 40}
	trial := 0
	if err := quick.Check(func(sizeSeed uint16) bool {
		n := int(sizeSeed)%(5*BlockSize) + 1
		if trial < len(boundary) {
			n = boundary[trial]
		}
		trial++
		ps := randomList(rng, n)
		s := newStore(t)
		meta, err := s.Put(ps)
		if err != nil {
			return false
		}
		// Round trip through the standalone decoder.
		body, err := Encode(ps)
		if err != nil {
			return false
		}
		back, err := Decode(body)
		if err != nil || !reflect.DeepEqual(back, ps) {
			return false
		}
		// Iterator equivalence with Decode.
		it, err := s.NewIterator(meta)
		if err != nil {
			return false
		}
		for i := 0; i < len(back); i++ {
			if !it.Next() || it.At() != back[i] {
				it.Close()
				return false
			}
		}
		if it.Next() || it.Err() != nil {
			it.Close()
			return false
		}
		it.Close()
		// SeekGE against the naive reference, fresh iterator per target.
		for k := 0; k < 12; k++ {
			target := uint32(rng.Intn(1 << 22))
			idx := sort.Search(len(ps), func(i int) bool { return ps[i].DocID >= target })
			it, err := s.NewIterator(meta)
			if err != nil {
				return false
			}
			ok := it.SeekGE(target)
			if idx == len(ps) {
				if ok {
					it.Close()
					return false
				}
			} else if !ok || it.At() != ps[idx] {
				it.Close()
				return false
			}
			it.Close()
		}
		// Monotone SeekGE sequence on one iterator.
		it, err = s.NewIterator(meta)
		if err != nil {
			return false
		}
		defer it.Close()
		step := n/7 + 1
		for i := 0; i < n; i += step {
			if !it.SeekGE(ps[i].DocID) || it.At() != ps[i] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockDecode measures the bulk block decode on the hot path:
// one full iterator pass over a long list, ns/posting being the number
// to watch.
func BenchmarkBlockDecode(b *testing.B) {
	s := newStore(b)
	rng := xrand.New(41)
	ps := randomList(rng, 100*BlockSize)
	meta, err := s.Put(ps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.SetBytes(int64(meta.Length))
	for i := 0; i < b.N; i++ {
		it, err := s.NewIterator(meta)
		if err != nil {
			b.Fatal(err)
		}
		var sink uint64
		for it.Next() {
			sink += uint64(it.At().TF)
		}
		it.Close()
		if sink == 0 {
			b.Fatal("empty iteration")
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := xrand.New(1)
	ps := randomList(rng, 10000)
	buf, _ := Encode(ps)
	b.ResetTimer()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeekGEWithSkips(b *testing.B) {
	s := newStore(b)
	n := 200 * BlockSize
	ps := make([]Posting, n)
	for i := range ps {
		ps[i] = Posting{DocID: uint32(i * 2), TF: 1}
	}
	meta, _ := s.Put(ps)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := s.NewIterator(meta)
		it.SeekGE(uint32(rng.Intn(2 * n)))
		it.Close()
	}
}
