// On-disk segment format and lifecycle. A segment is one file laid out
// in storage.PageSize pages so a buffer pool can serve it page by page:
//
//	page 0:            superblock — magic, version, page size, index
//	                   flavor (plain / fragmented / multi), fragmentation
//	                   parameters, and the section directory (kind,
//	                   fragment, start page, byte length, CRC-32 per
//	                   section), closed by a CRC-32 of the superblock
//	                   bytes themselves
//	pages 1..:         sections, each starting on a page boundary and
//	                   zero-padded to one:
//	                     LEXICON    term strings + per-term statistics
//	                     STATS      corpus statistics + document lengths
//	                     per fragment, in chain order:
//	                       META       per-term list metadata — body
//	                                  offset/length, document frequency,
//	                                  list max TF, and the full block skip
//	                                  index (first/last doc, offset,
//	                                  count, block max TF)
//	                     POSTINGS   the fragment's encoded block-max
//	                                postings bodies, byte-for-byte as the
//	                                build-time store laid them out
//
// Persist writes the segment atomically (temp file + rename, fsync'd).
// Open replays the metadata sections into memory, verifies every
// section's checksum — any flipped bit or truncation fails Open with a
// clear error instead of surfacing as garbage results — and serves the
// postings sections lazily through the caller's buffer pool: iterators
// fault individual blocks in via postings.PagedSource, so the pool
// capacity, not the index size, bounds resident memory. Integer fields
// are uvarint-coded in sections and fixed-width little-endian in the
// superblock.
package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lexicon"
	"repro/internal/postings"
	"repro/internal/storage"
)

// SegmentFile is the name of the segment file inside a segment directory.
const SegmentFile = "segment.topn"

// SegmentPath returns the path of the segment file under dir.
func SegmentPath(dir string) string { return filepath.Join(dir, SegmentFile) }

const (
	segVersion = 1

	flavorPlain      = 1
	flavorFragmented = 2
	flavorMulti      = 3

	secLexicon  = 1
	secStats    = 2
	secMeta     = 3
	secPostings = 4
	// secFragMap persists MultiFragmented's term→fragment assignment. It
	// is not derivable from the meta sections: a sharded build assigns
	// every globally occurring term a fragment even when the shard's
	// document range never materializes a list for it, and engines rely
	// on that assignment (multi flavor only).
	secFragMap = 5
)

var segMagic = [8]byte{'T', 'O', 'P', 'N', 'S', 'E', 'G', '1'}

// section is one directory entry of the superblock.
type section struct {
	kind      uint32
	frag      uint32 // fragment ordinal for META/POSTINGS; 0 otherwise
	startPage storage.PageID
	length    int64
	crc       uint32
}

// superblock is the parsed page-0 header.
type superblock struct {
	flavor      uint32
	dfThreshold int32
	boundaryID  uint32
	numFrags    int
	sections    []section
}

// pagesFor returns how many pages n bytes occupy once zero-padded.
func pagesFor(n int64) int64 {
	return (n + storage.PageSize - 1) / storage.PageSize
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

// segWriter appends page-aligned sections to a segment file whose first
// page is reserved for the superblock.
type segWriter struct {
	f        *os.File
	nextPage int64 // 0-based page index of the next section start
	sections []section
}

// addSection streams length bytes from r into the file as one section,
// computing its checksum and padding to a page boundary.
func (w *segWriter) addSection(kind, frag uint32, r io.Reader, length int64) error {
	crc := crc32.NewIEEE()
	n, err := io.Copy(w.f, io.TeeReader(io.LimitReader(r, length), crc))
	if err != nil {
		return fmt.Errorf("index: write section: %w", err)
	}
	if n != length {
		return fmt.Errorf("index: section produced %d bytes, expected %d", n, length)
	}
	if pad := length % storage.PageSize; pad != 0 {
		if _, err := w.f.Write(make([]byte, storage.PageSize-pad)); err != nil {
			return fmt.Errorf("index: pad section: %w", err)
		}
	}
	w.sections = append(w.sections, section{
		kind:      kind,
		frag:      frag,
		startPage: storage.PageID(w.nextPage + 1), // page ids are 1-based
		length:    length,
		crc:       crc.Sum32(),
	})
	w.nextPage += pagesFor(length)
	return nil
}

// addBytes writes an in-memory section payload.
func (w *segWriter) addBytes(kind, frag uint32, payload []byte) error {
	return w.addSection(kind, frag, bytes.NewReader(payload), int64(len(payload)))
}

// encodeSuperblock serializes the superblock into one page.
func encodeSuperblock(sb superblock, sections []section) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(segMagic[:])
	for _, v := range []uint32{
		segVersion,
		storage.PageSize,
		sb.flavor,
		uint32(sb.dfThreshold),
		sb.boundaryID,
		uint32(sb.numFrags),
		uint32(len(sections)),
	} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	for _, s := range sections {
		for _, v := range []uint32{s.kind, s.frag, uint32(s.startPage)} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				return nil, err
			}
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint64(s.length)); err != nil {
			return nil, err
		}
		if err := binary.Write(&buf, binary.LittleEndian, s.crc); err != nil {
			return nil, err
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes())); err != nil {
		return nil, err
	}
	if buf.Len() > storage.PageSize {
		return nil, fmt.Errorf("index: superblock needs %d bytes, exceeds one %d-byte page (too many fragments)",
			buf.Len(), storage.PageSize)
	}
	page := make([]byte, storage.PageSize)
	copy(page, buf.Bytes())
	return page, nil
}

// fragPayload is one fragment's persistable content: its term metadata in
// ascending term order and the store holding the encoded bodies.
type fragPayload struct {
	terms []lexicon.TermID
	metas []postings.ListMeta
	store *postings.Store
}

// persistSegment writes a whole segment atomically into dir. fragMap is
// the encoded term→fragment assignment (multi flavor only; nil to omit).
func persistSegment(dir string, sb superblock, lex *lexicon.Lexicon, stats *Stats, frags []fragPayload, fragMap []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("index: persist: %w", err)
	}
	tmp := SegmentPath(dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: persist: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	// Reserve page 0 for the superblock.
	if _, err := f.Write(make([]byte, storage.PageSize)); err != nil {
		return fmt.Errorf("index: persist: %w", err)
	}
	w := &segWriter{f: f, nextPage: 1}

	if err := w.addBytes(secLexicon, 0, encodeLexicon(lex)); err != nil {
		return err
	}
	if err := w.addBytes(secStats, 0, encodeStats(stats)); err != nil {
		return err
	}
	if fragMap != nil {
		if err := w.addBytes(secFragMap, 0, fragMap); err != nil {
			return err
		}
	}
	for i, fp := range frags {
		if fp.store.Paged() {
			return fmt.Errorf("index: persist: fragment %d is already disk-backed", i)
		}
		if err := w.addBytes(secMeta, uint32(i), encodeMetas(fp.terms, fp.metas)); err != nil {
			return err
		}
		size := fp.store.Size()
		if err := w.addSection(secPostings, uint32(i), fp.store.File().Reader(0, -1), size); err != nil {
			return err
		}
	}

	sbPage, err := encodeSuperblock(sb, w.sections)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(sbPage, 0); err != nil {
		return fmt.Errorf("index: persist superblock: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("index: persist sync: %w", err)
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return fmt.Errorf("index: persist close: %w", err)
	}
	f = nil
	if err := os.Rename(tmp, SegmentPath(dir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: persist rename: %w", err)
	}
	return nil
}

// putU appends a 64-bit uvarint.
func putU(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// encodeLexicon serializes the term dictionary with its statistics.
func encodeLexicon(lex *lexicon.Lexicon) []byte {
	buf := putU(nil, uint64(lex.Size()))
	for id := 0; id < lex.Size(); id++ {
		name := lex.Name(lexicon.TermID(id))
		st := lex.Stats(lexicon.TermID(id))
		buf = putU(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = putU(buf, uint64(st.DocFreq))
		buf = putU(buf, uint64(st.CollFreq))
	}
	return buf
}

// encodeStats serializes the corpus statistics and document lengths.
func encodeStats(s *Stats) []byte {
	buf := putU(nil, uint64(s.NumDocs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.AvgDocLen))
	buf = putU(buf, uint64(s.TotalTokens))
	buf = putU(buf, uint64(len(s.DocLens)))
	for _, dl := range s.DocLens {
		buf = putU(buf, uint64(dl))
	}
	return buf
}

// encodeMetas serializes one fragment's per-term list metadata, skip
// index included, in ascending term order (the caller guarantees terms
// is sorted — determinism of the on-disk bytes depends on it).
func encodeMetas(terms []lexicon.TermID, metas []postings.ListMeta) []byte {
	buf := putU(nil, uint64(len(terms)))
	for i, t := range terms {
		m := metas[i]
		buf = putU(buf, uint64(t))
		buf = putU(buf, uint64(m.Offset))
		buf = putU(buf, uint64(m.Length))
		buf = putU(buf, uint64(m.DocFreq))
		buf = putU(buf, uint64(m.MaxTF))
		buf = putU(buf, uint64(len(m.Skips)))
		for _, sk := range m.Skips {
			buf = putU(buf, uint64(sk.FirstDoc))
			buf = putU(buf, uint64(sk.LastDoc))
			buf = putU(buf, uint64(sk.Offset))
			buf = putU(buf, uint64(sk.Count))
			buf = putU(buf, uint64(sk.MaxTF))
		}
	}
	return buf
}

// Persist writes the unfragmented index as a segment into dir.
func (ix *Index) Persist(dir string) error {
	terms, metas := packMetaSlice(ix.metas)
	return persistSegment(dir,
		superblock{flavor: flavorPlain, numFrags: 1},
		ix.Lex, &ix.Stats,
		[]fragPayload{{terms: terms, metas: metas, store: ix.store}}, nil)
}

// Persist writes the two-fragment index as a segment into dir. The
// fragmentation predicate (DF threshold, boundary id) rides along in the
// superblock, so the reopened index answers Coverage and FragmentOf
// exactly as the built one.
func (fx *Fragmented) Persist(dir string) error {
	small := packMetaMap(fx.Small.metas)
	large := packMetaMap(fx.Large.metas)
	return persistSegment(dir,
		superblock{
			flavor:      flavorFragmented,
			dfThreshold: fx.DFThreshold,
			boundaryID:  uint32(fx.BoundaryID),
			numFrags:    2,
		},
		fx.Lex, &fx.Stats,
		[]fragPayload{
			{terms: small.terms, metas: small.metas, store: fx.Small.store},
			{terms: large.terms, metas: large.metas, store: fx.Large.store},
		}, nil)
}

// Persist writes the fragment chain as a segment into dir, one
// META/POSTINGS section pair per chain link in rarest-first order, plus
// the term→fragment assignment map.
func (mx *MultiFragmented) Persist(dir string) error {
	frags := make([]fragPayload, len(mx.Fragments))
	for i, f := range mx.Fragments {
		p := packMetaMap(f.metas)
		frags[i] = fragPayload{terms: p.terms, metas: p.metas, store: f.store}
	}
	return persistSegment(dir,
		superblock{flavor: flavorMulti, numFrags: len(mx.Fragments)},
		mx.Lex, &mx.Stats, frags, encodeFragMap(mx.fragOf))
}

// encodeFragMap serializes the term→fragment assignment, shifting by one
// so -1 (unassigned) encodes as 0.
func encodeFragMap(fragOf []int8) []byte {
	buf := putU(nil, uint64(len(fragOf)))
	for _, fi := range fragOf {
		buf = putU(buf, uint64(fi+1))
	}
	return buf
}

// decodeFragMap is the inverse of encodeFragMap.
func decodeFragMap(payload []byte, lexSize, numFrags int) ([]int8, error) {
	r := &segReader{b: payload}
	n, err := r.u()
	if err != nil {
		return nil, err
	}
	if n != uint64(lexSize) {
		return nil, fmt.Errorf("index: fragment map covers %d terms, lexicon has %d: corrupt segment", n, lexSize)
	}
	out := make([]int8, lexSize)
	for i := range out {
		v, err := r.u()
		if err != nil {
			return nil, err
		}
		if v > uint64(numFrags) {
			return nil, fmt.Errorf("index: term %d assigned to fragment %d of %d: corrupt segment", i, int64(v)-1, numFrags)
		}
		out[i] = int8(int64(v) - 1)
	}
	return out, nil
}

// packMetaSlice extracts the non-empty lists of a term-indexed meta
// slice, ascending by construction.
func packMetaSlice(all []postings.ListMeta) ([]lexicon.TermID, []postings.ListMeta) {
	var terms []lexicon.TermID
	var metas []postings.ListMeta
	for id, m := range all {
		if m.DocFreq > 0 {
			terms = append(terms, lexicon.TermID(id))
			metas = append(metas, m)
		}
	}
	return terms, metas
}

type packedMetas struct {
	terms []lexicon.TermID
	metas []postings.ListMeta
}

// packMetaMap sorts a fragment's meta map into ascending term order.
func packMetaMap(m map[lexicon.TermID]postings.ListMeta) packedMetas {
	terms := make([]lexicon.TermID, 0, len(m))
	for t := range m {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
	metas := make([]postings.ListMeta, len(terms))
	for i, t := range terms {
		metas[i] = m[t]
	}
	return packedMetas{terms: terms, metas: metas}
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

// OpenPool opens dir's segment file as a read-only page device with a
// buffer pool of poolPages frames over it — the working set a reopened
// index is allowed to keep resident. The caller owns both: close the
// FileDisk when done with every index opened over the pool.
func OpenPool(dir string, poolPages int) (*storage.Pool, *storage.FileDisk, error) {
	fd, err := storage.OpenFileDisk(SegmentPath(dir))
	if err != nil {
		return nil, nil, err
	}
	pool, err := storage.NewPool(fd, poolPages)
	if err != nil {
		fd.Close()
		return nil, nil, err
	}
	return pool, fd, nil
}

// fetchPage copies one page through the pool.
func fetchPage(pool *storage.Pool, id storage.PageID, buf *[storage.PageSize]byte) error {
	pg, err := pool.Fetch(id)
	if err != nil {
		return err
	}
	*buf = *pg.Data()
	return pool.Unpin(pg, false)
}

// readSuperblock fetches and validates page 0.
func readSuperblock(pool *storage.Pool) (superblock, error) {
	var page [storage.PageSize]byte
	if err := fetchPage(pool, 1, &page); err != nil {
		return superblock{}, fmt.Errorf("index: read superblock: %w", err)
	}
	if !bytes.Equal(page[:8], segMagic[:]) {
		return superblock{}, fmt.Errorf("index: bad magic %q: not a topn segment", page[:8])
	}
	r := bytes.NewReader(page[8:])
	var fixed [7]uint32
	for i := range fixed {
		if err := binary.Read(r, binary.LittleEndian, &fixed[i]); err != nil {
			return superblock{}, fmt.Errorf("index: truncated superblock: %w", err)
		}
	}
	version, pageSize := fixed[0], fixed[1]
	if version != segVersion {
		return superblock{}, fmt.Errorf("index: segment version %d, this build reads version %d", version, segVersion)
	}
	if pageSize != storage.PageSize {
		return superblock{}, fmt.Errorf("index: segment page size %d, this build uses %d", pageSize, storage.PageSize)
	}
	sb := superblock{
		flavor:      fixed[2],
		dfThreshold: int32(fixed[3]),
		boundaryID:  fixed[4],
		numFrags:    int(fixed[5]),
	}
	count := int(fixed[6])
	if count < 2 || count > (storage.PageSize-44)/24 {
		return superblock{}, fmt.Errorf("index: implausible section count %d: corrupt superblock", count)
	}
	for i := 0; i < count; i++ {
		var kind, frag, start uint32
		var length uint64
		var crc uint32
		for _, dst := range []interface{}{&kind, &frag, &start, &length, &crc} {
			if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
				return superblock{}, fmt.Errorf("index: truncated section directory: %w", err)
			}
		}
		sb.sections = append(sb.sections, section{
			kind:      kind,
			frag:      frag,
			startPage: storage.PageID(start),
			length:    int64(length),
			crc:       crc,
		})
	}
	used := int64(len(page)) - int64(r.Len())
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return superblock{}, fmt.Errorf("index: truncated superblock checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(page[:used]); got != stored {
		return superblock{}, fmt.Errorf("index: superblock checksum mismatch (%08x != %08x): corrupt segment", got, stored)
	}
	return sb, nil
}

// readSection materializes one section's bytes through the pool and
// verifies its checksum.
func readSection(pool *storage.Pool, s section) ([]byte, error) {
	out := make([]byte, s.length)
	var page [storage.PageSize]byte
	for i := int64(0); i < pagesFor(s.length); i++ {
		if err := fetchPage(pool, s.startPage+storage.PageID(i), &page); err != nil {
			return nil, fmt.Errorf("index: section page %d: %w", s.startPage+storage.PageID(i), err)
		}
		copy(out[i*storage.PageSize:], page[:])
	}
	if got := crc32.ChecksumIEEE(out); got != s.crc {
		return nil, fmt.Errorf("index: section checksum mismatch (%08x != %08x): corrupt segment", got, s.crc)
	}
	return out, nil
}

// verifySection streams a section through the pool checking its checksum
// without materializing it — used for postings sections, which stay
// disk-resident after Open.
func verifySection(pool *storage.Pool, s section) error {
	crc := crc32.NewIEEE()
	var page [storage.PageSize]byte
	remaining := s.length
	for i := int64(0); remaining > 0; i++ {
		if err := fetchPage(pool, s.startPage+storage.PageID(i), &page); err != nil {
			return fmt.Errorf("index: section page %d: %w", s.startPage+storage.PageID(i), err)
		}
		n := int64(storage.PageSize)
		if n > remaining {
			n = remaining
		}
		crc.Write(page[:n])
		remaining -= n
	}
	if got := crc.Sum32(); got != s.crc {
		return fmt.Errorf("index: postings section checksum mismatch (%08x != %08x): corrupt segment", got, s.crc)
	}
	return nil
}

// segReader decodes uvarint-coded section payloads.
type segReader struct {
	b   []byte
	pos int
}

func (r *segReader) u() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("index: truncated section payload at byte %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *segReader) take(n int) ([]byte, error) {
	if n < 0 || r.pos > len(r.b)-n {
		return nil, fmt.Errorf("index: truncated section payload at byte %d", r.pos)
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// decodeLexicon is the inverse of encodeLexicon.
func decodeLexicon(payload []byte) (*lexicon.Lexicon, error) {
	r := &segReader{b: payload}
	n, err := r.u()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("index: lexicon claims %d terms in %d bytes: corrupt segment", n, len(payload))
	}
	names := make([]string, n)
	stats := make([]lexicon.Stats, n)
	for i := range names {
		nl, err := r.u()
		if err != nil {
			return nil, err
		}
		nb, err := r.take(int(nl))
		if err != nil {
			return nil, err
		}
		names[i] = string(nb)
		df, err := r.u()
		if err != nil {
			return nil, err
		}
		cf, err := r.u()
		if err != nil {
			return nil, err
		}
		stats[i] = lexicon.Stats{DocFreq: int32(df), CollFreq: int64(cf)}
	}
	return lexicon.Restore(names, stats)
}

// decodeStats is the inverse of encodeStats.
func decodeStats(payload []byte) (Stats, error) {
	r := &segReader{b: payload}
	var s Stats
	nd, err := r.u()
	if err != nil {
		return s, err
	}
	s.NumDocs = int(nd)
	ab, err := r.take(8)
	if err != nil {
		return s, err
	}
	s.AvgDocLen = math.Float64frombits(binary.LittleEndian.Uint64(ab))
	tt, err := r.u()
	if err != nil {
		return s, err
	}
	s.TotalTokens = int64(tt)
	n, err := r.u()
	if err != nil {
		return s, err
	}
	if n > uint64(len(payload)) {
		return s, fmt.Errorf("index: stats claim %d doc lengths in %d bytes: corrupt segment", n, len(payload))
	}
	s.DocLens = make([]int32, n)
	for i := range s.DocLens {
		dl, err := r.u()
		if err != nil {
			return s, err
		}
		s.DocLens[i] = int32(dl)
	}
	return s, nil
}

// decodeMetas is the inverse of encodeMetas. bodySize is the fragment's
// postings-section length, used to reject metadata pointing outside it.
func decodeMetas(payload []byte, lexSize int, bodySize int64) (packedMetas, error) {
	r := &segReader{b: payload}
	var p packedMetas
	n, err := r.u()
	if err != nil {
		return p, err
	}
	if n > uint64(len(payload)) {
		return p, fmt.Errorf("index: meta section claims %d lists in %d bytes: corrupt segment", n, len(payload))
	}
	p.terms = make([]lexicon.TermID, 0, n)
	p.metas = make([]postings.ListMeta, 0, n)
	prevTerm := int64(-1)
	for i := uint64(0); i < n; i++ {
		vals := make([]uint64, 6)
		for j := range vals {
			if vals[j], err = r.u(); err != nil {
				return p, err
			}
		}
		term, off, length, df, maxTF, numSkips := vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
		if int64(term) <= prevTerm || term >= uint64(lexSize) {
			return p, fmt.Errorf("index: meta term id %d out of order or range: corrupt segment", term)
		}
		prevTerm = int64(term)
		if int64(off) > bodySize-int64(length) {
			return p, fmt.Errorf("index: term %d body [%d,+%d) outside %d-byte postings section: corrupt segment",
				term, off, length, bodySize)
		}
		m := postings.ListMeta{
			Offset:  int64(off),
			Length:  int32(length),
			DocFreq: int32(df),
			MaxTF:   uint32(maxTF),
		}
		if numSkips > uint64(len(payload)) {
			return p, fmt.Errorf("index: term %d claims %d blocks in %d bytes: corrupt segment", term, numSkips, len(payload))
		}
		m.Skips = make([]postings.SkipEntry, numSkips)
		for k := range m.Skips {
			sv := make([]uint64, 5)
			for j := range sv {
				if sv[j], err = r.u(); err != nil {
					return p, err
				}
			}
			m.Skips[k] = postings.SkipEntry{
				FirstDoc: uint32(sv[0]),
				LastDoc:  uint32(sv[1]),
				Offset:   uint32(sv[2]),
				Count:    int32(sv[3]),
				MaxTF:    uint32(sv[4]),
			}
		}
		p.terms = append(p.terms, lexicon.TermID(term))
		p.metas = append(p.metas, m)
	}
	return p, nil
}

// openedSegment bundles everything the flavor-specific Open functions
// assemble their index from.
type openedSegment struct {
	sb      superblock
	lex     *lexicon.Lexicon
	stats   Stats
	frags   []openedFrag
	fragMap []int8 // multi flavor only
}

type openedFrag struct {
	packed packedMetas
	store  *postings.Store
}

// openSegment reads and verifies a whole segment through pool: metadata
// sections are materialized, postings sections are checksum-verified in
// a streaming pass and then served lazily via paged stores.
func openSegment(dir string, pool *storage.Pool) (*openedSegment, error) {
	if pool == nil {
		return nil, fmt.Errorf("index: open %s: nil pool (open one with index.OpenPool)", dir)
	}
	sb, err := readSuperblock(pool)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	// Section extents come off the disk: bound them by the file before any
	// is used to size an allocation or a page walk. (The superblock CRC
	// only says the writer wrote them, not that they are sane.)
	fi, err := os.Stat(SegmentPath(dir))
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	filePages := fi.Size() / storage.PageSize
	for _, s := range sb.sections {
		if s.length < 0 || s.length > fi.Size() || s.startPage < 2 ||
			int64(s.startPage)-1+pagesFor(s.length) > filePages {
			return nil, fmt.Errorf("index: open %s: section kind %d (start page %d, %d bytes) lies outside the %d-page segment file: corrupt segment",
				dir, s.kind, s.startPage, uint64(s.length), filePages)
		}
	}
	var lexSec, statsSec, fragMapSec *section
	metaSecs := make(map[uint32]*section)
	postSecs := make(map[uint32]*section)
	for i := range sb.sections {
		s := &sb.sections[i]
		switch s.kind {
		case secLexicon:
			lexSec = s
		case secStats:
			statsSec = s
		case secFragMap:
			fragMapSec = s
		case secMeta:
			metaSecs[s.frag] = s
		case secPostings:
			postSecs[s.frag] = s
		default:
			return nil, fmt.Errorf("index: open %s: unknown section kind %d: corrupt segment", dir, s.kind)
		}
	}
	if lexSec == nil || statsSec == nil {
		return nil, fmt.Errorf("index: open %s: missing lexicon or stats section: corrupt segment", dir)
	}
	if sb.numFrags < 1 || len(metaSecs) != sb.numFrags || len(postSecs) != sb.numFrags {
		return nil, fmt.Errorf("index: open %s: %d fragments but %d meta / %d postings sections: corrupt segment",
			dir, sb.numFrags, len(metaSecs), len(postSecs))
	}

	lexBytes, err := readSection(pool, *lexSec)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: lexicon: %w", dir, err)
	}
	lex, err := decodeLexicon(lexBytes)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: lexicon: %w", dir, err)
	}
	statsBytes, err := readSection(pool, *statsSec)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: stats: %w", dir, err)
	}
	stats, err := decodeStats(statsBytes)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: stats: %w", dir, err)
	}

	out := &openedSegment{sb: sb, lex: lex, stats: stats}
	if sb.flavor == flavorMulti {
		if fragMapSec == nil {
			return nil, fmt.Errorf("index: open %s: fragment chain lacks its term→fragment map: corrupt segment", dir)
		}
		fmBytes, err := readSection(pool, *fragMapSec)
		if err != nil {
			return nil, fmt.Errorf("index: open %s: fragment map: %w", dir, err)
		}
		if out.fragMap, err = decodeFragMap(fmBytes, lex.Size(), sb.numFrags); err != nil {
			return nil, fmt.Errorf("index: open %s: fragment map: %w", dir, err)
		}
	}
	for i := 0; i < sb.numFrags; i++ {
		ms, ok1 := metaSecs[uint32(i)]
		ps, ok2 := postSecs[uint32(i)]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("index: open %s: fragment %d sections missing: corrupt segment", dir, i)
		}
		metaBytes, err := readSection(pool, *ms)
		if err != nil {
			return nil, fmt.Errorf("index: open %s: fragment %d meta: %w", dir, i, err)
		}
		packed, err := decodeMetas(metaBytes, lex.Size(), ps.length)
		if err != nil {
			return nil, fmt.Errorf("index: open %s: fragment %d meta: %w", dir, i, err)
		}
		if err := verifySection(pool, *ps); err != nil {
			return nil, fmt.Errorf("index: open %s: fragment %d postings: %w", dir, i, err)
		}
		store, err := postings.NewPagedStore(pool, ps.startPage, ps.length)
		if err != nil {
			return nil, fmt.Errorf("index: open %s: fragment %d: %w", dir, i, err)
		}
		out.frags = append(out.frags, openedFrag{packed: packed, store: store})
	}
	return out, nil
}

// Open reopens an unfragmented index persisted with (*Index).Persist.
// The pool must come from index.OpenPool (or an equivalent FileDisk over
// the segment file): postings stay disk-resident and are faulted in
// block by block through it, so the pool capacity bounds the index's
// resident working set. The returned Index serves every engine exactly
// like its built counterpart — byte-identical results, the same
// decode/skip accounting, plus block-fault and pool hit/miss counters.
func Open(dir string, pool *storage.Pool) (*Index, error) {
	seg, err := openSegment(dir, pool)
	if err != nil {
		return nil, err
	}
	if seg.sb.flavor != flavorPlain {
		return nil, fmt.Errorf("index: open %s: segment holds flavor %d, want an unfragmented index (use OpenFragmented/OpenMulti)",
			dir, seg.sb.flavor)
	}
	ix := &Index{
		Lex:   seg.lex,
		Stats: seg.stats,
		store: seg.frags[0].store,
		metas: make([]postings.ListMeta, seg.lex.Size()),
	}
	for i, t := range seg.frags[0].packed.terms {
		ix.metas[t] = seg.frags[0].packed.metas[i]
	}
	return ix, nil
}

// OpenFragmented reopens a two-fragment index persisted with
// (*Fragmented).Persist. See Open for the pool contract.
func OpenFragmented(dir string, pool *storage.Pool) (*Fragmented, error) {
	seg, err := openSegment(dir, pool)
	if err != nil {
		return nil, err
	}
	if seg.sb.flavor != flavorFragmented || len(seg.frags) != 2 {
		return nil, fmt.Errorf("index: open %s: segment does not hold a two-fragment index (flavor %d, %d fragments)",
			dir, seg.sb.flavor, len(seg.frags))
	}
	fx := &Fragmented{
		Lex:         seg.lex,
		Stats:       seg.stats,
		DFThreshold: seg.sb.dfThreshold,
		BoundaryID:  lexicon.TermID(seg.sb.boundaryID),
	}
	fx.Small = restoreFragment(seg.frags[0])
	fx.Large = restoreFragment(seg.frags[1])
	return fx, nil
}

// OpenMulti reopens a fragment chain persisted with
// (*MultiFragmented).Persist. See Open for the pool contract.
func OpenMulti(dir string, pool *storage.Pool) (*MultiFragmented, error) {
	seg, err := openSegment(dir, pool)
	if err != nil {
		return nil, err
	}
	if seg.sb.flavor != flavorMulti {
		return nil, fmt.Errorf("index: open %s: segment does not hold a fragment chain (flavor %d)", dir, seg.sb.flavor)
	}
	mx := &MultiFragmented{
		Lex:    seg.lex,
		Stats:  seg.stats,
		fragOf: seg.fragMap,
	}
	for fi, of := range seg.frags {
		f := restoreFragment(of)
		mx.Fragments = append(mx.Fragments, f)
		// Every materialized list must agree with the persisted map.
		for _, t := range of.packed.terms {
			if mx.fragOf[t] != int8(fi) {
				return nil, fmt.Errorf("index: open %s: term %d materialized in fragment %d but mapped to %d: corrupt segment",
					dir, t, fi, mx.fragOf[t])
			}
		}
	}
	return mx, nil
}

// restoreFragment rebuilds a Fragment over a paged store.
func restoreFragment(of openedFrag) *Fragment {
	f := &Fragment{
		store: of.store,
		metas: make(map[lexicon.TermID]postings.ListMeta, len(of.packed.terms)),
	}
	for i, t := range of.packed.terms {
		f.metas[t] = of.packed.metas[i]
		f.postings += int64(of.packed.metas[i].DocFreq)
	}
	return f
}
