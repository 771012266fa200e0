package live

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/storage"
)

// segment is one immutable on-disk segment of the live index, opened
// through its own buffer pool. Segments are shared across generations
// and refcounted by them: release drops one reference, and the last
// release closes the files — and deletes the directory when the segment
// was merged away (dead).
//
// The postings and sidecar files never change after the segment is
// persisted, with one exception: deletions write a new alive-bitmap
// version file next to them and swap the in-memory pointer (alive /
// aliveVer, guarded by the writer mutex). The bitmap value itself is
// immutable — a deletion clones it — so generations that captured an
// older pointer keep their deletion view.
type segment struct {
	seq uint64 // creation sequence; names the directory, unique forever
	// snap is the ordinal of the lexicon snapshot the segment persists:
	// seals increment it at buffer capture, merges inherit the ordinal
	// of the seal snapshot they re-persist. The max-snap segment's
	// lexicon is authoritative on reopen — seq cannot play that role,
	// because a merge can take a higher seq than a concurrently in-
	// flight seal while persisting an older snapshot. Snapshots are
	// purge-agnostic: they count every document ever sealed, and the
	// tombstone ledger subtracts the dead at generation install.
	snap uint64
	name string // directory name under the live dir, e.g. "seg-000007"
	dir  string // absolute directory path
	base uint32 // global id of the segment's first document
	// docs is the segment's document-id span — including tombstoned and
	// purged ids, which stay as holes so surviving documents keep their
	// global ids forever.
	docs int

	// postings/bytes cache the merge planner's cost-model inputs so
	// planning never rescans the meta table under the writer lock.
	postings int64
	bytes    int64

	// lastPoolReads/lastPoolNanos are the high-water marks of the
	// segment pool's physical-read latency counters already fed to the
	// tuner (guarded by the writer mutex; see samplePoolLatencyLocked).
	lastPoolReads int64
	lastPoolNanos int64

	// Deletion state, guarded by the writer mutex. alive is nil when
	// every stored document is alive; aliveVer is the persisted bitmap
	// version the manifest references (0 = none). aliveDocs/aliveTokens
	// are the corpus-statistics contribution of the survivors, and
	// purgeable counts documents that are dead but still physically
	// stored (DocLen > 0) — what a purge rewrite would reclaim.
	alive       *postings.AliveBitmap
	aliveVer    uint64
	aliveDocs   int
	aliveTokens int64
	purgeable   int

	idx *index.Index
	fwd *fwdSidecar
	fd  *storage.FileDisk
	// pool is the segment's private page cache; its retry and fault
	// counters are the segment's read-health account. vdev is the
	// checksum layer under it, primed at open — Reverify's probe.
	pool *storage.Pool
	vdev *storage.VerifiedDevice
	refs atomic.Int32
	dead atomic.Bool // merged away: delete the directory on last release

	// quarantined marks the segment unservable after a data fault:
	// searches skip it (degrading their certificate), the merge planner
	// avoids it, and Reverify returns it to service once a full re-read
	// checks out. qerr holds the fault that tripped it.
	quarantined atomic.Bool
	qerr        atomic.Value
}

// quarantine marks the segment unservable. It reports whether this call
// made the transition, so exactly one caller counts it.
func (s *segment) quarantine(err error) bool {
	if s.quarantined.CompareAndSwap(false, true) {
		s.qerr.Store(err)
		return true
	}
	return false
}

// segmentName formats the directory name for sequence number seq.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%06d", seq) }

// aliveName formats the alive-bitmap sidecar file name for version ver.
func aliveName(ver uint64) string { return fmt.Sprintf("alive-%06d.bm", ver) }

// openSegment opens the persisted segment named name under cfg.Dir with
// a private pool of cfg.PoolPages frames, loading its alive bitmap
// (version tomb; 0 means all stored documents are alive) and forward
// sidecar. The returned segment holds one reference (the opener's).
//
// The device chain under the pool is: the raw segment file, the
// optional cfg.WrapDevice wrapper (the fault-injection seam), and a
// page-checksum layer primed here. The priming pass is trusted because
// index.Open below streams every section through the pool verifying the
// persisted section CRCs — the bytes the priming records are exactly
// the bytes those checksums vouch for. Any later read that disagrees
// with the primed checksum fails as a transient storage.ReadFault: the
// pool's retry absorbs one-off flips, and persistent corruption escapes
// the budget into the quarantine path.
// When bc is non-nil, the opened index reads postings blocks through
// the shared hot-block cache under the segment's sequence number as its
// space tag (unique forever, so a recycled cache entry can never serve
// another segment's bytes).
func openSegment(cfg Config, name string, seq, snap uint64, base uint32, tomb uint64, bc *blockcache.Cache) (*segment, error) {
	dir := filepath.Join(cfg.Dir, name)
	fd, err := storage.OpenFileDisk(index.SegmentPath(dir))
	if err != nil {
		return nil, fmt.Errorf("live: open segment %s: %w", name, err)
	}
	ok := false
	defer func() {
		if !ok {
			if cerr := fd.Close(); cerr != nil {
				cleanupLogf("live: closing segment %s after failed open: %v", name, cerr)
			}
		}
	}()
	var dev storage.Device = fd
	if cfg.WrapDevice != nil {
		dev = cfg.WrapDevice(name, dev)
	}
	vd := storage.NewVerifiedDevice(dev, fd.NumPages())
	if err := vd.Prime(); err != nil {
		return nil, fmt.Errorf("live: open segment %s: %w", name, err)
	}
	pool, err := storage.NewPool(vd, cfg.PoolPages)
	if err != nil {
		return nil, fmt.Errorf("live: open segment %s: %w", name, err)
	}
	idx, err := index.Open(dir, pool)
	if err != nil {
		return nil, fmt.Errorf("live: open segment %s: %w", name, err)
	}
	if bc != nil {
		idx.SetBlockCache(bc, seq)
	}
	fwd, err := openDocTerms(dir, idx.Stats.NumDocs)
	if errors.Is(err, os.ErrNotExist) && tomb == 0 {
		// A segment persisted before the delete path existed has no
		// forward sidecar (and, with no bitmap version, no tombstones
		// whose statistics could depend on one). Upgrade in place: the
		// inverted lists hold exactly the information the sidecar
		// inverts, so one scan rebuilds it and the directory becomes a
		// current-format segment.
		if err = rebuildFwdSidecar(dir, idx); err == nil {
			fwd, err = openDocTerms(dir, idx.Stats.NumDocs)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("live: open segment %s: %w", name, err)
	}
	defer func() {
		if !ok {
			if cerr := fwd.close(); cerr != nil {
				cleanupLogf("live: closing sidecar of segment %s after failed open: %v", name, cerr)
			}
		}
	}()
	s := &segment{
		seq: seq, snap: snap, name: name, dir: dir, base: base,
		docs:     idx.Stats.NumDocs,
		postings: idx.TotalPostings(),
		bytes:    idx.SizeBytes(),
		idx:      idx, fwd: fwd, fd: fd, pool: pool, vdev: vd,
	}
	if tomb > 0 {
		bm, err := index.ReadAlive(filepath.Join(dir, aliveName(tomb)), s.docs)
		if err != nil {
			return nil, fmt.Errorf("live: open segment %s: %w", name, err)
		}
		s.alive = bm
		s.aliveVer = tomb
	}
	s.recountAlive()
	s.refs.Store(1)
	ok = true
	return s, nil
}

// writeSegment is the one way a segment comes to exist on the node that
// created it: persist idx as segment seq under cfg.Dir, write its
// forward sidecar (one blob per local document id) and, when bm is
// non-nil, its first alive-bitmap version, then open the result. The
// directory is not in any manifest yet, so on any failure it is removed
// rather than left as a stale orphan. op ("seal", "merge") names the
// caller in errors and logs.
func writeSegment(cfg Config, op string, idx *index.Index, blobs [][]byte, bm *postings.AliveBitmap, seq, snap uint64, base uint32, bc *blockcache.Cache) (_ *segment, err error) {
	// The new segment is served through a pool sized by the tuner (fault
	// pressure earns more frames, within bounds; a nil tuner returns the
	// base).
	if v := cfg.Tune.PoolPages(cfg.PoolPages); v >= 8 {
		cfg.PoolPages = v
	}
	name := segmentName(seq)
	dir := filepath.Join(cfg.Dir, name)
	defer func() {
		if err == nil {
			return
		}
		if rerr := os.RemoveAll(dir); rerr != nil {
			cleanupLogf("live: removing abandoned %s output %s: %v (reopen GC will retry)", op, dir, rerr)
		}
	}()
	if err := idx.Persist(dir); err != nil {
		return nil, fmt.Errorf("live: %s: %w", op, err)
	}
	if err := writeDocTerms(dir, blobs); err != nil {
		return nil, err
	}
	var tomb uint64
	if bm != nil {
		tomb = 1
		if err := index.WriteAlive(filepath.Join(dir, aliveName(tomb)), bm); err != nil {
			return nil, err
		}
	}
	return openSegment(cfg, name, seq, snap, base, tomb, bc)
}

// recountAlive derives aliveDocs/aliveTokens/purgeable from the current
// bitmap and the document lengths. A zero document length marks a hole
// (purged, or deleted while still buffered) whose postings no longer
// exist; a dead document with a positive length still stores postings
// and is purgeable. Callers hold the writer mutex.
func (s *segment) recountAlive() {
	s.aliveDocs, s.aliveTokens, s.purgeable = 0, 0, 0
	for id, dl := range s.idx.Stats.DocLens {
		if s.alive == nil || s.alive.Alive(uint32(id)) {
			s.aliveDocs++
			s.aliveTokens += int64(dl)
		} else if dl > 0 {
			s.purgeable++
		}
	}
}

// acquire takes one reference.
func (s *segment) acquire() { s.refs.Add(1) }

// release drops one reference; the last reference closes the backing
// files and, for merged-away segments, deletes the directory. Failures
// here are best-effort — a failed delete leaves a stale directory that
// the next Open garbage-collects — but they are logged, not swallowed:
// a close or unlink erroring is a disk telling on itself.
func (s *segment) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	if err := s.fwd.close(); err != nil {
		cleanupLogf("live: closing sidecar of segment %s: %v", s.name, err)
	}
	if err := s.fd.Close(); err != nil {
		cleanupLogf("live: closing segment %s: %v", s.name, err)
	}
	if s.dead.Load() {
		if err := os.RemoveAll(s.dir); err != nil {
			cleanupLogf("live: deleting merged-away segment %s: %v (reopen GC will retry)", s.dir, err)
		}
	}
}

// generation is one immutable searchable state: the segment chain at a
// commit point, the frozen lexicon snapshot (tombstone ledger already
// subtracted, so it covers exactly the alive documents), the corpus
// statistics over those documents, the per-segment deletion views
// captured at install, and one MaxScore engine per segment ranking with
// all of it. Searches acquire a generation, evaluate, and release; the
// writer holds one reference for as long as the generation is current.
type generation struct {
	id      uint64
	lex     *lexicon.Lexicon
	corpus  rank.CorpusStat
	segs    []*segment
	engines []*core.MaxScoreEngine
	// order lists the segment indexes largest first (by postings): the
	// order a query searches them in, so its threshold rises early.
	order []int
	refs  atomic.Int64
}

// newGeneration assembles a generation over segs, acquiring one segment
// reference each and building the per-segment engines against the
// frozen lexicon, corpus, and each segment's current alive bitmap (the
// capture that makes a deletion committed after install invisible to
// this generation's searches). On error the acquired references are
// returned.
func newGeneration(id uint64, lex *lexicon.Lexicon, corpus rank.CorpusStat, segs []*segment, scorer rank.Scorer) (*generation, error) {
	g := &generation{id: id, lex: lex, corpus: corpus, segs: segs}
	g.refs.Store(1)
	for i, s := range segs {
		view, err := s.idx.WithLexicon(lex)
		if err == nil {
			view, err = view.WithAlive(s.alive)
		}
		if err == nil {
			var e *core.MaxScoreEngine
			e, err = core.NewMaxScoreWithCorpus(view, scorer, corpus)
			g.engines = append(g.engines, e)
		}
		if err != nil {
			for _, held := range segs[:i] {
				held.release()
			}
			return nil, fmt.Errorf("live: generation %d segment %s: %w", id, s.name, err)
		}
		s.acquire()
		g.order = append(g.order, i)
	}
	slices.SortStableFunc(g.order, func(a, b int) int { return cmp.Compare(segs[b].postings, segs[a].postings) })
	return g, nil
}

// release drops one reference; the last reference releases every
// segment.
func (g *generation) release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	for _, s := range g.segs {
		s.release()
	}
}
