package live

import (
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/blockcache"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/postings"
)

// This file is the replication seam of the live index: the exported
// manifest view a leader publishes, and the follower-side install path
// that turns a directory of pulled segments into a searchable
// generation through the exact commit protocol the writer itself uses
// (validate → atomic manifest swap → generation install → deferred
// release of dropped segments).
//
// A follower (Config.Follower) is a read-only writer: Add, Flush,
// Delete, Update, and MergeAll fail with ErrReadOnly, no background
// seal or merge runs, and the only state transition is ApplyManifest —
// which adopts the leader's generation ordinals wholesale, so "is the
// follower caught up" is a single integer comparison between two
// /metrics scrapes.

// ErrReadOnly is returned by mutating operations on a follower-mode
// writer. Followers change state only through ApplyManifest.
var ErrReadOnly = fmt.Errorf("live: writer is in follower mode (read-only)")

// SegmentDirName formats the directory name of segment sequence seq —
// the name replication peers address segments by.
func SegmentDirName(seq uint64) string { return segmentName(seq) }

// AliveFileName formats the alive-bitmap sidecar file name for bitmap
// version ver (ver > 0; version 0 means no bitmap exists).
func AliveFileName(ver uint64) string { return aliveName(ver) }

// Manifest returns the currently committed manifest.
func (w *Writer) Manifest() Manifest {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.manifestLocked()
}

func (w *Writer) manifestLocked() Manifest {
	m := Manifest{Version: 1, Generation: w.genID, NextSeq: w.seq}
	for _, s := range w.segs {
		m.Segments = append(m.Segments, SegmentInfo{
			Name: s.name, Seq: s.seq, Snap: s.snap, Base: s.base, Docs: s.docs,
			Alive: s.aliveDocs, Tomb: s.aliveVer,
		})
	}
	return m
}

// AcquireManifest returns the committed manifest together with a
// snapshot pinning exactly that state, taken in one critical section.
// A leader serving segment files to followers must hold such a snapshot
// while reading: it keeps every listed segment's files on disk even if
// a merge retires them mid-transfer. Close the snapshot when done.
func (w *Writer) AcquireManifest() (Manifest, *Snapshot, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap, err := w.snapshotLocked()
	if err != nil {
		return Manifest{}, nil, err
	}
	return w.manifestLocked(), snap, nil
}

// ReadOnly reports whether the writer is in follower mode.
func (w *Writer) ReadOnly() bool { return w.cfg.Follower }

// Dir returns the index directory the writer serves.
func (w *Writer) Dir() string { return w.cfg.Dir }

// ApplyManifest installs manifest m on a follower-mode writer. The
// caller (the replication puller) must already have committed every
// segment directory and alive-bitmap version m references under Dir —
// fully written, fsync'd, and renamed into place. ApplyManifest then
// runs the writer's own open protocol over the new chain (loadChain,
// reusing the segments it already serves), writes the local manifest
// atomically, and swaps in a new generation. Segments no longer
// referenced are released and their directories deleted once the last
// in-flight search drains — the same deferred retirement merges use.
//
// Manifests must arrive in increasing Generation order; applying a
// stale or repeated one fails without side effects. On any validation
// or open failure the current generation keeps serving untouched.
func (w *Writer) ApplyManifest(m Manifest) error {
	if !w.cfg.Follower {
		return fmt.Errorf("live: ApplyManifest on a leader-mode writer (set Config.Follower)")
	}
	// Appliers serialize: the heavy validation work happens outside the
	// writer mutex, against a chain only ApplyManifest itself mutates.
	w.applyMu.Lock()
	defer w.applyMu.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if m.Generation <= w.genID {
		cur := w.genID
		w.mu.Unlock()
		return fmt.Errorf("live: manifest generation %d is not newer than installed generation %d", m.Generation, cur)
	}
	have := make(map[string]*segment, len(w.segs))
	for _, s := range w.segs {
		have[s.name] = s
	}
	w.mu.Unlock()

	m.Segments = slices.Clone(m.Segments) // validate sorts and normalizes in place
	if err := m.validate(); err != nil {
		return err
	}

	// Stage 1 (no writer lock, no visible effects).
	c, err := loadChain(w.cfg, m, have, w.blockCache)
	if err != nil {
		return err
	}

	// Stage 2 (writer lock): commit. The local manifest swap is the
	// durability point; the generation install publishes it to searches.
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		c.abandon()
		return ErrClosed
	}
	dropped := w.adoptChainLocked(c)
	err = writeManifest(w.cfg.Dir, m)
	if err == nil {
		err = w.installLocked()
	}
	if err != nil {
		// The chain swap above is in-memory only and the new segments are
		// all valid; serving them unpersisted would still be correct, but
		// failing loudly keeps "installed implies durable" true. Poison:
		// the in-memory and on-disk states have diverged.
		w.failed = err
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	for _, s := range dropped {
		s.release() // the old chain's reference; the directory goes with the last search
	}
	return nil
}

// chain is a manifest turned into servable state, with nothing yet
// visible to the writer: the segments in base order, the tombstone
// ledger rebuilt from their bitmaps and forward sidecars, and the
// newest persisted lexicon snapshot with that ledger subtracted.
type chain struct {
	m      Manifest
	segs   []*segment
	opened []*segment // the subset loadChain opened: abandon releases these
	// swaps are newer bitmap versions of segments already served. They
	// take effect at adoption, not before: until the manifest commits,
	// the serving generation's deletion view must not move.
	swaps    []bitmapSwap
	dead     map[lexicon.TermID]lexicon.Stats
	deadDocs int64
	snap     *lexicon.Lexicon // a private clone of the max-ordinal segment's lexicon
	snapID   uint64
	tight    *lexicon.Lexicon // snap minus dead; snap itself when nothing is dead
}

type bitmapSwap struct {
	seg  *segment
	bm   *postings.AliveBitmap
	tomb uint64
}

// abandon releases the segments a never-adopted chain opened.
func (c *chain) abandon() {
	for _, s := range c.opened {
		s.release()
	}
}

// loadChain is the one path from a (validated) manifest to servable
// state, shared by Open — which holds no segments yet — and
// ApplyManifest, which passes the segments it already serves in have so
// only new ones are opened. Every listed segment is opened (page
// checksums primed, section CRCs verified) or reused, checked against
// the manifest's Docs/Alive, and its dead documents folded into the
// tombstone ledger; the max-snapshot segment's lexicon is cloned and
// tightened. On error everything opened here is released.
func loadChain(cfg Config, m Manifest, have map[string]*segment, bc *blockcache.Cache) (_ *chain, err error) {
	c := &chain{m: m, dead: make(map[lexicon.TermID]lexicon.Stats)}
	defer func() {
		if err != nil {
			c.abandon()
		}
	}()
	var newest *segment
	for _, info := range m.Segments {
		s := have[info.Name]
		var alive *postings.AliveBitmap
		if s != nil {
			// Reused segment: sequence numbers are unique forever, so the
			// immutable fields must agree — disagreement means the leader
			// and follower hold different files under one name.
			if s.seq != info.Seq || s.snap != info.Snap || s.base != info.Base || s.docs != info.Docs {
				return nil, fmt.Errorf("live: segment %s diverges from the installed copy (seq/snap/base/docs mismatch)", info.Name)
			}
			alive = s.alive
			if s.aliveVer != info.Tomb {
				if info.Tomb == 0 {
					return nil, fmt.Errorf("live: segment %s: manifest drops bitmap version %d (tombstones cannot be undone)", info.Name, s.aliveVer)
				}
				bm, err := index.ReadAlive(filepath.Join(cfg.Dir, info.Name, aliveName(info.Tomb)), s.docs)
				if err != nil {
					return nil, fmt.Errorf("live: segment %s: %w", info.Name, err)
				}
				c.swaps = append(c.swaps, bitmapSwap{seg: s, bm: bm, tomb: info.Tomb})
				alive = bm
			}
		} else {
			s, err = openSegment(cfg, info.Name, info.Seq, info.Snap, info.Base, info.Tomb, bc)
			if err != nil {
				return nil, err
			}
			c.opened = append(c.opened, s)
			if s.docs != info.Docs {
				return nil, fmt.Errorf("live: segment %s holds %d documents, manifest says %d (corrupt?)", info.Name, s.docs, info.Docs)
			}
			alive = s.alive
		}
		if got := aliveCount(alive, s.docs); got != info.Alive {
			return nil, fmt.Errorf("live: segment %s bitmap leaves %d documents alive, manifest says %d (corrupt?)", info.Name, got, info.Alive)
		}
		// Rebuild the tombstone ledger: every dead document with a
		// non-empty forward entry was sealed (its statistics live in the
		// persisted snapshots) and must be subtracted. Documents deleted
		// while buffered sealed as empty entries and never entered a
		// snapshot; purged documents keep their entries exactly so this
		// reconstruction stays possible after compaction.
		n, err := foldDeadStats(s, alive, c.dead)
		if err != nil {
			return nil, fmt.Errorf("live: segment %s: %w", info.Name, err)
		}
		c.deadDocs += n
		c.segs = append(c.segs, s)
		if newest == nil || s.snap > newest.snap {
			newest = s
		}
	}
	// The max-snapshot-ordinal segment's lexicon covers every sealed
	// document (every document's statistics are recorded before the
	// capture of the seal that sealed it, and captures are ordered by
	// ordinal), so it restores the sealed state exactly. Buffered
	// documents lost in a crash left no statistics behind either — the
	// reopened state is self-consistent.
	c.snap = lexicon.New()
	if newest != nil {
		c.snap, c.snapID = newest.idx.Lex.Clone(), newest.snap
	}
	if c.tight, err = tightenLexicon(c.snap, c.dead); err != nil {
		return nil, err
	}
	return c, nil
}

// adoptChainLocked makes c the writer's state: pending bitmap versions
// take effect, segments c no longer lists are marked for retirement and
// returned (the caller releases the chain's reference to each after
// unlocking), and the ledger, snapshots and ordinals are replaced. The
// master lexicon, the sealed snapshot and the persisted newest snapshot
// all become c.snap — right for a follower, which has no buffer and no
// write path, so the three coincide and are immutable from here on. A
// leader must give the master its own clone (see Open).
func (w *Writer) adoptChainLocked(c *chain) (dropped []*segment) {
	for _, sw := range c.swaps {
		sw.seg.alive = sw.bm
		sw.seg.aliveVer = sw.tomb
		sw.seg.recountAlive()
	}
	inChain := make(map[*segment]bool, len(c.segs))
	w.base = 0
	for _, s := range c.segs {
		inChain[s] = true
		w.base += uint32(s.docs)
	}
	for _, s := range w.segs {
		if !inChain[s] {
			s.dead.Store(true)
			dropped = append(dropped, s)
		}
	}
	w.segs = c.segs
	w.lex = c.snap
	w.sealedSnap = c.snap
	w.sealedSnapID = c.snapID
	w.snapID = c.snapID
	w.deadStats = c.dead
	w.docsDeleted = c.deadDocs
	w.tight = c.tight
	w.seq = c.m.NextSeq
	w.genID = c.m.Generation
	return dropped
}

// aliveCount counts survivors under bm over a docs-wide id space (nil
// bitmap: everyone).
func aliveCount(bm *postings.AliveBitmap, docs int) int {
	if bm == nil {
		return docs
	}
	return bm.AliveCount()
}

// foldDeadStats folds segment s's dead documents' term statistics —
// under the given bitmap, which may be a newer version than the one the
// segment currently serves — into the ledger, returning how many dead
// documents it saw. Documents deleted while buffered sealed as empty
// forward entries and contribute nothing.
func foldDeadStats(s *segment, alive *postings.AliveBitmap, dead map[lexicon.TermID]lexicon.Stats) (int64, error) {
	if alive == nil {
		return 0, nil
	}
	var n int64
	for id := 0; id < s.docs; id++ {
		if alive.Alive(uint32(id)) {
			continue
		}
		terms, err := s.fwd.terms(uint32(id))
		if err != nil {
			return n, err
		}
		for _, tf := range terms {
			dead[tf.Term] = addStat(dead[tf.Term], 1, int64(tf.TF))
		}
		n++
	}
	return n, nil
}
