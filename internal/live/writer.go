package live

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/blockcache"
	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/storage"
	"repro/internal/tune"
)

// Writer is the mutable front of a live index: it buffers incoming
// documents in memory, seals the buffer into immutable on-disk segments,
// and (with BackgroundMerge) compacts small segments in the background.
// All methods are safe for concurrent use; searches go through Acquire /
// Searcher and never block writes beyond the shared mutex's critical
// sections.
//
// Failure model: an error while sealing or merging poisons the writer
// (Err returns it, further writes fail) but never corrupts what is
// already committed — the manifest swap is atomic, so the on-disk index
// is always a consistent earlier state.
type Writer struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	// applyMu serializes ApplyManifest calls on a follower-mode writer
	// (see replication.go); held across the heavy open/validate work so
	// only the final commit needs mu.
	applyMu sync.Mutex

	lex *lexicon.Lexicon // master lexicon; guarded by mu
	// sealedSnap is the immutable snapshot of the most recent committed
	// seal (or of reopen): it covers *exactly* the sealed documents,
	// unlike the master, whose statistics already include buffered
	// ones. It is what merges persist into their output segment, so a
	// crash can never resurrect statistics of documents that were lost
	// with the buffer. sealedSnapID is its capture ordinal (snapID
	// counts captures); segments record the ordinal they persist, and
	// reopen restores the master from the max-ordinal segment.
	sealedSnap   *lexicon.Lexicon
	sealedSnapID uint64
	snapID       uint64
	scratch      map[lexicon.TermID]int32
	buf          []collection.Document // local ids 0..len-1; global id = base + local
	bufTokens    int64
	bufDead      int    // buffered documents deleted before sealing (id holes)
	base         uint32 // global id of buf[0] == documents sealed or sealing

	// deadStats is the tombstone ledger: the summed term statistics of
	// every sealed document that has been deleted, purged or not. The
	// persisted lexicon snapshots are purge-agnostic (they count every
	// document ever sealed), so subtracting this ledger from the frozen
	// snapshot at generation install yields statistics over exactly the
	// surviving documents — the invariant that keeps live results
	// byte-identical to a one-shot build over the survivors. On reopen
	// the ledger is rebuilt from the alive bitmaps plus the forward
	// sidecars, whose entries are retained even after a purge.
	deadStats map[lexicon.TermID]lexicon.Stats
	// tight is sealedSnap with the ledger already subtracted — the
	// statistics every generation ranks with. It is maintained
	// incrementally (rebuilt per seal, cloned-and-decremented per
	// delete) so a deletion commit costs one lexicon clone plus the
	// dead document's terms, not a replay of the whole ledger. Like
	// sealedSnap it is immutable once installed: generations share it.
	tight *lexicon.Lexicon

	seq   uint64 // next segment sequence number
	genID uint64
	segs  []*segment
	cur   *generation

	sealing        bool
	sealLo, sealHi uint32 // global id range of the in-flight seal's documents
	mergeBusy      bool
	closed         bool
	failed         error // sticky background failure

	docsAdded   int64
	docsDeleted int64
	seals       int64
	merges      int64

	// Physical maintenance work, accumulated at commit time: pages
	// written by seals, pages read/written and postings re-encoded by
	// merges and purges. The TUNE bench charges this account against the
	// query-side savings, so a policy cannot win by merging for free.
	sealPagesWritten  int64
	mergePagesRead    int64
	mergePagesWritten int64
	mergeReencoded    int64

	// fc is the fault-handling account, shared with snapshots (searches
	// quarantine segments and mark queries degraded without the writer
	// lock). See FaultStats.
	fc faultCounters

	// resCache memoizes whole query answers per generation; nil unless
	// Config.ResultCacheBytes is set. blockCache is the shared hot-block
	// cache every segment's postings store reads through; nil unless
	// Config.BlockCacheBytes is set. Both are safe for concurrent use
	// without the writer mutex.
	resCache   *resultCache
	blockCache *blockcache.Cache

	mergeKick chan struct{}
	stop      chan struct{}
	bgDone    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// lockFile holds the flock on Dir for the writer's lifetime, so a
	// second process opening the same directory fails cleanly instead
	// of silently interleaving manifests and GC-ing the other's
	// segments. The kernel drops the lock on process death, so a crash
	// never wedges the directory. See lock_unix.go / lock_other.go.
	lockFile *os.File
}

// Open opens (or creates) the live index under cfg.Dir: it reads the
// manifest, garbage-collects stale segment directories, opens every
// listed segment through its own buffer pool, restores the master
// lexicon from the newest segment's persisted snapshot, and installs the
// initial searchable generation. Close the writer to release the
// segment files.
func Open(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("live: Config.Dir is required")
	}
	if cfg.Follower && (cfg.BackgroundMerge || cfg.FlushEvery > 0) {
		return nil, fmt.Errorf("live: follower mode is read-only: BackgroundMerge and FlushEvery do not apply")
	}
	// Negative knobs are rejected, not defaulted: fillDefaults only
	// replaces exact zeros, so a negative MergeHorizon would otherwise
	// pass through and make Worthwhile false forever — silently disabling
	// all background merging — and a negative PurgeDeadFrac would mark
	// every segment purge-eligible.
	if cfg.MergeHorizon < 0 {
		return nil, fmt.Errorf("live: Config.MergeHorizon must be >= 0, got %d", cfg.MergeHorizon)
	}
	if cfg.PurgeDeadFrac < 0 {
		return nil, fmt.Errorf("live: Config.PurgeDeadFrac must be >= 0, got %g", cfg.PurgeDeadFrac)
	}
	cfg.fillDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	m, err := readManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		// Fresh directory: establish the root of truth before GC, so a
		// half-copied directory of segments without a manifest reads as
		// empty rather than as garbage results.
		m = &Manifest{Version: 1}
		if err := writeManifest(cfg.Dir, *m); err != nil {
			return nil, err
		}
	}
	if _, err := gcStale(cfg.Dir, m); err != nil {
		return nil, err
	}

	w := &Writer{
		cfg:       cfg,
		scratch:   make(map[lexicon.TermID]int32),
		mergeKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
		lockFile:  lock,
	}
	w.cond = sync.NewCond(&w.mu)
	if cfg.ResultCacheBytes > 0 {
		w.resCache = newResultCache(cfg.ResultCacheBytes)
	}
	if cfg.BlockCacheBytes > 0 {
		w.blockCache = blockcache.New(cfg.BlockCacheBytes)
	}

	// Opening is installing the on-disk manifest with no segment in hand:
	// the same loadChain a follower's ApplyManifest runs.
	c, err := loadChain(cfg, *m, nil, w.blockCache)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.adoptChainLocked(c)
	// The master must not alias the sealed snapshot: Add records buffered
	// documents into it, and the snapshot (which, with an empty ledger, is
	// also the tightened lexicon generations rank with) covers exactly
	// the sealed ones.
	w.lex = w.sealedSnap.Clone()
	err = w.installLocked()
	w.mu.Unlock()
	if err != nil {
		c.abandon()
		return nil, err
	}

	if cfg.BackgroundMerge {
		w.bgDone.Add(1)
		go w.mergerLoop()
		w.kickMerger() // pre-existing segments may already warrant a merge
	}
	if cfg.FlushEvery > 0 {
		w.bgDone.Add(1)
		go w.flushLoop()
	}
	if cfg.ReverifyEvery > 0 {
		w.bgDone.Add(1)
		go w.reverifyLoop()
	}
	ok = true
	return w, nil
}

// Add accepts one document as a bag of term counts (duplicate terms are
// coalesced) and returns its global document id. Ids are assigned in
// arrival order. When the buffer trips a seal threshold, Add seals it
// synchronously before returning — the caller pays the seal, keeping
// ingestion self-throttling.
func (w *Writer) Add(terms []TermCount) (uint32, error) {
	if w.cfg.Follower {
		return 0, ErrReadOnly
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	doc, err := w.normalizeLocked(terms)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	global, need, err := w.recordLocked(doc)
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if need {
		if err := w.Flush(); err != nil {
			return global, err
		}
	}
	return global, nil
}

// normalizeLocked validates one incoming document and normalizes it
// into the buffer representation: duplicate terms coalesced, term ids
// interned against the master lexicon, ascending term order. It is the
// single validation path — Add and Update share it, so their document
// contracts cannot drift. Validation is all-or-nothing: nothing is
// recorded here, so a rejected document leaves no phantom
// DocFreq/CollFreq behind. (Intern alone is safe — a name without
// statistics is inert.)
func (w *Writer) normalizeLocked(terms []TermCount) (collection.Document, error) {
	var doc collection.Document
	if len(terms) == 0 {
		return doc, fmt.Errorf("live: empty document")
	}
	clear(w.scratch)
	var docLen int64
	for _, tc := range terms {
		if tc.TF <= 0 {
			return doc, fmt.Errorf("live: non-positive tf %d for term %q", tc.TF, tc.Term)
		}
		id := w.lex.Intern(tc.Term)
		if w.scratch[id] > math.MaxInt32-tc.TF {
			return doc, fmt.Errorf("live: term %q frequency overflows int32", tc.Term)
		}
		w.scratch[id] += tc.TF
		docLen += int64(tc.TF)
	}
	if docLen > math.MaxInt32 {
		return doc, fmt.Errorf("live: document length %d overflows int32", docLen)
	}
	doc.Terms = make([]collection.TermFreq, 0, len(w.scratch))
	for id, tf := range w.scratch {
		doc.Terms = append(doc.Terms, collection.TermFreq{Term: id, TF: tf})
		doc.Len += tf
	}
	sort.Slice(doc.Terms, func(a, b int) bool { return doc.Terms[a].Term < doc.Terms[b].Term })
	return doc, nil
}

// recordLocked appends a normalized document to the buffer, recording
// its statistics into the master lexicon and assigning its global id.
// need reports whether the buffer tripped a seal threshold (the caller
// runs Flush after unlocking).
func (w *Writer) recordLocked(doc collection.Document) (global uint32, need bool, err error) {
	doc.ID = uint32(len(w.buf))
	for _, tf := range doc.Terms {
		if err := w.lex.Record(tf.Term, int(tf.TF)); err != nil {
			return 0, false, err
		}
	}
	global = w.base + doc.ID
	w.buf = append(w.buf, doc)
	w.bufTokens += int64(doc.Len)
	w.docsAdded++
	// The seal threshold is the tuner's (write-heavy phases seal bigger
	// segments, within the configured bounds; a nil tuner returns the
	// base); it takes only its own lock, so calling it under w.mu is safe.
	w.cfg.Tune.ObserveWrite()
	sealDocs := w.cfg.Tune.SealDocs(w.cfg.SealDocs)
	need = len(w.buf) >= sealDocs || w.bufTokens >= sealTokens
	return global, need, nil
}

// Flush seals the buffered documents into a new on-disk segment and
// commits it, making them searchable. A no-op on an empty buffer.
// Concurrent flushes serialize; writes proceed while the segment is
// being built (only the buffer capture holds the lock).
func (w *Writer) Flush() error {
	if w.cfg.Follower {
		return ErrReadOnly
	}
	w.mu.Lock()
	for w.sealing && !w.closed && w.failed == nil {
		w.cond.Wait()
	}
	if w.closed || w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	if len(w.buf) == 0 {
		w.mu.Unlock()
		return nil
	}
	docs := w.buf
	tokens := w.bufTokens
	w.buf = nil
	w.bufTokens = 0
	w.bufDead = 0
	segBase := w.base
	w.base += uint32(len(docs))
	// Publish the in-flight seal's id range: a Delete targeting one of
	// these documents waits until the seal commits (the document is in
	// neither the buffer nor any segment while the build runs).
	w.sealLo, w.sealHi = segBase, w.base
	// The snapshot is taken in the same critical section that drains the
	// buffer, so it covers exactly the documents sealed so far — the
	// invariant both the persisted segment lexicon and the committed
	// generation rely on (see commitLocked for why reusing it at commit
	// is sound even when merges interleave).
	frozen := w.lex.Clone()
	w.snapID++
	snap := w.snapID
	seq := w.seq
	w.seq++
	w.sealing = true
	w.mu.Unlock()

	var seg *segment
	err := w.crash(CrashSealBeforePersist)
	if err == nil {
		seg, err = buildSegment(w.cfg, docs, tokens, seq, snap, segBase, frozen, w.blockCache)
	}

	w.mu.Lock()
	w.sealing = false
	if err == nil {
		if cerr := w.crash(CrashSealBeforeCommit); cerr != nil {
			// Simulated death between persist and commit: close the built
			// segment's files but leave its directory — the uncommitted
			// orphan reopen's GC must reclaim.
			err = cerr
			seg.release()
		}
	}
	if err == nil {
		w.segs = append(w.segs, seg)
		w.seals++
		w.sealPagesWritten += (seg.bytes + storage.PageSize - 1) / storage.PageSize
		w.sealedSnap = frozen // newest exactly-sealed-docs snapshot
		w.sealedSnapID = snap
		// A new snapshot means a fresh tightened clone: the one full
		// ledger replay each seal pays, so deletions don't have to.
		w.tight, err = tightenLexicon(frozen, w.deadStats)
		if err == nil {
			err = w.commitLocked()
		}
		if err == nil {
			// Simulated death after the manifest swap: the seal is durable
			// and searchable on reopen; only the poisoned writer notices.
			err = w.crash(CrashSealAfterCommit)
		}
	}
	if err != nil && w.failed == nil {
		w.failed = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.kickMerger()
	return nil
}

// buildSegment builds the buffered documents into a block-max index
// and writes it as segment seq (writeSegment) together with its forward
// sidecar — one term-list entry per document, empty for documents
// deleted while still buffered — and, when such deletions left holes, an
// alive bitmap. A buffered document deleted before the seal is a
// Document with no terms: it keeps its id slot (a hole) but contributes
// no postings, no length, and no statistics anywhere.
func buildSegment(cfg Config, docs []collection.Document, tokens int64, seq, snap uint64, base uint32, frozen *lexicon.Lexicon, bc *blockcache.Cache) (*segment, error) {
	sub := &collection.Collection{Docs: docs, Lex: frozen, TotalTokens: tokens}
	if len(docs) > 0 {
		sub.AvgDocLen = float64(tokens) / float64(len(docs))
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return nil, fmt.Errorf("live: seal: %w", err)
	}
	idx, err := index.Build(sub, pool)
	if err != nil {
		return nil, fmt.Errorf("live: seal: %w", err)
	}
	blobs := make([][]byte, len(docs))
	var bm *postings.AliveBitmap
	for i := range docs {
		if len(docs[i].Terms) == 0 {
			if bm == nil {
				bm = postings.NewAliveBitmap(len(docs))
			}
			bm.Kill(uint32(i))
			continue
		}
		blobs[i] = encodeDocEntry(docs[i].Terms)
	}
	return writeSegment(cfg, "seal", idx, blobs, bm, seq, snap, base, bc)
}

// commitLocked writes the manifest for the current chain and installs a
// new searchable generation ranking with w.tight — the current sealed
// snapshot with the tombstone ledger subtracted. The snapshot under it
// (sealedSnap) extends every segment's persisted lexicon: every segment
// in the chain persists either an earlier seal's snapshot or — for
// merges — the sealedSnap of a seal no later than the current one, and
// a seal committing during a merge's build has already advanced
// sealedSnap (and rebuilt tight) past every segment in the chain. So
// the generation's statistics cover exactly the sealed, searchable,
// non-deleted documents.
func (w *Writer) commitLocked() error {
	w.samplePoolLatencyLocked()
	w.genID++
	if err := writeManifest(w.cfg.Dir, w.manifestLocked()); err != nil {
		return err
	}
	return w.installLocked()
}

// samplePoolLatencyLocked feeds each segment pool's physical-read
// latency accumulated since the last sample into the tuner's direct
// fault-latency channel. Sampled at every commit — the natural points
// where the writer already holds the mutex that guards the segments'
// high-water marks.
func (w *Writer) samplePoolLatencyLocked() {
	tn := w.cfg.Tune
	if tn == nil {
		return // not nil-safety: skips walking the chain at every commit
	}
	for _, s := range w.segs {
		reads, total := s.pool.ReadLatency()
		dn := reads - s.lastPoolReads
		dt := int64(total) - s.lastPoolNanos
		if dn > 0 && dt >= 0 {
			tn.ObservePoolReads(dn, time.Duration(dt))
		}
		s.lastPoolReads, s.lastPoolNanos = reads, int64(total)
	}
}

// installLocked swaps in a new generation over the current chain,
// ranking with the maintained ledger-tightened snapshot.
func (w *Writer) installLocked() error {
	g, err := newGeneration(w.genID, w.tight, w.corpusLocked(),
		append([]*segment(nil), w.segs...), rank.NewBM25())
	if err != nil {
		return err
	}
	old := w.cur
	w.cur = g
	if old != nil {
		old.release()
	}
	// Every cached answer names the outgoing generation in its key, so
	// none can be served again; clear wholesale to release the bytes.
	if w.resCache != nil {
		w.resCache.clear()
	}
	return nil
}

// tightenLexicon returns frozen with the tombstone ledger subtracted —
// a fresh clone when the ledger is non-empty, frozen itself otherwise
// (it is immutable either way). Underflow means the ledger claims
// deletions the snapshot never recorded: corruption, never a valid
// state.
func tightenLexicon(frozen *lexicon.Lexicon, dead map[lexicon.TermID]lexicon.Stats) (*lexicon.Lexicon, error) {
	if len(dead) == 0 {
		return frozen, nil
	}
	tight := frozen.Clone()
	for id, s := range dead {
		if err := tight.Subtract(id, s); err != nil {
			return nil, fmt.Errorf("live: tombstone ledger: %w", err)
		}
	}
	return tight, nil
}

// addStat accumulates one document's contribution into a ledger entry.
func addStat(s lexicon.Stats, docs int32, coll int64) lexicon.Stats {
	s.DocFreq += docs
	s.CollFreq += coll
	return s
}

// corpusLocked computes the corpus statistics over the alive sealed
// documents — the global statistics every generation ranks with, equal
// by construction to what a one-shot build over the survivors records.
func (w *Writer) corpusLocked() rank.CorpusStat {
	var docs int
	var tokens int64
	for _, s := range w.segs {
		docs += s.aliveDocs
		tokens += s.aliveTokens
	}
	c := rank.CorpusStat{NumDocs: docs, TotalTokens: tokens}
	if docs > 0 {
		c.AvgDocLen = float64(tokens) / float64(docs)
	}
	return c
}

// flushLoop seals a non-empty buffer every cfg.FlushEvery, on ticks of
// the injected clock.
func (w *Writer) flushLoop() {
	defer w.bgDone.Done()
	t := w.cfg.Clock.NewTicker(w.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.Chan():
			w.mu.Lock()
			n := len(w.buf) - w.bufDead
			bad := w.closed || w.failed != nil
			w.mu.Unlock()
			if n > 0 && !bad {
				w.Flush() // a failure is sticky in w.failed
			}
		}
	}
}

// Stats samples the writer's accounting.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sealed, alive int64
	for _, s := range w.segs {
		sealed += int64(s.docs)
		alive += int64(s.aliveDocs)
	}
	return WriterStats{
		DocsAdded:    w.docsAdded,
		DocsSealed:   sealed,
		DocsDeleted:  w.docsDeleted,
		DocsAlive:    alive,
		BufferedDocs: len(w.buf) - w.bufDead,
		Seals:        w.seals,
		Merges:       w.merges,
		Segments:     len(w.segs),
		Generation:   w.genID,
	}
}

// MaintStats is the writer's physical maintenance-work account: pages
// written by seals, pages read and written and postings re-encoded by
// merges and purge rewrites. The TUNE bench charges this account
// against query-side savings when comparing maintenance policies.
type MaintStats struct {
	SealPagesWritten  int64
	MergePagesRead    int64
	MergePagesWritten int64
	MergeReencoded    int64
}

// MaintStats samples the maintenance-work counters.
func (w *Writer) MaintStats() MaintStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return MaintStats{
		SealPagesWritten:  w.sealPagesWritten,
		MergePagesRead:    w.mergePagesRead,
		MergePagesWritten: w.mergePagesWritten,
		MergeReencoded:    w.mergeReencoded,
	}
}

// TuneStats snapshots the attached tuner's observable state; the zero
// Stats (Enabled false) when the writer runs the static policy.
func (w *Writer) TuneStats() tune.Stats {
	return w.cfg.Tune.Stats() // nil-safe
}

// Err reports the sticky background failure, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Close stops the background goroutines, waits for in-flight seal and
// merge work, and releases the writer's generation reference. Buffered
// documents that were never flushed are discarded (call Flush first for
// durability). Segments held by outstanding Snapshots stay open until
// those snapshots are closed. Close returns the sticky background
// failure, if any; closing twice is a no-op.
func (w *Writer) Close() error {
	w.closeOnce.Do(func() {
		close(w.stop)
		w.bgDone.Wait()
		w.mu.Lock()
		for w.sealing || w.mergeBusy {
			w.cond.Wait()
		}
		w.closed = true
		g := w.cur
		w.cur = nil
		segs := w.segs
		w.segs = nil
		w.closeErr = w.failed
		w.cond.Broadcast()
		w.mu.Unlock()
		if g != nil {
			g.release()
		}
		for _, s := range segs {
			s.release() // the chain's reference
		}
		if err := w.lockFile.Close(); err != nil {
			// The kernel releases a leaked flock at process exit; log so a
			// wedged fd is visible anyway.
			cleanupLogf("live: releasing directory lock: %v", err)
		}
	})
	return w.closeErr
}
