package live

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/blockcache"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/tune"
)

// defaultTermsPerQuery is the expected query fan-out the merge cost
// model prices the per-segment page floor against — the static fallback
// when no tuner has measured the real fan-out yet.
const defaultTermsPerQuery = 4

// mergePlan is one priced maintenance action the planner selected: the
// run to compact, whether it is a tiered merge or a purge rewrite, and
// the prediction the tuner will be held to after commit.
type mergePlan struct {
	run      []*segment
	kind     string  // "merge" or "purge"
	predGain float64 // predicted weighted per-query gain
	predCost float64 // predicted one-time weighted cost
	horizon  int     // amortization horizon the verdict used
}

// segStats summarizes a segment for the cost model, tombstone picture
// included: the purge-aware pricing scales the rewrite cost by the live
// fraction and credits the dead share as per-query gain.
func segStats(s *segment) cost.SegmentStats {
	return cost.SegmentStats{
		Docs:     s.docs,
		Postings: s.postings,
		Bytes:    s.bytes,
		Alive:    s.aliveDocs,
		Stored:   s.aliveDocs + s.purgeable,
	}
}

// kickMerger nudges the background merger; a kick already pending is
// enough (the merger drains to a fixpoint per kick).
func (w *Writer) kickMerger() {
	if !w.cfg.BackgroundMerge {
		return
	}
	select {
	case w.mergeKick <- struct{}{}:
	default:
	}
}

// mergerLoop is the background merger: on every kick it runs merges
// until the policy finds nothing worthwhile.
func (w *Writer) mergerLoop() {
	defer w.bgDone.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.mergeKick:
			for {
				select {
				case <-w.stop:
					return
				default:
				}
				did, err := w.mergeOnce()
				if err != nil || !did {
					break // the failure is sticky in w.failed
				}
			}
		}
	}
}

// MergeAll runs the merge policy to fixpoint on the calling goroutine —
// the deterministic counterpart of the background merger, used by the
// benchmark harness (where segment layout must be reproducible) and by
// tests.
func (w *Writer) MergeAll() error {
	if w.cfg.Follower {
		return ErrReadOnly
	}
	for {
		did, err := w.mergeOnce()
		if err != nil || !did {
			return err
		}
	}
}

// WaitMergeIdle blocks until no seal or merge is in flight and the
// policy has no merge left to run — the quiescent point tests assert
// equivalence at. It returns immediately on a closed or failed writer.
func (w *Writer) WaitMergeIdle() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed && w.failed == nil &&
		(w.sealing || w.mergeBusy || (w.cfg.BackgroundMerge && w.planLocked() != nil)) {
		w.cond.Wait()
	}
}

// mergeOnce plans and runs at most one merge (a multi-segment tiered
// compaction or a single-segment purge rewrite). It reports whether a
// merge was committed. Merges serialize on mergeBusy, so MergeAll and
// the background merger can coexist.
func (w *Writer) mergeOnce() (bool, error) {
	w.mu.Lock()
	for w.mergeBusy && !w.closed && w.failed == nil {
		w.cond.Wait()
	}
	if w.closed || w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return false, err
	}
	plan := w.planLocked()
	if plan == nil {
		w.mu.Unlock()
		return false, nil
	}
	run := plan.run
	w.mergeBusy = true
	// The merged segment persists the latest *committed seal* snapshot,
	// not the master: the master's statistics already include buffered
	// documents, which a crash (or Close without Flush) discards — if
	// the merged segment carried them and became the reopen authority,
	// phantom statistics would survive the crash. The seal snapshot
	// covers exactly the sealed documents and is a superset of every
	// input's lexicon; it rides with its capture ordinal, so reopen's
	// max-ordinal rule stays correct even when a seal that captured
	// earlier commits after this merge. (Snapshots are purge-agnostic:
	// the documents this merge purges stay counted, and the tombstone
	// ledger — rebuilt on reopen from the bitmaps and retained forward
	// entries — subtracts them at every install.)
	frozen := w.sealedSnap
	snap := w.sealedSnapID
	seq := w.seq
	w.seq++
	// Capture the deletion view the build will purge. Deletions
	// committing during the build mutate the segments' pointers, not
	// these captured values; the commit below folds any such late
	// tombstones into the merged segment's bitmap.
	alives := make([]*postings.AliveBitmap, len(run))
	for i, s := range run {
		alives[i] = s.alive
		s.acquire() // hold the inputs across the unlocked build
	}
	w.mu.Unlock()

	var seg *segment
	err := w.crash(CrashMergeBeforePersist)
	if err == nil {
		seg, err = mergeSegments(w.cfg, run, alives, seq, snap, frozen, w.blockCache)
	}
	// A read fault during the build is the media's failure, not the
	// protocol's: re-verify the inputs, quarantine the ones that fail,
	// and leave the merge for a later kick instead of poisoning the
	// writer — the index keeps serving (degraded) and keeps accepting
	// writes while the damage is contained to the sick segment.
	dataFault := err != nil && isDataFault(err)
	if dataFault {
		for _, s := range run {
			if s.vdev.Verify() != nil && s.quarantine(err) {
				w.fc.quarantines.Add(1)
			}
		}
	}

	w.mu.Lock()
	w.mergeBusy = false
	spliced := false
	if dataFault {
		w.cond.Broadcast()
		w.mu.Unlock()
		for _, s := range run {
			s.release() // the merger's temporary hold
		}
		return false, nil
	}
	if err == nil {
		// Carry forward tombstones committed while the build ran: the
		// merged segment still stores those documents' postings (the
		// build purged only the captured bitmaps), so they must be dead
		// in its bitmap — and purgeable by a later pass. The concat of
		// the inputs' *current* bitmaps is exactly that view.
		err = w.adoptMergedBitmapLocked(seg, run)
	}
	if err == nil {
		// Simulated death after the merged segment (and its bitmap) is
		// fully persisted but before the manifest references it.
		err = w.crash(CrashMergeBeforeCommit)
	}
	if err == nil {
		w.spliceLocked(run, seg)
		spliced = true
		w.merges++
		// commitLocked installs with the *current* tightened snapshot
		// (not the merge's capture-time one): seals committing during
		// the build advanced it past every segment now in the chain,
		// and a purge changes no statistics — the ledger already
		// subtracted its documents when they were tombstoned.
		err = w.commitLocked()
		if err == nil {
			if cerr := w.crash(CrashMergeAfterCommit); cerr != nil {
				// Simulated death after the swap but before input
				// retirement: the merge is durable, the inputs' stale
				// directories stay for reopen's GC.
				err = cerr
			} else {
				// Account the committed merge's physical work and hold the
				// tuner's prediction to it: pages read from the inputs,
				// pages written to the output, postings re-encoded.
				var pagesRead, pagesWritten, reencoded int64
				for _, s := range run {
					pagesRead += (s.bytes + storage.PageSize - 1) / storage.PageSize
				}
				pagesWritten = (seg.bytes + storage.PageSize - 1) / storage.PageSize
				reencoded = seg.postings
				w.mergePagesRead += pagesRead
				w.mergePagesWritten += pagesWritten
				w.mergeReencoded += reencoded
				w.cfg.Tune.ObserveMerge(tune.MergeObs{
					Kind:         plan.kind,
					Inputs:       len(run),
					FirstSeq:     run[0].seq,
					PagesRead:    pagesRead,
					PagesWritten: pagesWritten,
					Reencoded:    reencoded,
					PredGain:     plan.predGain,
					PredCost:     plan.predCost,
					Horizon:      plan.horizon,
				})
				for _, s := range run {
					s.dead.Store(true)
					// Retired segments never serve again; drop their
					// cached blocks so the bytes go to live segments.
					// (In-flight snapshots still reading them simply
					// re-fault — seq-tagged keys can never go stale.)
					if w.blockCache != nil {
						w.blockCache.PurgeSpace(s.seq)
					}
				}
			}
		}
	} else if seg != nil {
		seg.release() // never entered the chain; drop the opener's ref
		if errors.Is(err, ErrCrashPoint) {
			// A real crash would not have cleaned up either: the
			// uncommitted directory stays, for reopen's GC to prove
			// itself on.
		} else if rerr := os.RemoveAll(seg.dir); rerr != nil {
			cleanupLogf("live: removing abandoned merge output %s: %v (reopen GC will retry)", seg.dir, rerr)
		}
	}
	if err != nil && w.failed == nil {
		w.failed = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, s := range run {
		s.release() // the merger's temporary hold
		if spliced {
			s.release() // the chain's reference: the input left w.segs
		}
	}
	return err == nil, err
}

// adoptMergedBitmapLocked installs the merged segment's deletion view:
// the concatenation of the inputs' current alive bitmaps, persisted as
// the segment's first bitmap version when any document is dead. Called
// under the writer mutex before the merged segment is spliced in.
func (w *Writer) adoptMergedBitmapLocked(merged *segment, run []*segment) error {
	anyDead := false
	for _, s := range run {
		if s.alive != nil && !s.alive.AllAlive() {
			anyDead = true
			break
		}
	}
	if !anyDead {
		return nil
	}
	bm := postings.NewAliveBitmap(merged.docs)
	off := uint32(0)
	for _, s := range run {
		if s.alive != nil {
			for id := 0; id < s.docs; id++ {
				if !s.alive.Alive(uint32(id)) {
					bm.Kill(off + uint32(id))
				}
			}
		}
		off += uint32(s.docs)
	}
	if err := index.WriteAlive(filepath.Join(merged.dir, aliveName(1)), bm); err != nil {
		return err
	}
	merged.alive = bm
	merged.aliveVer = 1
	merged.recountAlive()
	return nil
}

// planCoeffs are the numbers the one planner prices with. The tuner
// supplies them (nil-safe: a nil tuner yields the static defaults and a
// single width, kLo = kHi = MergeFanIn); nothing else about planning
// depends on whether a tuner is attached.
type planCoeffs struct {
	terms     float64 // expected query fan-out
	weight    float64 // page-touch / decode cost ratio; 0 is cost.DefaultPageWeight
	horizon   int     // amortization horizon, in queries
	ratio     float64 // realized/predicted merge-cost correction
	kLo, kHi  int     // run lengths to consider, widest first
	purgeFrac float64 // Config.PurgeDeadFrac
}

// planLocked picks the next maintenance action: it gathers the chain's
// statistics and the coefficients, lets selectMaintenance choose, and
// wraps the chosen window with the prediction the tuner will be held to
// after commit. Returns nil when nothing qualifies.
func (w *Writer) planLocked() *mergePlan {
	tn := w.cfg.Tune
	c := planCoeffs{
		terms:     tn.TermsPerQuery(),
		weight:    tn.PageWeight(),
		horizon:   tn.Horizon(w.cfg.MergeHorizon),
		ratio:     tn.CostRatio(),
		purgeFrac: w.cfg.PurgeDeadFrac,
	}
	if c.terms <= 0 {
		c.terms = defaultTermsPerQuery
	}
	c.kLo, c.kHi = tn.FanInRange(w.cfg.MergeFanIn)

	stats := make([]cost.SegmentStats, len(w.segs))
	quarantined := make([]bool, len(w.segs))
	for i, s := range w.segs {
		stats[i] = segStats(s)
		quarantined[i] = s.quarantined.Load()
	}
	lo, hi, est, ok := selectMaintenance(stats, quarantined, c)
	if !ok {
		return nil
	}
	kind := "merge"
	if hi-lo == 1 {
		kind = "purge"
	}
	return &mergePlan{
		run:      append([]*segment(nil), w.segs[lo:hi]...),
		kind:     kind,
		predGain: est.QueryGain,
		predCost: est.MergeCost,
		horizon:  c.horizon,
	}
}

// selectMaintenance is the whole maintenance policy, as a pure function
// of the chain: it returns the window [lo, hi) to compact and its price
// (MergeCost already scaled by c.ratio), or ok == false.
//
// Structure orders the candidates and the cost model gates them. Tiered
// compaction first, widest run length first: for k from kHi down to kLo,
// among the k-windows of healthy adjacent segments within one size tier
// that are Worthwhile at the horizon, the one with the fewest documents
// wins, the earliest on ties. Ranking candidates by predicted net
// benefit instead strands the chain: among equal-sized fresh seals the
// best-priced window is decided by document-length noise, lands
// mid-chain, and leaves its left neighbours unmergeable behind the
// adjacency and tier rules — the candidates are not independent, and a
// scalar cannot see that.
//
// Only when no width has such a window does the purge rule apply: the
// healthy segment with the highest fraction of tombstoned-but-still-
// stored documents, once that fraction reaches purgeFrac, is rewritten
// alone to reclaim the dead postings and re-tighten its block bounds (no
// cost-model gate — the rewrite is how deleted space is ever returned).
func selectMaintenance(stats []cost.SegmentStats, quarantined []bool, c planCoeffs) (lo, hi int, est cost.MergeEstimate, ok bool) {
	price := func(lo, hi int) (cost.MergeEstimate, bool) {
		e, err := cost.EstimateMerge(stats[lo:hi], c.terms, c.weight)
		e.MergeCost *= c.ratio // realized/predicted feedback
		return e, err == nil
	}
	for k := c.kHi; k >= c.kLo && k >= 2; k-- {
		bestDocs := int64(math.MaxInt64)
		for i := 0; i+k <= len(stats); i++ {
			total, tiered := tieredWindow(stats[i:i+k], quarantined[i:i+k])
			if !tiered || total >= bestDocs {
				continue
			}
			e, priced := price(i, i+k)
			if !priced || !e.Worthwhile(c.horizon) {
				continue
			}
			lo, hi, est, ok, bestDocs = i, i+k, e, true, total
		}
		if ok {
			return lo, hi, est, true
		}
	}
	var bestFrac float64
	for i, s := range stats {
		if s.Stored == s.Alive || quarantined[i] {
			continue
		}
		// Fraction of *stored* documents (alive + tombstoned-but-stored).
		// The full id span would count long-purged holes in the
		// denominator, making old segments need ever more tombstones to
		// requalify — dead space would stop being reclaimed.
		frac := float64(s.Stored-s.Alive) / float64(s.Stored)
		if frac >= c.purgeFrac && frac > bestFrac {
			lo, hi, ok, bestFrac = i, i+1, true, frac
		}
	}
	if ok {
		est, _ = price(lo, hi) // the purge's price is a prediction, not a gate
	}
	return lo, hi, est, ok
}

// tieredWindow checks the structural constraints a tiered merge window
// must satisfy regardless of pricing — healthy inputs and one size tier —
// and returns the window's document count.
func tieredWindow(run []cost.SegmentStats, quarantined []bool) (docs int64, ok bool) {
	minDocs, maxDocs := run[0].Docs, run[0].Docs
	for i, s := range run {
		// A quarantined segment cannot be read reliably; merging it would
		// either fail or launder damaged data into a fresh segment.
		// Reverify must clear it first.
		if quarantined[i] {
			return 0, false
		}
		if s.Docs < minDocs {
			minDocs = s.Docs
		}
		if s.Docs > maxDocs {
			maxDocs = s.Docs
		}
		docs += int64(s.Docs)
	}
	return docs, maxDocs <= mergeTierFactor*minDocs
}

// spliceLocked replaces the contiguous run in the chain by the merged
// segment. Seals only append and merges serialize, so the run is still
// present and contiguous.
func (w *Writer) spliceLocked(run []*segment, merged *segment) {
	i := 0
	for ; i < len(w.segs); i++ {
		if w.segs[i] == run[0] {
			break
		}
	}
	out := make([]*segment, 0, len(w.segs)-len(run)+1)
	out = append(out, w.segs[:i]...)
	out = append(out, merged)
	out = append(out, w.segs[i+len(run):]...)
	w.segs = out
}

// mergeSegments compacts a run of adjacent segments into one block-max
// segment: concatenate-and-purge via index.Merge (dropping documents
// dead in the captured bitmaps), copy the forward sidecar entries of
// every document — dead ones included, so the tombstone ledger stays
// reconstructible after their postings are gone — and write the result
// as segment seq (writeSegment). It starts with no bitmap: the caller
// adopts the inputs' current deletion view at commit.
func mergeSegments(cfg Config, run []*segment, alives []*postings.AliveBitmap, seq, snap uint64, frozen *lexicon.Lexicon, bc *blockcache.Cache) (*segment, error) {
	inputs := make([]*index.Index, len(run))
	total := 0
	for i, s := range run {
		inputs[i] = s.idx
		total += s.docs
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return nil, fmt.Errorf("live: merge: %w", err)
	}
	merged, err := index.Merge(inputs, alives, frozen, pool)
	if err != nil {
		return nil, fmt.Errorf("live: merge: %w", err)
	}
	blobs := make([][]byte, 0, total)
	for _, s := range run {
		for id := 0; id < s.docs; id++ {
			raw, err := s.fwd.raw(uint32(id))
			if err != nil {
				return nil, fmt.Errorf("live: merge: %w", err)
			}
			blobs = append(blobs, raw)
		}
	}
	return writeSegment(cfg, "merge", merged, blobs, nil, seq, snap, run[0].base, bc)
}
