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
	predGain float64 // weighted per-query gain (tuned plans only)
	predCost float64 // predicted one-time weighted cost (tuned plans only)
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
				if w.cfg.Tune != nil {
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
				}
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

// planLocked picks the next maintenance action.
//
// Untuned (Config.Tune nil), the static policy: tiered compaction first
// — the smallest window of MergeFanIn adjacent segments whose sizes sit
// within one tier (max ≤ mergeTierFactor × min), and
// worth its one-time cost per the internal/cost model. When no tiered
// run qualifies, the purge rule applies: the segment with the highest
// fraction of tombstoned-but-still-stored documents, once that fraction
// reaches PurgeDeadFrac, is rewritten alone to reclaim the dead
// postings and re-tighten its block bounds (no cost-model gate — the
// rewrite is how deleted space is ever returned).
//
// Tuned, every candidate — tiered windows at the recommended fan-in and
// single-segment purge rewrites — is priced with the calibrated
// coefficients and the action with the highest predicted net benefit
// wins (see planTunedLocked). Returns nil when nothing qualifies.
func (w *Writer) planLocked() *mergePlan {
	if w.cfg.Tune != nil {
		return w.planTunedLocked()
	}
	if run := w.planTieredLocked(); run != nil {
		return &mergePlan{run: run, kind: "merge", horizon: w.cfg.MergeHorizon}
	}
	if run := w.planPurgeLocked(); run != nil {
		return &mergePlan{run: run, kind: "purge", horizon: w.cfg.MergeHorizon}
	}
	return nil
}

// planTunedLocked ranks ALL candidate actions by calibrated predicted
// net benefit — gain × horizon − cost, the portfolio view of
// maintenance debt: retire the highest-benefit item first instead of
// the first qualifying one. Candidates are tiered windows of the
// tuner's recommended fan-in (same tier/size constraints as the static
// policy) and single-segment purge rewrites of any tombstoned segment.
// A candidate with negative net benefit is skipped — except the static
// guarantee stays: a segment at or past PurgeDeadFrac is always
// eligible, because purge rewrites are also how dead space is returned,
// not just a latency trade. Ties break toward the earlier run so plans
// are deterministic.
func (w *Writer) planTunedLocked() *mergePlan {
	tn := w.cfg.Tune
	terms := tn.TermsPerQuery()
	if terms <= 0 {
		terms = defaultTermsPerQuery
	}
	weight := tn.PageWeight()
	if weight <= 0 {
		weight = cost.DefaultPageWeight
	}
	horizon := tn.Horizon(w.cfg.MergeHorizon)
	ratio := tn.CostRatio()

	var best *mergePlan
	var bestNet float64
	consider := func(run []*segment, kind string, forced bool) {
		stats := make([]cost.SegmentStats, len(run))
		for j, s := range run {
			stats[j] = segStats(s)
		}
		est, err := cost.EstimateMerge(stats, terms, weight)
		if err != nil {
			return
		}
		predCost := est.MergeCost * ratio // realized/predicted feedback
		net := est.QueryGain*float64(horizon) - predCost
		if net < 0 && !forced {
			return
		}
		if best != nil && net <= bestNet {
			return
		}
		best = &mergePlan{
			run:      append([]*segment(nil), run...),
			kind:     kind,
			predGain: est.QueryGain,
			predCost: predCost,
			horizon:  horizon,
		}
		bestNet = net
	}

	// Price tiered windows at every run length the tuner's fan-in bounds
	// allow — the benefit ranking, not a fixed fan-in, picks the size: a
	// read-heavy phase approves one wide consolidation over a cascade of
	// pair merges that would re-encode the same postings repeatedly.
	// (MergeFanIn is still asked so the headline recommendation shows up
	// in the decision log and on /tune.)
	tn.MergeFanIn(w.cfg.MergeFanIn)
	kLo, kHi := tn.FanInRange(w.cfg.MergeFanIn)
	if kLo < 2 {
		kLo = 2
	}
	for k := kLo; k <= kHi && k <= len(w.segs); k++ {
		for i := 0; i+k <= len(w.segs); i++ {
			run := w.segs[i : i+k]
			if !w.tieredWindowOKLocked(run) {
				continue
			}
			consider(run, "merge", false)
		}
	}
	for _, s := range w.segs {
		if s.purgeable == 0 || s.quarantined.Load() {
			continue
		}
		frac := float64(s.purgeable) / float64(s.aliveDocs+s.purgeable)
		consider([]*segment{s}, "purge", frac >= w.cfg.PurgeDeadFrac)
	}
	return best
}

// tieredWindowOKLocked checks the structural constraints a tiered merge
// window must satisfy regardless of pricing: healthy inputs and one size
// tier.
func (w *Writer) tieredWindowOKLocked(run []*segment) bool {
	minDocs, maxDocs := run[0].docs, run[0].docs
	for _, s := range run {
		if s.quarantined.Load() {
			return false
		}
		if s.docs < minDocs {
			minDocs = s.docs
		}
		if s.docs > maxDocs {
			maxDocs = s.docs
		}
	}
	return maxDocs <= mergeTierFactor*minDocs
}

func (w *Writer) planTieredLocked() []*segment {
	k := w.cfg.MergeFanIn
	if k < 2 || len(w.segs) < k {
		return nil
	}
	var best []*segment
	bestDocs := int64(math.MaxInt64)
	for i := 0; i+k <= len(w.segs); i++ {
		run := w.segs[i : i+k]
		// A quarantined segment cannot be read reliably; merging it would
		// either fail or launder damaged data into a fresh segment.
		// Reverify must clear it first. (tieredWindowOKLocked also
		// enforces the tier spread.)
		if !w.tieredWindowOKLocked(run) {
			continue
		}
		var total int64
		for _, s := range run {
			total += int64(s.docs)
		}
		if total >= bestDocs {
			continue
		}
		stats := make([]cost.SegmentStats, len(run))
		for j, s := range run {
			stats[j] = segStats(s)
		}
		est, err := cost.EstimateMerge(stats, defaultTermsPerQuery, cost.DefaultPageWeight)
		if err != nil || !est.Worthwhile(w.cfg.MergeHorizon) {
			continue
		}
		best = append([]*segment(nil), run...)
		bestDocs = total
	}
	return best
}

func (w *Writer) planPurgeLocked() []*segment {
	var best *segment
	var bestFrac float64
	for _, s := range w.segs {
		if s.purgeable == 0 || s.quarantined.Load() {
			continue
		}
		// Fraction of *stored* documents (alive + tombstoned-but-stored).
		// The full id span would count long-purged holes in the
		// denominator, making old segments need ever more tombstones to
		// requalify — dead space would stop being reclaimed.
		frac := float64(s.purgeable) / float64(s.aliveDocs+s.purgeable)
		if frac >= w.cfg.PurgeDeadFrac && frac > bestFrac {
			best = s
			bestFrac = frac
		}
	}
	if best == nil {
		return nil
	}
	return []*segment{best}
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
