package topk

import "repro/internal/rank"

// ShardTop is one shard's contribution to a scatter/gather top-N query:
// the shard-local top list (already carrying globally meaningful document
// ids and scores) plus the bound administration the merge needs to decide
// whether the combined answer is provably the exact global top N.
//
// Bound is an upper bound on two quantities at once: how much any
// *reported* score may understate the document's true score, and the
// maximum true score of any shard document the shard never touched. A
// shard that ran to completion (exact evaluation) reports Bound == 0.
// Truncated reports whether the shard held more candidates than it
// returned; a truncated shard may hide documents scoring up to its
// weakest reported score plus Bound.
//
// Floor is the threshold the shard pruned under when it was handed one
// from outside (a Threshold shared across the shards of one query): the
// shard reports only documents scoring at least Floor, whatever else it
// holds. 0 means the shard pruned against nothing but its own top list.
type ShardTop struct {
	Top       []rank.DocScore
	Bound     float64
	Truncated bool
	Floor     float64
}

// MergeShards combines per-shard top lists into the global top n,
// maintaining the upper/lower bound administration across shards the same
// way NRA maintains it across sources. It returns the merged ranking and
// an exactness certificate: exact == true guarantees the returned set is
// the true global top N, provided each shard computed its own top list
// for at least n results (document-range sharding makes per-shard results
// disjoint, so the global top N is always a subset of the union of exact
// per-shard top Ns).
//
// The certificate logic: a document excluded from the merged answer is
// either (a) reported by some shard but displaced during the merge — its
// true score is at most its reported score plus that shard's Bound — or
// (b) never reported by its shard, in which case it is bounded by the
// shard's hidden-mass cap (Bound for untouched documents, weakest
// reported score plus Bound when the shard truncated). The answer is
// exact when the merged N-th score is at least every excluded document's
// cap, with ties resolved conservatively: an excluded document whose cap
// *equals* the N-th score only keeps exactness when its shard's Bound is
// zero, because then the deterministic (score, docid) tie-break ordering
// is applied to true scores on both sides.
//
// A floored shard adds one rule: the documents it left out for scoring
// below its Floor rank strictly after the merged N-th document only when
// there are n merged documents and Floor is at most the N-th score.
// Otherwise the floor was earned from documents that are not in this
// merge (a shard dropped after it raised the shared threshold), and the
// certificate is refused.
func MergeShards(shards []ShardTop, n int) (top []rank.DocScore, exact bool) {
	if n <= 0 {
		return nil, false
	}
	h, _ := NewHeap(n) // n > 0 was just checked
	for _, s := range shards {
		for _, ds := range s.Top {
			h.Offer(ds)
		}
	}
	top = h.Results()

	if len(top) == 0 {
		// Nothing reported anywhere: exact iff no shard can be hiding
		// positive-score documents.
		for _, s := range shards {
			if s.Bound > 0 || s.Floor > 0 {
				return top, false
			}
		}
		return top, true
	}

	nth := top[len(top)-1]
	haveN := len(top) == n
	// Only an inexact shard's displaced documents are looked up in the
	// merged top; the all-exact merge (every live query) never builds it.
	var inTop map[uint32]bool

	for _, s := range shards {
		if s.Floor > 0 && (!haveN || s.Floor > nth.Score) {
			return top, false
		}
		if s.Bound == 0 {
			// Exact shard: reported scores are true scores, so the heap
			// already applied the exact deterministic ordering to any
			// displaced document, and hidden documents rank strictly
			// after everything reported — they only matter when the
			// shard reported fewer than n results while still holding
			// more (an inconsistent input, treated conservatively).
			if s.Truncated && len(s.Top) < n {
				return top, false
			}
			continue
		}
		// (a) Reported-but-displaced documents.
		if inTop == nil {
			inTop = make(map[uint32]bool, len(top))
			for _, ds := range top {
				inTop[ds.DocID] = true
			}
		}
		for _, ds := range s.Top {
			if inTop[ds.DocID] {
				continue
			}
			capScore := rank.DocScore{DocID: ds.DocID, Score: ds.Score + s.Bound}
			if !rank.Less(capScore, nth) {
				return top, false
			}
		}
		// (b) Documents the shard never reported.
		hidden := s.Bound // cap for documents the shard never touched
		if s.Truncated && len(s.Top) > 0 {
			hidden = s.Top[len(s.Top)-1].Score + s.Bound
		}
		if !haveN || hidden >= nth.Score {
			return top, false
		}
	}
	return top, true
}
