package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/storage"
)

// RunLive (experiment LIVE) measures the live-index layer end to end
// with an interleaved insert/delete/update/search workload: the
// collection streams through live.Writer in checkpointed batches, a
// deterministic churn pass deletes and updates a slice of the alive
// documents after every batch (churn is the fraction of the batch
// tombstoned, split evenly between plain deletes and updates that
// re-ingest the same content under a fresh id), and then the whole
// query workload probes the current snapshot. Each checkpoint reports
// the segment count (the fragmentation queries pay for), cumulative
// merges, churn accounting,
// and the deterministic decode/fault counters of the probe pass.
//
// Merging runs through MergeAll between batches rather than the
// background goroutine, so the segment layout — and with it every
// counter — is reproducible for the CI regression gate; the background
// path is exercised by internal/live's -race stress. The final state is
// verified byte-identical to a one-shot index.Build over the surviving
// documents (MaxScore top-10 per query, ids mapped through the survivor
// order), reported as the equiv metric — the delete path's headline
// guarantee.
//
// sealDocs/fanIn <= 0 pick scale-appropriate defaults; churn < 0 picks
// the default mix (0.2).
func RunLive(s Scale, seed uint64, sealDocs, fanIn int, churn float64) (*Table, error) {
	w, err := NewWorkload(s, seed)
	if err != nil {
		return nil, err
	}
	if sealDocs <= 0 {
		sealDocs = 200
		if s == ScaleFull {
			sealDocs = 2000
		}
	}
	if fanIn <= 0 {
		fanIn = 4
	}
	if churn < 0 {
		churn = 0.2
	}
	if churn > 1 {
		return nil, fmt.Errorf("bench: LIVE churn %v must be in [0, 1]", churn)
	}
	dir, err := os.MkdirTemp("", "topn-live-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	// One worker, as HOT and TUNE: the gate holds probe_decodes exactly,
	// and what a segment decodes depends on where the query's shared
	// threshold stands when it is searched, which only a fixed order fixes.
	lw, err := live.Open(live.Config{Dir: dir, SealDocs: sealDocs, MergeFanIn: fanIn, Workers: 1})
	if err != nil {
		return nil, err
	}
	defer lw.Close()

	const checkpoints = 5
	const n = 10
	t := &Table{
		ID: "LIVE",
		Title: fmt.Sprintf("live index: interleaved insert/delete/update/search (%d docs, %d queries/probe, seal=%d, fanIn=%d, churn=%.2g)",
			len(w.Col.Docs), len(w.Queries), sealDocs, fanIn, churn),
		Columns: []string{"docs", "deleted", "updated", "alive", "segments", "merges", "decodes", "blockFaults", "allExact"},
		Metrics: map[string]float64{},
	}

	names := w.QueryNames()

	// Alive bookkeeping: content[g] is the collection document the live
	// global id g currently carries (updates re-ingest the same content
	// under a fresh id). aliveIDs stays sorted by id — arrival order —
	// which is also the order the survivor baseline is built in.
	content := map[uint32]int{}
	var aliveIDs []uint32
	rng := rand.New(rand.NewSource(int64(seed) + 0x11fe))

	var probeDecodes, probeFaults int64
	var deleted, updated int64
	allExact := true
	for c := 0; c < checkpoints; c++ {
		lo := c * len(w.Col.Docs) / checkpoints
		hi := (c + 1) * len(w.Col.Docs) / checkpoints

		for i := lo; i < hi; i++ {
			id, err := lw.Add(live.DocTerms(w.Col.Lex, w.Col.Docs[i]))
			if err != nil {
				return nil, fmt.Errorf("bench: LIVE ingest doc %d: %w", i, err)
			}
			content[id] = i
			aliveIDs = append(aliveIDs, id)
		}
		// Churn pass: tombstone churn×batch alive documents — half
		// deleted outright, half updated (delete + re-ingest under a new
		// id). Deterministic in the workload seed, so the gate's
		// counters are stable.
		kill := int(churn * float64(hi-lo))
		for k := 0; k < kill && len(aliveIDs) > 1; k++ {
			pick := rng.Intn(len(aliveIDs))
			id := aliveIDs[pick]
			aliveIDs = append(aliveIDs[:pick], aliveIDs[pick+1:]...)
			doc := content[id]
			delete(content, id)
			if k%2 == 0 {
				if err := lw.Delete(id); err != nil {
					return nil, fmt.Errorf("bench: LIVE delete doc %d: %w", id, err)
				}
				deleted++
			} else {
				nid, err := lw.Update(id, live.DocTerms(w.Col.Lex, w.Col.Docs[doc]))
				if err != nil {
					return nil, fmt.Errorf("bench: LIVE update doc %d: %w", id, err)
				}
				content[nid] = doc
				aliveIDs = append(aliveIDs, nid) // ids grow monotonically: still sorted
				updated++
			}
		}
		if err := lw.Flush(); err != nil {
			return nil, err
		}
		if err := lw.MergeAll(); err != nil {
			return nil, err
		}

		snap, err := lw.Acquire()
		if err != nil {
			return nil, err
		}
		snap.ResetCounters()
		exact := true
		for i := range w.Queries {
			res, err := snap.Search(names[i], n)
			if err != nil {
				snap.Close()
				return nil, fmt.Errorf("bench: LIVE probe query %d: %w", i, err)
			}
			exact = exact && res.Exact
		}
		decoded, _, faulted := snap.Counters()
		segments := snap.Segments()
		snap.Close()
		probeDecodes += decoded
		probeFaults += faulted
		allExact = allExact && exact

		// deleted counts plain deletes only; an update's tombstone is
		// reported in its own column (WriterStats.DocsDeleted would
		// count both and double-report updates).
		st := lw.Stats()
		t.AddRow(hi, deleted, updated, st.DocsAlive, segments, st.Merges, decoded, faulted, exact)
	}

	// Equivalence: the final live state must answer exactly like a
	// one-shot build over the surviving documents — the churn-proof
	// guarantee. The baseline re-interns a fresh lexicon over the
	// survivors in arrival order, so its statistics cover exactly what
	// survived; live global ids map to baseline ids through the sorted
	// survivor list.
	sub, fromLive, err := survivorCollection(w.Col, aliveIDs, content)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(sub, pool)
	if err != nil {
		return nil, err
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		return nil, err
	}
	searcher := lw.Searcher()
	for i := range w.Queries {
		res, err := searcher.Search(names[i], n)
		if err != nil {
			return nil, err
		}
		q := collection.Query{}
		for _, name := range names[i] {
			if id := sub.Lex.Lookup(name); id != lexicon.InvalidTerm {
				q.Terms = append(q.Terms, id)
			}
		}
		want, err := ms.Search(q, n)
		if err != nil {
			return nil, err
		}
		for j := range want {
			want[j].DocID = fromLive[want[j].DocID]
		}
		if err := sameTop(res.Top, want); err != nil {
			return nil, fmt.Errorf("bench: LIVE diverged from the one-shot survivor build on query %d: %w", i, err)
		}
	}

	st := lw.Stats()
	t.Metrics["docs"] = float64(st.DocsSealed)
	t.Metrics["deleted"] = float64(deleted)
	t.Metrics["updated"] = float64(updated)
	t.Metrics["alive"] = float64(st.DocsAlive)
	t.Metrics["seals"] = float64(st.Seals)
	t.Metrics["merges"] = float64(st.Merges)
	t.Metrics["segments_final"] = float64(st.Segments)
	t.Metrics["probe_decodes"] = float64(probeDecodes)
	t.Metrics["probe_block_faults"] = float64(probeFaults)
	t.Metrics["all_exact"] = boolMetric(allExact)
	t.Metrics["equiv"] = 1

	t.Notes = append(t.Notes,
		"every probe answer carries the merge's exactness certificate; the final state is",
		"verified byte-identical to a one-shot index.Build over the *surviving* documents",
		fmt.Sprintf("churn=%.2g: %d deletes + %d updates tombstoned; merges purge dead postings and", churn, deleted, updated),
		fmt.Sprintf("re-tighten bounds; seals=%d merges=%d -> %d active segments, %d docs alive",
			st.Seals, st.Merges, st.Segments, st.DocsAlive),
		"decodes/blockFaults are probe-side only")
	return t, nil
}

// survivorCollection builds a fresh collection over the surviving
// documents in arrival (id) order: a new lexicon interned from scratch,
// so its statistics cover exactly the survivors — the reference a
// churned live index must match. It also returns the map from baseline
// ids back to live global ids.
func survivorCollection(col *collection.Collection, aliveIDs []uint32, content map[uint32]int) (*collection.Collection, []uint32, error) {
	sub := &collection.Collection{Lex: lexicon.New()}
	for i, id := range aliveIDs {
		src := &col.Docs[content[id]]
		d := collection.Document{ID: uint32(i)}
		for _, tf := range src.Terms {
			d.Terms = append(d.Terms, collection.TermFreq{
				Term: sub.Lex.Intern(col.Lex.Name(tf.Term)), TF: tf.TF,
			})
			d.Len += tf.TF
		}
		// Fresh interning order need not match the original: restore the
		// ascending-term-id invariant documents carry.
		sort.Slice(d.Terms, func(a, b int) bool { return d.Terms[a].Term < d.Terms[b].Term })
		for _, tf := range d.Terms {
			if err := sub.Lex.Record(tf.Term, int(tf.TF)); err != nil {
				return nil, nil, err
			}
		}
		sub.Docs = append(sub.Docs, d)
		sub.TotalTokens += int64(d.Len)
	}
	if len(sub.Docs) > 0 {
		sub.AvgDocLen = float64(sub.TotalTokens) / float64(len(sub.Docs))
	}
	return sub, aliveIDs, nil
}

// sameTop compares two rankings: identical ids in identical order,
// scores within float addition-order noise.
func sameTop(got, want []rank.DocScore) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID {
			return fmt.Errorf("position %d is doc %d, want %d", i, got[i].DocID, want[i].DocID)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > 1e-9 {
			return fmt.Errorf("score mismatch at %d: %v vs %v", i, got[i].Score, want[i].Score)
		}
	}
	return nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
