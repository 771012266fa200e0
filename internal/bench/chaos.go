package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"

	"repro/internal/collection"
	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/storage"
)

// chaosDevices is the WrapDevice seam of the CHAOS experiment: every
// segment the faulted index opens is wrapped in a seeded FaultDevice
// and remembered in open order, so the schedule can arm faults on one
// specific segment.
type chaosDevices struct {
	mu    sync.Mutex
	names []string
	devs  map[string]*storage.FaultDevice
}

func (r *chaosDevices) wrap(name string, dev storage.Device) storage.Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := storage.NewFaultDevice(dev, int64(len(r.names))+0xc4a05)
	r.names = append(r.names, name)
	r.devs[name] = f
	return f
}

// RunChaos (experiment CHAOS) replays a LIVE-style churned ingest into
// two identical live indexes — one pristine, one whose every segment
// device is wrapped in a scripted FaultDevice — and then probes the
// faulted index through three fault phases, holding every answer to the
// robustness contract: byte-identical to the fault-free answer, or
// explicitly degraded with a certificate naming the skipped segments
// and every served document carrying its true global score. Never
// silently wrong, never a failed query, never a panic.
//
// The phases:
//
//	transient: every page of every segment fails exactly once; the
//	           pool's bounded retry absorbs all of it — every answer
//	           exact and identical, retries counted, zero surfaced
//	           faults, zero quarantines.
//	permanent: one segment's device fails permanently; its first
//	           touch quarantines it and every later answer either
//	           matches the fault-free answer (query never needed the
//	           sick segment) or carries a degraded certificate.
//	recovered: the fault clears, one Reverify pass returns the
//	           segment to service, and every answer is exact and
//	           byte-identical to fault-free again.
//
// CHAOS generates its own workload instead of the shared one: the
// faulted index runs on a floor-sized buffer pool, and the queries use
// frequent terms (no stopword cap), so their postings dwarf the cache
// and every probe keeps performing physical reads — with the shared
// workload's rare-term queries the handful of relevant pages would sit
// fully cached and no probe would ever touch the fault layer. The
// chaos_* counters depend on cache scheduling (parallel probes race
// for pool pages), so the regression gate exempts them like load_*;
// the contract metrics (all_exact_or_degraded, silent_wrong,
// recovered_exact) are hard.
func RunChaos(s Scale, seed uint64) (*Table, error) {
	docs, batches := 5000, 2
	if s == ScaleFull {
		docs, batches = 15000, 5
	}
	col, err := collection.Generate(collection.Config{
		NumDocs: docs, VocabSize: 6000, MeanDocLen: 90, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	queries, err := collection.GenerateQueries(col, collection.QueryConfig{
		NumQueries: 25, MinTerms: 2, MaxTerms: 6, MaxDocFreqFrac: 0.3, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	const n = 10
	const churn = 0.1

	names := queryNames(col.Lex, queries)

	refDir, err := os.MkdirTemp("", "topn-chaos-ref-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(refDir)
	fltDir, err := os.MkdirTemp("", "topn-chaos-flt-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(fltDir)

	// SealDocs above the collection size: segments come only from the
	// explicit per-batch Flush, so both indexes build the same layout.
	reg := &chaosDevices{devs: map[string]*storage.FaultDevice{}}
	ref, err := live.Open(live.Config{Dir: refDir, SealDocs: len(col.Docs) * 2})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	flt, err := live.Open(live.Config{
		Dir: fltDir, SealDocs: len(col.Docs) * 2, PoolPages: 8, WrapDevice: reg.wrap,
	})
	if err != nil {
		return nil, err
	}
	defer flt.Close()

	// Identical churned ingest into both: per batch, add the slice, then
	// tombstone churn×batch alive documents (half deletes, half updates
	// re-ingesting the same content — both writers assign the same ids,
	// so one op sequence drives both), then seal.
	both := func(op func(lw *live.Writer) error) error {
		if err := op(ref); err != nil {
			return err
		}
		return op(flt)
	}
	content := map[uint32]int{}
	var aliveIDs []uint32
	rng := rand.New(rand.NewSource(int64(seed) + 0xc4a0))
	for c := 0; c < batches; c++ {
		lo := c * len(col.Docs) / batches
		hi := (c + 1) * len(col.Docs) / batches
		for i := lo; i < hi; i++ {
			var id uint32
			err := both(func(lw *live.Writer) error {
				var err error
				id, err = lw.Add(live.DocTerms(col.Lex, col.Docs[i]))
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: CHAOS ingest doc %d: %w", i, err)
			}
			content[id] = i
			aliveIDs = append(aliveIDs, id)
		}
		kill := int(churn * float64(hi-lo))
		for k := 0; k < kill && len(aliveIDs) > 1; k++ {
			pick := rng.Intn(len(aliveIDs))
			id := aliveIDs[pick]
			aliveIDs = append(aliveIDs[:pick], aliveIDs[pick+1:]...)
			doc := content[id]
			delete(content, id)
			if k%2 == 0 {
				if err := both(func(lw *live.Writer) error { return lw.Delete(id) }); err != nil {
					return nil, fmt.Errorf("bench: CHAOS delete doc %d: %w", id, err)
				}
			} else {
				var nid uint32
				err := both(func(lw *live.Writer) error {
					var err error
					nid, err = lw.Update(id, live.DocTerms(col.Lex, col.Docs[doc]))
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: CHAOS update doc %d: %w", id, err)
				}
				content[nid] = doc
				aliveIDs = append(aliveIDs, nid)
			}
		}
		if err := both(func(lw *live.Writer) error { return lw.Flush() }); err != nil {
			return nil, err
		}
	}
	if got, want := flt.Stats().Segments, ref.Stats().Segments; got != want {
		return nil, fmt.Errorf("bench: CHAOS layouts diverged: %d vs %d segments", got, want)
	}

	// The fault-free truth: the top-n answer per query, plus the exact
	// global score of every matching document (a full-depth ranking) —
	// the measure a degraded answer's served documents are held to.
	refSearch := ref.Searcher()
	full := int(ref.Stats().DocsAlive)
	refTop := make([][]rank.DocScore, len(queries))
	refScore := make([]map[uint32]float64, len(queries))
	for i := range queries {
		res, err := refSearch.Search(names[i], n)
		if err != nil {
			return nil, err
		}
		refTop[i] = res.Top
		all, err := refSearch.Search(names[i], full)
		if err != nil {
			return nil, err
		}
		refScore[i] = make(map[uint32]float64, len(all.Top))
		for _, ds := range all.Top {
			refScore[i][ds.DocID] = ds.Score
		}
	}

	t := &Table{
		ID: "CHAOS",
		Title: fmt.Sprintf("fault injection: churned live index under transient/permanent/recovered fault schedules (%d docs, %d segments, %d queries/phase)",
			len(col.Docs), ref.Stats().Segments, len(queries)),
		Columns: []string{"phase", "queries", "exact", "degraded", "retries", "faults", "quarantined"},
		Metrics: map[string]float64{},
	}

	// probe runs the whole query set against the faulted index and holds
	// every answer to the contract. It returns how many answers were
	// explicitly degraded; anything silently wrong is an error.
	fltSearch := flt.Searcher()
	probe := func(phase string) (exact, degraded int, err error) {
		before := flt.FaultStats()
		for i := range queries {
			res, err := fltSearch.Search(names[i], n)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: CHAOS %s query %d failed instead of degrading: %w", phase, i, err)
			}
			if !res.Degraded {
				if !res.Exact {
					return 0, 0, fmt.Errorf("bench: CHAOS %s query %d neither exact nor degraded", phase, i)
				}
				if err := sameTop(res.Top, refTop[i]); err != nil {
					return 0, 0, fmt.Errorf("bench: CHAOS %s query %d silently wrong: %w", phase, i, err)
				}
				exact++
				continue
			}
			// A degraded answer must say so coherently and serve only
			// documents at their true global scores, in rank order.
			c := res.Cert
			if res.Exact || c.ShardsServed >= c.ShardsTotal || len(c.Skipped) == 0 {
				return 0, 0, fmt.Errorf("bench: CHAOS %s query %d has an incoherent certificate %+v", phase, i, c)
			}
			for j, ds := range res.Top {
				want, ok := refScore[i][ds.DocID]
				if !ok || math.Abs(ds.Score-want) > 1e-9 {
					return 0, 0, fmt.Errorf("bench: CHAOS %s query %d serves doc %d at score %v, true score %v",
						phase, i, ds.DocID, ds.Score, want)
				}
				if j > 0 && ds.Score > res.Top[j-1].Score {
					return 0, 0, fmt.Errorf("bench: CHAOS %s query %d degraded answer out of rank order", phase, i)
				}
			}
			degraded++
		}
		after := flt.FaultStats()
		t.AddRow(phase, len(queries), exact, degraded,
			after.ReadRetries-before.ReadRetries, after.ReadFaults-before.ReadFaults,
			after.QuarantinedSegments)
		return exact, degraded, nil
	}

	// Phase 1 — transient: every page of every segment fails exactly
	// once; bounded retry absorbs all of it.
	reg.mu.Lock()
	devNames := append([]string(nil), reg.names...)
	reg.mu.Unlock()
	sort.Strings(devNames)
	for _, name := range devNames {
		dev := reg.devs[name]
		for id := storage.PageID(1); id <= 1<<14; id++ {
			dev.FailPage(id, 1)
		}
	}
	if _, degraded, err := probe("transient"); err != nil {
		return nil, err
	} else if degraded != 0 {
		return nil, fmt.Errorf("bench: CHAOS transient faults degraded %d answers; retry must absorb them", degraded)
	}
	fs := flt.FaultStats()
	if fs.ReadRetries == 0 {
		return nil, fmt.Errorf("bench: CHAOS probes never touched the fault layer — the experiment asserts nothing")
	}
	if fs.ReadFaults != 0 || fs.QuarantinedSegments != 0 {
		return nil, fmt.Errorf("bench: CHAOS transient phase surfaced faults: %+v", fs)
	}
	t.Metrics["chaos_transient_retries"] = float64(fs.ReadRetries)

	// Phase 2 — permanent: the last-opened (current) segment's device
	// fails for good; first touch quarantines it.
	sick := devNames[len(devNames)-1]
	reg.devs[sick].FailAll(true)
	_, degraded, err := probe("permanent")
	if err != nil {
		return nil, err
	}
	fs = flt.FaultStats()
	if degraded == 0 || fs.QuarantinedSegments != 1 {
		return nil, fmt.Errorf("bench: CHAOS permanent fault never degraded an answer (%d degraded, %+v)", degraded, fs)
	}
	t.Metrics["chaos_degraded_queries"] = float64(fs.DegradedQueries)
	t.Metrics["chaos_read_faults"] = float64(fs.ReadFaults)

	// Phase 3 — recovered: the fault clears, one re-verification pass
	// returns the segment to service.
	reg.devs[sick].Clear()
	if rec := flt.Reverify(); rec != 1 {
		return nil, fmt.Errorf("bench: CHAOS Reverify recovered %d segments after the fault cleared, want 1", rec)
	}
	exact, degraded, err := probe("recovered")
	if err != nil {
		return nil, err
	}
	if degraded != 0 || exact != len(queries) {
		return nil, fmt.Errorf("bench: CHAOS recovered index still degraded (%d exact, %d degraded)", exact, degraded)
	}
	fs = flt.FaultStats()

	// The contract metrics are hard (any violation errored out above);
	// the chaos_* counters ride along exempt from exact comparison.
	t.Metrics["all_exact_or_degraded"] = 1
	t.Metrics["silent_wrong"] = 0
	t.Metrics["recovered_exact"] = 1
	t.Metrics["quarantine_recovered"] = boolMetric(fs.Recovered >= 1 && fs.QuarantinedSegments == 0)
	t.Metrics["chaos_quarantines"] = float64(fs.Quarantines)
	t.Metrics["chaos_recovered"] = float64(fs.Recovered)
	t.Metrics["chaos_read_retries"] = float64(fs.ReadRetries)

	t.Notes = append(t.Notes,
		"every answer under every schedule is byte-identical to the fault-free answer or",
		"explicitly degraded (certificate names the skipped segments; served documents carry",
		"their true global scores in rank order) — never silently wrong, never a failed query",
		fmt.Sprintf("transient: one scripted failure per page, all absorbed by retry (%d retries);",
			int64(t.Metrics["chaos_transient_retries"])),
		fmt.Sprintf("permanent: segment %s quarantined on first touch, served around; recovered:", sick),
		"faults cleared, one Reverify pass returned it to service with exact answers")
	return t, nil
}
