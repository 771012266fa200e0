package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/storage"
)

// RunHot (experiment HOT) measures the cache-amortized query path: a
// repeat-heavy Zipf query stream over a churning live index, served by
// three identically-built indexes — `off` (no caches, the truth), `on`
// (result cache + hot-block cache), and `blk` (block cache only) — so
// every cached answer can be held byte-identical to the uncached one.
//
// The phases:
//
//	cold:     the stream runs on `on` with every answer compared to
//	          `off`; first occurrence of a query misses, repeats hit.
//	warm:     the stream replays on `on`; every request hits, and the
//	          snapshot's decode/fault counters do not move at all.
//	blk/cold: a distinct query set runs on `blk`; blocks fault in and
//	          are admitted.
//	blk/warm: the same set replays; zero block faults (the cache serves
//	          the bytes), yet the decode counters grow by exactly the
//	          cold pass's amount — the cache amortizes I/O, never the
//	          decode plan, so answers stay byte-identical.
//	swap:     documents that the cold phase actually served are deleted
//	          (plus fresh ingest) on `on` and `off` alike; the commit
//	          moves the generation, which invalidates every cached
//	          result wholesale. The replayed stream re-evaluates
//	          (decodes grow again) and matches `off`'s fresh answers —
//	          no stale answer survives a commit.
//	burst:    concurrent identical queries singleflight; its counters
//	          are scheduling-dependent and ride along gate-exempt under
//	          the hot_ metric prefix, which is also why it runs last:
//	          every deterministic metric is recorded before it.
//
// The experiment also enforces the allocation budget the hot loop was
// audited to: a warmed MaxScore or Progressive engine runs a complete
// search with zero heap allocations (maxscore_allocs_per_op,
// progressive_allocs_per_op — hard zeros). Under the race detector
// sync.Pool drops Puts at random, so the measurement is skipped and the
// gate value recorded as-is; the non-race CI step asserts it for real.
func RunHot(s Scale, seed uint64) (*Table, error) {
	docs, stream := 3000, 150
	if s == ScaleFull {
		docs, stream = 10000, 400
	}
	const n = 10
	col, err := collection.Generate(collection.Config{
		NumDocs: docs, VocabSize: 6000, MeanDocLen: 90, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	// setA feeds the repeat-heavy stream; setB (different seed) is the
	// block-cache probe — queries the result cache has never seen.
	setA, err := collection.GenerateQueries(col, collection.QueryConfig{
		NumQueries: 20, MinTerms: 2, MaxTerms: 6, MaxDocFreqFrac: 0.3, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	setB, err := collection.GenerateQueries(col, collection.QueryConfig{
		NumQueries: 12, MinTerms: 2, MaxTerms: 6, MaxDocFreqFrac: 0.3, Seed: seed + 5,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	namesA, namesB := queryNames(col.Lex, setA), queryNames(col.Lex, setB)

	// The Zipf request stream: heavy repetition of the head queries —
	// the access pattern a result cache exists for.
	rng := rand.New(rand.NewSource(int64(seed) + 0x407))
	reqs := make([]int, stream)
	for i := range reqs {
		reqs[i] = int(math.Pow(rng.Float64(), 3) * float64(len(setA)))
	}

	// Three writers, identical layouts: seal only via the explicit
	// per-batch Flush, single-threaded segment fan-out so every counter
	// below is a deterministic function of the access sequence.
	open := func(tag string, resBytes, blkBytes int64) (*live.Writer, func(), error) {
		dir, err := os.MkdirTemp("", "topn-hot-"+tag+"-*")
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %w", err)
		}
		w, err := live.Open(live.Config{
			Dir: dir, SealDocs: docs * 2, PoolPages: 8, Workers: 1,
			ResultCacheBytes: resBytes, BlockCacheBytes: blkBytes,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return w, func() { w.Close(); os.RemoveAll(dir) }, nil
	}
	off, offDone, err := open("off", 0, 0)
	if err != nil {
		return nil, err
	}
	defer offDone()
	on, onDone, err := open("on", 32<<20, 8<<20)
	if err != nil {
		return nil, err
	}
	defer onDone()
	blk, blkDone, err := open("blk", 0, 8<<20)
	if err != nil {
		return nil, err
	}
	defer blkDone()
	all := []*live.Writer{off, on, blk}

	each := func(op func(w *live.Writer) error) error {
		for _, w := range all {
			if err := op(w); err != nil {
				return err
			}
		}
		return nil
	}
	for c := 0; c < 2; c++ {
		lo, hi := c*docs/2, (c+1)*docs/2
		for i := lo; i < hi; i++ {
			if err := each(func(w *live.Writer) error { _, err := w.Add(live.DocTerms(col.Lex, col.Docs[i])); return err }); err != nil {
				return nil, fmt.Errorf("bench: HOT ingest doc %d: %w", i, err)
			}
		}
		if err := each(func(w *live.Writer) error { return w.Flush() }); err != nil {
			return nil, err
		}
	}
	if on.Stats().Segments != off.Stats().Segments || blk.Stats().Segments != off.Stats().Segments {
		return nil, fmt.Errorf("bench: HOT layouts diverged: off %d, on %d, blk %d segments",
			off.Stats().Segments, on.Stats().Segments, blk.Stats().Segments)
	}

	// counters reads a writer's cumulative decode/fault counters through
	// a momentary snapshot (segments carry them across generations).
	counters := func(w *live.Writer) (decoded, faulted int64, err error) {
		snap, err := w.Acquire()
		if err != nil {
			return 0, 0, err
		}
		defer snap.Close()
		d, _, f := snap.Counters()
		return d, f, nil
	}
	sameAnswer := func(phase string, i int, got, want live.Result) error {
		if err := sameTop(got.Top, want.Top); err != nil {
			return fmt.Errorf("bench: HOT %s query %d diverges from the uncached answer: %w", phase, i, err)
		}
		if got.Exact != want.Exact || got.Degraded != want.Degraded {
			return fmt.Errorf("bench: HOT %s query %d certificate diverges: exact %v/%v degraded %v/%v",
				phase, i, got.Exact, want.Exact, got.Degraded, want.Degraded)
		}
		return nil
	}

	t := &Table{
		ID: "HOT",
		Title: fmt.Sprintf("cache-amortized hot query path: %d-request Zipf stream over %d queries, %d docs, %d segments",
			stream, len(setA), docs, off.Stats().Segments),
		Columns: []string{"phase", "requests", "res hits", "res misses", "decodedΔ", "faultedΔ", "blk hitsΔ"},
		Metrics: map[string]float64{},
	}
	offS, onS, blkS := off.Searcher(), on.Searcher(), blk.Searcher()

	// row brackets a phase on one writer with its counter deltas.
	row := func(w *live.Writer, phase string, body func() (int, error)) (live.CacheStats, int64, int64, error) {
		cs0 := w.CacheStats()
		d0, f0, err := counters(w)
		if err != nil {
			return live.CacheStats{}, 0, 0, err
		}
		requests, err := body()
		if err != nil {
			return live.CacheStats{}, 0, 0, err
		}
		d1, f1, err := counters(w)
		if err != nil {
			return live.CacheStats{}, 0, 0, err
		}
		cs1 := w.CacheStats()
		delta := live.CacheStats{
			ResultHits:   cs1.ResultHits - cs0.ResultHits,
			ResultMisses: cs1.ResultMisses - cs0.ResultMisses,
			BlockHits:    cs1.BlockHits - cs0.BlockHits,
		}
		t.AddRow(phase, requests, delta.ResultHits, delta.ResultMisses, d1-d0, f1-f0, delta.BlockHits)
		return delta, d1 - d0, f1 - f0, nil
	}

	// Phase 1 — cold: the stream on `on`, every answer held to `off`.
	coldTop := make(map[int]live.Result, len(setA))
	cold, _, _, err := row(on, "cold", func() (int, error) {
		for _, qi := range reqs {
			want, err := offS.Search(namesA[qi], n)
			if err != nil {
				return 0, err
			}
			got, err := onS.Search(namesA[qi], n)
			if err != nil {
				return 0, err
			}
			if err := sameAnswer("cold", qi, got, want); err != nil {
				return 0, err
			}
			coldTop[qi] = want
		}
		return len(reqs), nil
	})
	if err != nil {
		return nil, err
	}
	if cold.ResultHits+cold.ResultMisses != int64(stream) {
		return nil, fmt.Errorf("bench: HOT cold accounted %d+%d requests of %d",
			cold.ResultHits, cold.ResultMisses, stream)
	}
	if cold.ResultHits == 0 || cold.ResultMisses == 0 {
		return nil, fmt.Errorf("bench: HOT cold stream saw %d hits / %d misses; the Zipf mix must produce both",
			cold.ResultHits, cold.ResultMisses)
	}
	t.Metrics["cold_result_hits"] = float64(cold.ResultHits)
	t.Metrics["cold_result_misses"] = float64(cold.ResultMisses)

	// Phase 2 — warm: the replay is answered entirely from the result
	// cache; the engines do no work at all.
	warm, warmDec, warmFlt, err := row(on, "warm", func() (int, error) {
		for _, qi := range reqs {
			got, err := onS.Search(namesA[qi], n)
			if err != nil {
				return 0, err
			}
			if err := sameAnswer("warm", qi, got, coldTop[qi]); err != nil {
				return 0, err
			}
		}
		return len(reqs), nil
	})
	if err != nil {
		return nil, err
	}
	if warm.ResultHits != int64(stream) || warmDec != 0 || warmFlt != 0 {
		return nil, fmt.Errorf("bench: HOT warm replay not fully amortized: %d/%d hits, %d decodes, %d faults",
			warm.ResultHits, stream, warmDec, warmFlt)
	}
	t.Metrics["warm_all_hits"] = 1
	t.Metrics["warm_decoded_delta"] = float64(warmDec)
	t.Metrics["warm_faulted_delta"] = float64(warmFlt)

	// Phases 3/4 — the block cache alone (no result cache): the warm
	// pass repeats the cold pass's decode plan exactly while faulting
	// zero blocks.
	blkTop := make([]live.Result, len(setB))
	_, blkColdDec, blkColdFlt, err := row(blk, "blk/cold", func() (int, error) {
		for i := range setB {
			want, err := offS.Search(namesB[i], n)
			if err != nil {
				return 0, err
			}
			got, err := blkS.Search(namesB[i], n)
			if err != nil {
				return 0, err
			}
			if err := sameAnswer("blk/cold", i, got, want); err != nil {
				return 0, err
			}
			blkTop[i] = want
		}
		return len(setB), nil
	})
	if err != nil {
		return nil, err
	}
	blkWarm, blkWarmDec, blkWarmFlt, err := row(blk, "blk/warm", func() (int, error) {
		for i := range setB {
			got, err := blkS.Search(namesB[i], n)
			if err != nil {
				return 0, err
			}
			if err := sameAnswer("blk/warm", i, got, blkTop[i]); err != nil {
				return 0, err
			}
		}
		return len(setB), nil
	})
	if err != nil {
		return nil, err
	}
	if blkColdFlt == 0 {
		return nil, fmt.Errorf("bench: HOT blk/cold faulted no blocks — the probe never touched storage")
	}
	if blkWarmFlt != 0 || blkWarmDec != blkColdDec || blkWarm.BlockHits == 0 {
		return nil, fmt.Errorf("bench: HOT blk/warm: %d faults (want 0), %d decodes (cold %d), %d block hits",
			blkWarmFlt, blkWarmDec, blkColdDec, blkWarm.BlockHits)
	}
	t.Metrics["blk_warm_faults"] = float64(blkWarmFlt)
	t.Metrics["blk_decode_plan_stable"] = boolMetric(blkWarmDec == blkColdDec)
	t.Metrics["blk_warm_hits"] = float64(blkWarm.BlockHits)

	// Phase 5 — swap: churn both `on` and `off` identically, targeting
	// documents the cold phase served so the right answers provably
	// change, then hold the replay to `off`'s fresh answers.
	victims := map[uint32]bool{}
	for qi := 0; qi < len(setA) && len(victims) < 5; qi++ {
		if res, ok := coldTop[qi]; ok && len(res.Top) > 0 {
			victims[res.Top[0].DocID] = true
		}
	}
	churn := func(w *live.Writer) error {
		for id := range victims {
			if err := w.Delete(id); err != nil {
				return err
			}
		}
		for i := 0; i < 20; i++ {
			if _, err := w.Add(live.DocTerms(col.Lex, col.Docs[i])); err != nil {
				return err
			}
		}
		return w.Flush()
	}
	if err := churn(off); err != nil {
		return nil, fmt.Errorf("bench: HOT churn: %w", err)
	}
	if err := churn(on); err != nil {
		return nil, fmt.Errorf("bench: HOT churn: %w", err)
	}
	changed := false
	swap, swapDec, _, err := row(on, "swap", func() (int, error) {
		fresh := make(map[int]live.Result, len(setA))
		for _, qi := range reqs {
			want, ok := fresh[qi]
			if !ok {
				var err error
				want, err = offS.Search(namesA[qi], n)
				if err != nil {
					return 0, err
				}
				fresh[qi] = want
				if prev := coldTop[qi]; sameTop(want.Top, prev.Top) != nil {
					changed = true
				}
			}
			got, err := onS.Search(namesA[qi], n)
			if err != nil {
				return 0, err
			}
			if err := sameAnswer("swap", qi, got, want); err != nil {
				return 0, err
			}
		}
		return len(reqs), nil
	})
	if err != nil {
		return nil, err
	}
	if swapDec == 0 {
		return nil, fmt.Errorf("bench: HOT swap replay decoded nothing — the commit did not invalidate the result cache")
	}
	if !changed {
		return nil, fmt.Errorf("bench: HOT churn changed no answer — the staleness probe proves nothing")
	}
	if swap.ResultHits+swap.ResultMisses != int64(stream) || swap.ResultMisses == 0 {
		return nil, fmt.Errorf("bench: HOT swap accounted %d+%d requests of %d",
			swap.ResultHits, swap.ResultMisses, stream)
	}
	t.Metrics["swap_fresh_identical"] = 1
	t.Metrics["swap_answers_changed"] = 1
	t.Metrics["swap_reevaluated"] = boolMetric(swapDec > 0)
	t.Metrics["swap_result_misses"] = float64(swap.ResultMisses)

	// Phase 6 — singleflight burst, deliberately last: its split between
	// cache hits, shared answers, and own evaluations depends on
	// goroutine scheduling, so everything it touches is hot_-prefixed
	// (gate-exempt) and no deterministic metric is read after it.
	burstBase := on.CacheStats()
	want, err := offS.Search(namesA[0], n)
	if err != nil {
		return nil, err
	}
	const burstG, burstR = 8, 25
	var wg sync.WaitGroup
	burstErrs := make([]error, burstG)
	for g := 0; g < burstG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < burstR; r++ {
				got, err := onS.SearchContext(context.Background(), namesA[0], n)
				if err != nil {
					burstErrs[g] = err
					return
				}
				if err := sameAnswer("burst", 0, got, want); err != nil {
					burstErrs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range burstErrs {
		if err != nil {
			return nil, err
		}
	}
	burstCS := on.CacheStats()
	t.AddRow("burst", burstG*burstR, burstCS.ResultHits-burstBase.ResultHits,
		burstCS.ResultMisses-burstBase.ResultMisses, "-", "-",
		burstCS.BlockHits-burstBase.BlockHits)
	t.Metrics["hot_burst_hits"] = float64(burstCS.ResultHits - burstBase.ResultHits)
	t.Metrics["hot_burst_shared"] = float64(burstCS.SingleflightShared - burstBase.SingleflightShared)

	// Allocation gates: the audited hot loop of both engines runs a
	// warmed search with zero heap allocations.
	msAllocs, progAllocs, err := measureSearchAllocs(s, seed)
	if err != nil {
		return nil, err
	}
	if !raceEnabled && (msAllocs != 0 || progAllocs != 0) {
		return nil, fmt.Errorf("bench: HOT allocation budget broken: MaxScore %.1f, Progressive %.1f allocs/op (want 0)",
			msAllocs, progAllocs)
	}
	t.Metrics["maxscore_allocs_per_op"] = msAllocs
	t.Metrics["progressive_allocs_per_op"] = progAllocs

	t.Notes = append(t.Notes,
		"every cached answer is byte-identical to the uncached index's answer, including after",
		fmt.Sprintf("churn: a commit moves the generation and invalidates all %d cached results wholesale", int64(t.Metrics["cold_result_misses"])),
		"warm replay does zero decodes and zero faults; the block cache alone removes every warm",
		"fault while repeating the cold decode plan exactly (I/O amortized, plan untouched)",
		"a warmed MaxScore/Progressive search allocates nothing (testing.AllocsPerRun = 0)")
	if raceEnabled {
		t.Notes = append(t.Notes,
			"race detector active: sync.Pool drops Puts at random, so the alloc gate is informational here")
	}
	return t, nil
}

// measureSearchAllocs builds warmed MaxScore and Progressive engines
// over the shared workload and measures steady-state allocations per
// search — the same budget internal/core's alloc gates enforce, asserted
// here inside the benchmark suite so a regression fails the HOT table
// too. Under the race detector the measurement is skipped (reported as
// zero) because sync.Pool deliberately drops Puts there.
func measureSearchAllocs(s Scale, seed uint64) (msAllocs, progAllocs float64, err error) {
	if raceEnabled {
		return 0, 0, nil
	}
	w, err := NewWorkload(s, seed)
	if err != nil {
		return 0, 0, err
	}
	idx, err := index.Build(w.Col, w.Pool)
	if err != nil {
		return 0, 0, err
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		return 0, 0, err
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return 0, 0, err
	}
	mx, err := index.BuildMulti(w.Col, pool, []float64{0.02, 0.05, 0.15, 0.4})
	if err != nil {
		return 0, 0, err
	}
	prog, err := core.NewProgressive(mx, rank.NewBM25())
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	opts := core.ProgressiveOptions{N: 10}
	dst := make([]rank.DocScore, 0, 16)
	for _, q := range w.Queries {
		if dst, err = ms.SearchContextInto(ctx, q, 10, dst[:0]); err != nil {
			return 0, 0, err
		}
		r, err := prog.SearchContextInto(ctx, q, opts, dst[:0])
		if err != nil {
			return 0, 0, err
		}
		dst = r.Top
	}
	// A GC here means pools emptied by an earlier collection refill
	// during warmup, not during measurement.
	runtime.GC()
	probe := w.Queries
	if len(probe) > 8 {
		probe = probe[:8]
	}
	for _, q := range probe {
		q := q
		a := testing.AllocsPerRun(10, func() {
			var err error
			if dst, err = ms.SearchContextInto(ctx, q, 10, dst[:0]); err != nil {
				panic(err)
			}
		})
		msAllocs = math.Max(msAllocs, a)
		a = testing.AllocsPerRun(10, func() {
			r, err := prog.SearchContextInto(ctx, q, opts, dst[:0])
			if err != nil {
				panic(err)
			}
			dst = r.Top
		})
		progAllocs = math.Max(progAllocs, a)
	}
	return msAllocs, progAllocs, nil
}
