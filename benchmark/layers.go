package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/blockcache"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/live"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// Sizes of the in-process layer passes. They are counts, not times, so
// that the counted metrics (decodes, skips, faults per query) repeat
// exactly on the read-only workloads.
const (
	layerQueries   = 500   // queries of the engine, fan-out and live passes
	offerQueries   = 150   // queries whose full score stream feeds Heap.Offer
	handlerQueries = 2000  // draws sent through Server.Handler in process
	cacheHitProbes = 2000  // repeats of one identical search
	poolHitProbes  = 50000 // fetches of resident pages
	blockProbes    = 200000
)

// defaultSealDocs is live.Config's default seal threshold, under which
// every set-up ingests: every defaultSealDocs-th Add seals a segment.
const defaultSealDocs = 512

// tracedPass is the run behind -trace 1: the in-process layer passes
// over the state the set-up left, then an untraced and a traced window
// over the socket (their difference is the tracing overhead), then, on
// ingest-mix, the write script beside a traced reader. It fills the
// per-layer metrics; every time it reports is taken outside-in, around
// calls into the layers' public functions.
func (s *session) tracedPass() error {
	var st *writerState
	if s.wl.writes {
		st = newWriterState(s.env.ingestedDocs)
	}
	check, err := s.prepareChecks(st)
	if err != nil {
		return fmt.Errorf("pre-check: %w", err)
	}
	r := s.res
	ctx := context.Background()

	r.set("ref.kernel_ns", refKernelNS(), "ns")
	if err := s.postingsPass(); err != nil {
		return fmt.Errorf("postings pass: %w", err)
	}
	if err := s.storagePass(); err != nil {
		return fmt.Errorf("storage pass: %w", err)
	}
	if err := s.indexPass(); err != nil {
		return fmt.Errorf("index pass: %w", err)
	}
	if err := s.enginePass(ctx); err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	fan, err := s.fanoutPass(ctx)
	if err != nil {
		return fmt.Errorf("fan-out pass: %w", err)
	}
	handlerP50US, err := s.livePass(ctx, fan)
	if err != nil {
		return fmt.Errorf("live pass: %w", err)
	}

	// The socket windows. Cache counters are read around them, so the
	// cache ratios describe the served traffic and nothing else.
	cache0 := s.env.w.CacheStats()
	share := 0.4
	if s.wl.writes {
		share = 0.2
	}
	plain, err := s.runWindow(s.env.addr, share*s.o.seconds, check, nil, nil)
	if err != nil {
		return err
	}
	traced, err := s.runWindow(s.env.tracedAddr, share*s.o.seconds, check, nil, s.tr)
	if err != nil {
		return err
	}
	r.Attempted = plain.load.attempted + traced.load.attempted
	r.Failed = plain.load.failed + traced.load.failed
	r.set("trace.overhead_frac", (traced.p50MS()-plain.p50MS())/plain.p50MS(), "ratio")
	r.set("server.net_self_us", 1000*plain.p50MS()-handlerP50US, "us")
	r.Samples["server.net_self_us"] = len(plain.load.latMS)

	// Write side: the spans around the writer's public calls. On a
	// read-only workload they are the set-up's bulk ingest; on
	// ingest-mix the fixed script, run now beside a traced reader.
	writeSpans := s.tr.snapshot()
	maint := s.env.ingestMaint
	stats := s.env.w.Stats()
	seals := s.env.ingestedDocs / defaultSealDocs // the bulk ingest's Adds that sealed
	if s.wl.writes {
		mark := s.tr.len()
		before := s.env.w.Stats()
		mixed, err := s.runWindow(s.env.tracedAddr, 0.6*s.o.seconds, shapeChecker, st, s.tr)
		if err != nil {
			return err
		}
		if _, err := s.checkSurvivors(st); err != nil {
			return fmt.Errorf("after quiesce: %w", err)
		}
		r.Attempted += mixed.load.attempted
		r.Failed += mixed.load.failed
		writeSpans = s.tr.snapshot()[mark:]
		maint = s.env.w.MaintStats()
		stats = s.env.w.Stats()
		seals = int(stats.Seals-before.Seals) - 1 // the closing Flush seals outside Add
		r.Notes = append(r.Notes, fmt.Sprintf(
			"write script beside a traced reader: %d operations, reader p50 %.3f ms p99 %.3f ms; live.merge_ms_total is merge_reencoded x index.merge_ns_per_posting (background merges cannot be timed from outside)",
			mixed.write.ops, mixed.p50MS(), mixed.tailMS()))
	}
	s.writeMetrics(writeSpans, maint, stats, seals)

	cache1 := s.env.w.CacheStats()
	r.set("blockcache.hit_rate", ratio(cache1.BlockHits-cache0.BlockHits,
		cache1.BlockHits-cache0.BlockHits+cache1.BlockMisses-cache0.BlockMisses), "ratio")
	r.set("blockcache.reject_ratio", ratio(cache1.BlockRejects-cache0.BlockRejects,
		cache1.BlockRejects-cache0.BlockRejects+cache1.BlockAdmits-cache0.BlockAdmits), "ratio")
	lookups := cache1.ResultHits - cache0.ResultHits + cache1.ResultMisses - cache0.ResultMisses
	r.set("live.result_cache_hit_rate", ratio(cache1.ResultHits-cache0.ResultHits, lookups), "ratio")
	r.Samples["live.result_cache_hit_rate"] = int(lookups)
	r.set("live.singleflight_shared", float64(cache1.SingleflightShared-cache0.SingleflightShared), "count")
	// The engines run only on a result-cache miss, so their share of what
	// a client waits for is their time on the miss path times the miss rate.
	missRate := 1.0
	if lookups > 0 {
		missRate = ratio(cache1.ResultMisses-cache0.ResultMisses, lookups)
	}
	engineUS := fan.coreUS + fan.mergeUS
	r.Notes = append(r.Notes, fmt.Sprintf(
		"socket p50 %.1f us untraced, %.1f us traced; postings+core+topk %.1f us on a result-cache miss x miss rate %.3f = %.1f%% of the untraced p50",
		1000*plain.p50MS(), 1000*traced.p50MS(), engineUS, missRate, 100*missRate*engineUS/(1000*plain.p50MS())))
	snap := s.env.srv.Metrics().Snapshot()
	r.set("server.shed_frac", ratio(snap.Shed, snap.Requests), "ratio")
	if snap.Shed > 0 {
		return fmt.Errorf("the server shed %d requests: the run is invalid", snap.Shed)
	}
	if r.Failed > 0 {
		r.Notes = append(r.Notes, "first failure: "+plain.load.firstFailure+traced.load.firstFailure)
	}
	r.Correct = r.Failed == 0
	return nil
}

// ratio is part/whole, 0 when there was nothing to divide.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// meanSince is the mean time per operation since t0, in unit (e.g.
// time.Microsecond).
func meanSince(t0 time.Time, ops int, unit time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(time.Since(t0)) / float64(unit) / float64(ops)
}

// layerReps is how often each timed in-process pass is repeated; the
// reported time is the median of the repetitions, so one disturbed
// repetition cannot move it.
const layerReps = 3

// medianReps runs pass layerReps times. pass returns one value per
// quantity it measures; medianReps returns the element-wise medians.
func medianReps(pass func() ([]float64, error)) ([]float64, error) {
	var columns [][]float64
	for rep := 0; rep < layerReps; rep++ {
		vs, err := pass()
		if err != nil {
			return nil, err
		}
		if columns == nil {
			columns = make([][]float64, len(vs))
		}
		for i, v := range vs {
			columns[i] = append(columns[i], v)
		}
	}
	out := make([]float64, len(columns))
	for i, c := range columns {
		out[i] = median(c)
	}
	return out, nil
}

// refKernelNS times a fixed varint-sum loop over 1 MiB and returns the
// median nanoseconds per varint. Every layer time can be read as a
// multiple of it, which cancels the machine.
func refKernelNS() float64 {
	rng := xrand.New(1) // fixed: the kernel is the same on every seed
	buf := make([]byte, 0, 1<<20)
	n := 0
	for len(buf) < 1<<20-binary.MaxVarintLen32 {
		buf = binary.AppendUvarint(buf, uint64(rng.Intn(1<<14)))
		n++
	}
	var times []float64
	var sink uint64
	for rep := 0; rep < 21; rep++ {
		t0 := time.Now()
		for off := 0; off < len(buf); {
			v, w := binary.Uvarint(buf[off:])
			sink += v
			off += w
		}
		times = append(times, float64(time.Since(t0))/float64(n))
	}
	if sink == 0 {
		return 0 // keeps the loop from being optimised away
	}
	return median(times)
}

// refQueries resolves the first layerQueries queries against the
// one-shot reference.
func (s *session) refQueries(n int) []collection.Query {
	n = min(n, len(s.queries))
	qs := make([]collection.Query, n)
	for i := range qs {
		qs[i] = s.ref.resolve(s.queries[i])
	}
	return qs
}

// postingsPass times the block codec on the one-shot reference index,
// where nothing but the codec is in the way: decode through
// Index.Reader and Iterator.Next over every query term's list, SeekGE
// replaying the probes a document-at-a-time engine makes (every other
// list of the query is sought to each document of its shortest list, in
// order), and EncodeBlocks on the same lists.
func (s *session) postingsPass() error {
	idx := s.ref.idx
	qs := s.refQueries(layerQueries)
	var decoded, seeks, encoded int64
	times, err := medianReps(func() ([]float64, error) {
		decoded, seeks, encoded = 0, 0, 0
		var decodeT, seekT, encodeT time.Duration
		for _, q := range qs {
			var shortest []uint32
			for _, t := range q.Terms {
				it, ok, err := idx.Reader(t)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				var docs []uint32
				t0 := time.Now()
				for it.Next() {
					docs = append(docs, it.At().DocID)
				}
				decodeT += time.Since(t0)
				err = it.Err()
				it.Close()
				if err != nil {
					return nil, err
				}
				decoded += int64(len(docs))
				if shortest == nil || len(docs) < len(shortest) {
					shortest = docs
				}
			}
			for _, t := range q.Terms {
				it, ok, err := idx.Reader(t)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				t0 := time.Now()
				for _, d := range shortest {
					if !it.SeekGE(d) {
						break
					}
					seeks++
				}
				seekT += time.Since(t0)
				err = it.Err()
				it.Close()
				if err != nil {
					return nil, err
				}
				ps, err := idx.Postings(t)
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				if _, _, _, err := postings.EncodeBlocks(ps); err != nil {
					return nil, err
				}
				encodeT += time.Since(t0)
				encoded += int64(len(ps))
			}
		}
		return []float64{
			float64(decodeT) / float64(max(decoded, 1)),
			float64(seekT) / float64(max(seeks, 1)),
			float64(encodeT) / float64(max(encoded, 1)),
		}, nil
	})
	if err != nil {
		return err
	}
	r := s.res
	r.set("postings.decode_ns_per_posting", times[0], "ns")
	r.set("postings.seek_ns", times[1], "ns")
	r.set("postings.encode_ns_per_posting", times[2], "ns")
	r.Samples["postings.decode_ns_per_posting"] = int(decoded)
	r.Samples["postings.seek_ns"] = int(seeks)
	r.Samples["postings.encode_ns_per_posting"] = int(encoded)
	return nil
}

// largestSegment is the directory of the served index's biggest segment.
func (s *session) largestSegment() string {
	var best string
	var bestDocs int
	for _, seg := range s.env.w.Manifest().Segments {
		if seg.Docs > bestDocs {
			best, bestDocs = seg.Name, seg.Docs
		}
	}
	return filepath.Join(s.env.dir, best)
}

// storagePass times Pool.Fetch+Unpin over a FileDisk on the largest
// persisted segment: every page once through a pool too small to hold
// them (misses, each one read from the file and an eviction once the
// pool is full), then the pages still resident again and again (hits).
// It also times Cache.Get on resident blocks of a block cache.
func (s *session) storagePass() error {
	const frames = 32
	const blocks = 1024
	dir := s.largestSegment()
	block := make([]byte, 256)
	pages := 0
	times, err := medianReps(func() ([]float64, error) {
		pool, fd, err := index.OpenPool(dir, frames)
		if err != nil {
			return nil, err
		}
		defer fd.Close()
		pages = fd.NumPages()
		fetch := func(p int) error {
			pg, err := pool.Fetch(storage.PageID(p))
			if err != nil {
				return err
			}
			return pool.Unpin(pg, false)
		}
		t0 := time.Now()
		for p := 1; p <= pages; p++ {
			if err := fetch(p); err != nil {
				return nil, err
			}
		}
		missNS := meanSince(t0, pages, time.Nanosecond)
		resident := min(frames/2, pages) // the most recently fetched pages are still in the pool
		t0 = time.Now()
		for i := 0; i < poolHitProbes; i++ {
			if err := fetch(pages - i%resident); err != nil {
				return nil, err
			}
		}
		hitNS := meanSince(t0, poolHitProbes, time.Nanosecond)
		if hits, _ := pool.Counts(); hits < poolHitProbes {
			return nil, fmt.Errorf("pool hit probe: only %d of %d fetches hit", hits, poolHitProbes)
		}

		bc := blockcache.New(1 << 20)
		for i := 0; i < blocks; i++ {
			bc.Admit(1, int64(i)*int64(len(block)), block)
		}
		t0 = time.Now()
		for i := 0; i < blockProbes; i++ {
			if _, ok := bc.Get(1, int64(i%blocks)*int64(len(block)), len(block)); !ok {
				return nil, fmt.Errorf("block cache probe %d missed a block it admitted", i)
			}
		}
		return []float64{missNS, hitNS, meanSince(t0, blockProbes, time.Nanosecond)}, nil
	})
	if err != nil {
		return err
	}
	r := s.res
	r.set("storage.pool_miss_ns", times[0], "ns")
	r.set("storage.pool_hit_ns", times[1], "ns")
	r.set("blockcache.get_hit_ns", times[2], "ns")
	r.Samples["storage.pool_miss_ns"] = pages
	r.Samples["storage.pool_hit_ns"] = poolHitProbes
	r.Samples["blockcache.get_hit_ns"] = blockProbes
	return nil
}

// chainSegment is one segment of the served index reopened from its
// persisted files through the layers' public functions, with the same
// device chain live stacks under a segment (file, page-checksum
// verifier, pool, shared block cache), so that Pool.Counts,
// Pool.ReadLatency and postings.Counters can be read from outside.
type chainSegment struct {
	raw    *index.Index // as persisted
	engine *core.MaxScoreEngine
	pool   *storage.Pool
	fd     *storage.FileDisk
	base   uint32
}

// chain is the reopened segment chain with the statistics every segment
// ranks with.
type chain struct {
	segs   []chainSegment
	lex    *lexicon.Lexicon
	openMS float64 // time to open every segment
}

func (c *chain) close() {
	for _, seg := range c.segs {
		seg.fd.Close()
	}
}

// openChain reopens the served index's segments the way live does, at
// the workload's pool and block-cache sizes. It needs a chain without
// tombstones, which is what every set-up leaves.
func (s *session) openChain() (*chain, error) {
	m := s.env.w.Manifest()
	ch := &chain{}
	var bc *blockcache.Cache
	if s.wl.blockCacheBytes > 0 {
		bc = blockcache.New(s.wl.blockCacheBytes)
	}
	var newest uint64
	var corpus rank.CorpusStat
	t0 := time.Now()
	for _, info := range m.Segments {
		if info.Tomb != 0 {
			ch.close()
			return nil, fmt.Errorf("segment %s has tombstones: the layer passes need the set-up's state", info.Name)
		}
		dir := filepath.Join(s.env.dir, info.Name)
		fd, err := storage.OpenFileDisk(index.SegmentPath(dir))
		if err != nil {
			ch.close()
			return nil, err
		}
		seg := chainSegment{fd: fd, base: info.Base}
		ch.segs = append(ch.segs, seg)
		vd := storage.NewVerifiedDevice(fd, fd.NumPages())
		if err := vd.Prime(); err != nil {
			ch.close()
			return nil, err
		}
		pool, err := storage.NewPool(vd, max(s.env.poolPages, 8))
		if err == nil {
			seg.pool = pool
			seg.raw, err = index.Open(dir, pool)
		}
		if err != nil {
			ch.close()
			return nil, err
		}
		if bc != nil {
			seg.raw.SetBlockCache(bc, info.Seq)
		}
		if info.Snap >= newest {
			newest, ch.lex = info.Snap, seg.raw.Lex
		}
		corpus.NumDocs += seg.raw.Stats.NumDocs
		corpus.TotalTokens += seg.raw.Stats.TotalTokens
		ch.segs[len(ch.segs)-1] = seg
	}
	ch.openMS = ms(time.Since(t0))
	corpus.AvgDocLen = float64(corpus.TotalTokens) / float64(corpus.NumDocs)
	for i := range ch.segs {
		view, err := ch.segs[i].raw.WithLexicon(ch.lex)
		if err == nil {
			ch.segs[i].engine, err = core.NewMaxScoreWithCorpus(view, rank.NewBM25(), corpus)
		}
		if err != nil {
			ch.close()
			return nil, err
		}
	}
	return ch, nil
}

// fanout is what the fan-out pass measured, per query.
type fanout struct {
	coreUS, mergeUS float64
}

// fanoutPass evaluates the first layerQueries queries the way a live
// search does on a result-cache miss (every segment's MaxScore engine,
// ids rebased, topk.MergeShards), on the reopened chain and on one
// goroutine: one untimed pass to reach the steady state of pool and
// block cache, one timed and counted pass. It checks that the merged
// answer is the served index's, so the times are times of the right
// work.
func (s *session) fanoutPass(ctx context.Context) (fanout, error) {
	ch, err := s.openChain()
	if err != nil {
		return fanout{}, err
	}
	defer ch.close()
	snap, err := s.env.w.Acquire()
	if err != nil {
		return fanout{}, err
	}
	defer snap.Close()
	n := min(layerQueries, len(s.queries))
	resolved := make([]collection.Query, n)
	for i := range resolved {
		resolved[i] = resolveTerms(ch.lex, s.queries[i].terms)
	}
	bufs := make([][]rank.DocScore, len(ch.segs))
	shards := make([]topk.ShardTop, len(ch.segs))
	// onePass evaluates every query once and returns the engine and merge
	// time per query in microseconds. It zeroes the counters first, so
	// after the last pass they hold exactly one pass.
	onePass := func(verify bool) ([]float64, error) {
		var coreT, mergeT time.Duration
		for _, seg := range ch.segs {
			seg.raw.Counters().Reset()
			seg.pool.ResetCounters()
		}
		for qi, q := range resolved {
			for i, seg := range ch.segs {
				t0 := time.Now()
				top, err := seg.engine.SearchContextInto(ctx, q, topN, bufs[i][:0])
				coreT += time.Since(t0)
				if err != nil {
					return nil, err
				}
				for j := range top {
					top[j].DocID += seg.base
				}
				bufs[i] = top
				shards[i] = topk.ShardTop{Top: top, Truncated: len(top) == topN}
			}
			t0 := time.Now()
			merged, _ := topk.MergeShards(shards, topN)
			mergeT += time.Since(t0)
			if verify {
				want, err := snap.Search(s.queries[qi].terms, topN)
				if err != nil {
					return nil, err
				}
				if err := sameTop(want.Top, merged, nil); err != nil {
					return nil, fmt.Errorf("query %d: the reopened chain answers unlike the served index: %w", qi, err)
				}
			}
		}
		return []float64{float64(coreT) / 1e3 / float64(n), float64(mergeT) / 1e3 / float64(n)}, nil
	}
	if _, err := onePass(true); err != nil {
		return fanout{}, err
	}
	times, err := medianReps(func() ([]float64, error) { return onePass(false) })
	if err != nil {
		return fanout{}, err
	}
	f := fanout{coreUS: times[0], mergeUS: times[1]}
	var decoded, skips, faulted, hits, misses, reads int64
	var readT time.Duration
	for _, seg := range ch.segs {
		c := seg.raw.Counters()
		decoded += c.LoadPostingsDecoded()
		skips += c.LoadSkipsTaken()
		faulted += c.LoadBlocksFaulted()
		h, m := seg.pool.Counts()
		hits, misses = hits+h, misses+m
		n, total := seg.pool.ReadLatency()
		reads, readT = reads+n, readT+total
	}
	r := s.res
	r.set("postings.decoded_per_query", float64(decoded)/float64(n), "count")
	r.set("postings.skips_per_query", float64(skips)/float64(n), "count")
	r.set("postings.blocks_faulted_per_query", float64(faulted)/float64(n), "count")
	r.set("topk.merge_us_per_query", f.mergeUS, "us")
	// A pass that never reached a pool (everything served by the block
	// cache) has no fetches to rate: every page it wanted was resident.
	hitRate := 1.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	r.set("storage.pool_hit_rate", hitRate, "ratio")
	r.Samples["storage.pool_hit_rate"] = int(hits + misses)
	readUS := 0.0
	if reads > 0 {
		readUS = float64(readT) / 1e3 / float64(reads)
	}
	r.set("storage.read_us_mean", readUS, "us")
	r.Samples["storage.read_us_mean"] = int(reads)
	r.set("index.open_ms", ch.openMS, "ms")
	r.Notes = append(r.Notes, fmt.Sprintf("fan-out pass: %d segments, per-segment MaxScore %.1f us/query in total, merge %.2f us/query", len(ch.segs), f.coreUS, f.mergeUS))

	// index.Merge of the sealed segments into one, in memory.
	mpool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return fanout{}, err
	}
	inputs := make([]*index.Index, len(ch.segs))
	var total int64
	for i, seg := range ch.segs {
		inputs[i] = seg.raw
		total += seg.raw.TotalPostings()
	}
	times, err = medianReps(func() ([]float64, error) {
		t0 := time.Now()
		_, err := index.Merge(inputs, nil, ch.lex, mpool)
		return []float64{meanSince(t0, int(total), time.Nanosecond)}, err
	})
	if err != nil {
		return fanout{}, err
	}
	r.set("index.merge_ns_per_posting", times[0], "ns")
	r.Samples["index.merge_ns_per_posting"] = int(total)
	return f, nil
}

// indexPass times Persist of the one-shot reference index.
func (s *session) indexPass() error {
	dir, err := os.MkdirTemp(filepath.Dir(s.env.dir), "persist-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	times, err := medianReps(func() ([]float64, error) {
		t0 := time.Now()
		err := s.ref.idx.Persist(dir)
		return []float64{ms(time.Since(t0))}, err
	})
	if err != nil {
		return err
	}
	s.res.set("index.persist_ms", times[0], "ms")
	return nil
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// enginePass is the E12 comparison with time beside the counts: the
// same queries through MaxScore on the unfragmented index, full
// evaluation on the two-fragment index and the progressive engine on
// the fragment chain, each built one-shot over the same collection.
func (s *session) enginePass(ctx context.Context) error {
	qs := s.refQueries(layerQueries)
	col := s.ref.col
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return err
	}
	fx, err := index.BuildFragmented(col, pool, 0.05)
	if err != nil {
		return err
	}
	full, err := core.NewEngine(fx, rank.NewBM25())
	if err != nil {
		return err
	}
	mx, err := index.BuildMulti(col, pool, []float64{0.02, 0.05, 0.15, 0.4})
	if err != nil {
		return err
	}
	prog, err := core.NewProgressive(mx, rank.NewBM25())
	if err != nil {
		return err
	}
	buf := make([]rank.DocScore, 0, topN)
	engines := []struct {
		name   string
		search func(q collection.Query) error
		reset  func()
		decode func() int64
	}{
		{"maxscore", func(q collection.Query) error {
			_, err := s.ref.ms.SearchContextInto(ctx, q, topN, buf[:0])
			return err
		}, s.ref.idx.Counters().Reset, s.ref.idx.Counters().LoadPostingsDecoded},
		{"full", func(q collection.Query) error {
			_, err := full.SearchContext(ctx, q, core.Options{N: topN, Mode: core.ModeFull})
			return err
		}, fx.ResetCounters, func() int64 {
			return fx.Small.Counters().LoadPostingsDecoded() + fx.Large.Counters().LoadPostingsDecoded()
		}},
		{"progressive", func(q collection.Query) error {
			_, err := prog.SearchContextInto(ctx, q, core.ProgressiveOptions{N: topN}, buf[:0])
			return err
		}, mx.ResetCounters, mx.Decoded},
	}
	for _, e := range engines {
		var allocs uint64
		onePass := func() ([]float64, error) {
			e.reset()
			m0 := mallocs()
			t0 := time.Now()
			for _, q := range qs {
				if err := e.search(q); err != nil {
					return nil, fmt.Errorf("%s: %w", e.name, err)
				}
			}
			us := meanSince(t0, len(qs), time.Microsecond)
			allocs = mallocs() - m0
			return []float64{us}, nil
		}
		if _, err := onePass(); err != nil { // warms the engine's pooled state
			return err
		}
		times, err := medianReps(onePass)
		if err != nil {
			return err
		}
		s.res.set("core."+e.name+"_us_per_query", times[0], "us")
		s.res.set("core."+e.name+"_decodes_per_query", float64(e.decode())/float64(len(qs)), "count")
		if e.name == "maxscore" {
			s.res.set("core.maxscore_allocs_per_op", float64(allocs)/float64(len(qs)), "count")
		}
	}
	return s.offerPass()
}

// offerPass feeds Heap.Offer one full-evaluation score stream per
// query: every document matching any query term with its BM25 score,
// accumulated from the reference index's postings. Only the offers are
// timed.
func (s *session) offerPass() error {
	idx := s.ref.idx
	corpus := idx.Stats.Corpus()
	scorer := rank.NewBM25()
	acc := rank.NewAccumulator(idx.Stats.NumDocs)
	heap, err := topk.NewHeap(topN)
	if err != nil {
		return err
	}
	qs := s.refQueries(offerQueries)
	var stream []rank.DocScore
	var offered, accepted int64
	times, err := medianReps(func() ([]float64, error) {
		offered, accepted = 0, 0
		var offerT time.Duration
		for _, q := range qs {
			acc.Reset()
			for _, t := range q.Terms {
				ps, err := idx.Postings(t)
				if err != nil {
					return nil, err
				}
				st := idx.Lex.Stats(t)
				ts := rank.TermStat{DocFreq: int(st.DocFreq), CollFreq: st.CollFreq}
				for _, p := range ps {
					acc.Add(p.DocID, scorer.Score(int32(p.TF), idx.Stats.DocLen(p.DocID), ts, corpus))
				}
			}
			stream = stream[:0]
			acc.Each(func(doc uint32, score float64) { stream = append(stream, rank.DocScore{DocID: doc, Score: score}) })
			if err := heap.Reset(topN); err != nil {
				return nil, err
			}
			t0 := time.Now()
			for _, ds := range stream {
				if heap.Offer(ds) {
					accepted++
				}
			}
			offerT += time.Since(t0)
			offered += int64(len(stream))
		}
		return []float64{float64(offerT) / float64(max(offered, 1))}, nil
	})
	if err != nil {
		return err
	}
	s.res.set("topk.offer_ns", times[0], "ns")
	s.res.set("topk.offer_accept_ratio", ratio(accepted, offered), "ratio")
	s.res.Samples["topk.offer_ns"] = int(offered)
	return nil
}

// recorder is the in-memory http.ResponseWriter of the handler pass.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// livePass times the live layer and the server's handler in process, on
// the draws the workload's clients make: Searcher.SearchContext (through
// the result cache, if the workload has one), Snapshot.Search on the
// fan-out pass's queries (the miss path, whose time minus the fan-out
// pass's engine and merge time is live's own), one identical search
// repeated, and Server.Handler().ServeHTTP into a recorder, untraced
// for the time and traced for the self time. It returns the untraced
// handler median in microseconds.
func (s *session) livePass(ctx context.Context, fan fanout) (float64, error) {
	r := s.res
	dr, err := newDrawer(s.wl.shape, len(s.queries), s.o.seed+4)
	if err != nil {
		return 0, err
	}
	draws := make([]int, handlerQueries)
	for i := range draws {
		draws[i] = dr.next()
	}
	searcher := s.env.w.Searcher()
	search := func(idx int) error {
		_, err := searcher.SearchContext(ctx, s.queries[idx].terms, topN)
		return err
	}
	var allocs uint64
	searchPass := func() ([]float64, error) {
		m0 := mallocs()
		t0 := time.Now()
		for _, idx := range draws[:layerQueries] {
			if err := search(idx); err != nil {
				return nil, err
			}
		}
		us := meanSince(t0, layerQueries, time.Microsecond)
		allocs = mallocs() - m0
		return []float64{us}, nil
	}
	if _, err := searchPass(); err != nil { // warm: the first time a result enters the cache
		return 0, err
	}
	times, err := medianReps(searchPass)
	if err != nil {
		return 0, err
	}
	r.set("live.search_us_per_query", times[0], "us")
	r.set("live.search_allocs_per_op", float64(allocs)/layerQueries, "count")

	snap, err := s.env.w.Acquire()
	if err != nil {
		return 0, err
	}
	n := min(layerQueries, len(s.queries))
	times, err = medianReps(func() ([]float64, error) {
		t0 := time.Now()
		for _, q := range s.queries[:n] {
			if _, err := snap.SearchContext(ctx, q.terms, topN); err != nil {
				return nil, err
			}
		}
		return []float64{meanSince(t0, n, time.Microsecond)}, nil
	})
	snap.Close()
	if err != nil {
		return 0, err
	}
	missUS := times[0]
	r.set("live.self_us", missUS-fan.coreUS-fan.mergeUS, "us")
	r.Notes = append(r.Notes, fmt.Sprintf(
		"live.self_us = Snapshot.Search %.1f us/query (segments searched by up to GOMAXPROCS workers) - engines %.1f us - merge %.2f us; below zero when the overlap of segments saves more than the fan-out costs",
		missUS, fan.coreUS, fan.mergeUS))

	hitUS := 0.0
	if s.wl.resultCacheBytes > 0 {
		times, err = medianReps(func() ([]float64, error) {
			t0 := time.Now()
			for i := 0; i < cacheHitProbes; i++ {
				if err := search(draws[0]); err != nil {
					return nil, err
				}
			}
			return []float64{meanSince(t0, cacheHitProbes, time.Microsecond)}, nil
		})
		if err != nil {
			return 0, err
		}
		hitUS = times[0]
	}
	r.set("live.result_cache_hit_us", hitUS, "us")

	handler := s.env.srv.Handler()
	serve := func(idx int, ctx context.Context) (time.Duration, int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/search", bytes.NewReader(s.queries[idx].body))
		if err != nil {
			return 0, 0, err
		}
		rec := &recorder{header: http.Header{}, status: http.StatusOK}
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.status != http.StatusOK {
			return 0, 0, fmt.Errorf("handler answered %d: %.200s", rec.status, rec.body.Bytes())
		}
		return d, rec.body.Len(), nil
	}
	bytesOut := 0
	times, err = medianReps(func() ([]float64, error) {
		bytesOut = 0
		var total time.Duration
		each := make([]float64, 0, len(draws))
		for _, idx := range draws {
			d, n, err := serve(idx, ctx)
			if err != nil {
				return nil, err
			}
			total += d
			bytesOut += n
			each = append(each, float64(d)/1e3)
		}
		return []float64{float64(total) / 1e3 / float64(len(draws)), median(each)}, nil
	})
	if err != nil {
		return 0, err
	}
	r.set("server.handler_us_per_query", times[0], "us")
	r.set("server.resp_bytes", float64(bytesOut)/float64(len(draws)), "B")
	r.Samples["server.handler_us_per_query"] = len(draws)
	handlerP50US := times[1]

	mark := s.tr.len()
	for i, idx := range draws {
		id := s.tr.start("server.handler", 0, int64(i+1))
		_, _, err := serve(idx, withSpan(ctx, s.tr, id, int64(i+1)))
		s.tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	h := summarize(s.tr.snapshot()[mark:])["server.handler"]
	if h == nil || h.count == 0 {
		return 0, fmt.Errorf("the traced handler pass recorded no spans")
	}
	r.set("server.handler_self_us", float64(h.selfNS)/1e3/float64(h.count), "us")
	return handlerP50US, nil
}

// writeMetrics derives the write-side layer metrics from the spans
// around the writer's calls. live.seal_ms is the mean of the seals
// longest Adds (an Add that trips the seal threshold seals on the spot,
// so those are the Adds that sealed); live.merge_ms_total is the
// MergeAll span where there is one, and otherwise, for background
// merges the benchmark cannot see, the postings they re-encoded times
// the measured index.Merge cost per posting.
func (s *session) writeMetrics(spans []span, maint live.MaintStats, stats live.WriterStats, seals int) {
	r := s.res
	sum := summarize(spans)
	adds := sum["live.add"]
	if adds == nil {
		adds = &spanSummary{}
	}
	r.set("live.add_us_per_doc", float64(adds.totalNS)/1e3/float64(max(adds.count, 1)), "us")
	r.Samples["live.add_us_per_doc"] = adds.count
	r.set("live.add_stall_ms_max", float64(adds.maxNS)/1e6, "ms")
	durs := append([]float64(nil), adds.durationsNS...)
	sort.Sort(sort.Reverse(sort.Float64Slice(durs)))
	seals = min(max(seals, 0), len(durs))
	sealMS := 0.0
	for _, d := range durs[:seals] {
		sealMS += d / 1e6 / float64(seals)
	}
	r.set("live.seal_ms", sealMS, "ms")
	r.Samples["live.seal_ms"] = seals
	mergeMS := float64(maint.MergeReencoded) * r.Metrics["index.merge_ns_per_posting"].Value / 1e6
	if m := sum["live.merge"]; m != nil && !s.wl.writes {
		mergeMS = float64(m.totalNS) / 1e6
	}
	r.set("live.merge_ms_total", mergeMS, "ms")
	// The writer's service rate: document operations over the time spent
	// inside every call into the writer, the closing Flush and the wait
	// for merges included. The bulk ingest's on a read-only workload, the
	// script's on ingest-mix.
	var ops int
	var busyNS int64
	for _, name := range []string{"live.add", "live.delete", "live.update", "live.flush", "live.merge"} {
		if sp := sum[name]; sp != nil {
			busyNS += sp.totalNS
			if name != "live.flush" && name != "live.merge" {
				ops += sp.count
			}
		}
	}
	r.set("live.write_ops_per_s", float64(ops)/(float64(max(busyNS, 1))/1e9), "1/s")
	r.Samples["live.write_ops_per_s"] = ops
	r.set("live.merge_reencoded", float64(maint.MergeReencoded), "count")
	r.set("live.segments_final", float64(stats.Segments), "count")
}
