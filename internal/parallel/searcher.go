package parallel

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rank"
	"repro/internal/storage"
	"repro/internal/topk"
)

// Config sizes a Searcher.
type Config struct {
	// Shards is the number of contiguous document-range shards (clamped
	// to the collection size). Default 1.
	Shards int
	// Workers bounds the goroutines one Search call spends on shard
	// fan-out and one SearchBatch call spends on queries, the caller's
	// own included. The bound is per call: a shared Searcher serving C
	// callers runs up to C×Workers goroutines.
	// Default runtime.GOMAXPROCS(0).
	Workers int
	// Cuts are the cumulative postings-volume fractions splitting each
	// shard's fragment chain (see index.BuildMulti). Default {0.05, 0.25}.
	Cuts []float64
}

func (c *Config) fillDefaults() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Cuts) == 0 {
		c.Cuts = []float64{0.05, 0.25}
	}
}

// Options configures one (or one batch of) sharded search(es).
type Options struct {
	// N is the number of results. Required.
	N int
	// Epsilon relaxes each shard's progressive stopping rule, exactly as
	// in core.ProgressiveOptions. With 0 every shard computes its exact
	// local top N and the merged answer is certified exact.
	Epsilon float64
	// Workers overrides the searcher's configured worker bound for
	// this call (0 keeps Config.Workers). Benchmarks use it to sweep
	// worker counts over one set of shards without rebuilding indexes.
	Workers int
}

// Result is the merged outcome of a sharded search.
type Result struct {
	// Top is the global top N, with global document ids.
	Top []rank.DocScore
	// Exact is the merge's certificate that Top is provably the true
	// global top N (always true when Epsilon == 0).
	Exact bool
	// Cert is the explicit certificate behind Exact, carrying shard
	// coverage. The in-memory sharded searcher always serves every
	// shard (Cert.Degraded is false; a failing shard fails the query),
	// but the type is shared with the live layer, whose quarantine path
	// produces genuinely partial coverage.
	Cert topk.Certificate
	// FragmentsUsed sums the chain links processed across shards — the
	// sharded counterpart of core.ProgressiveResult.FragmentsUsed.
	FragmentsUsed int
	// Stats accounts the work in the operator-algebra vocabulary:
	// RowsScanned counts accumulator entries across shards (the paper's
	// "objects taken into consideration"), Comparisons counts merge-heap
	// offers. PredEvals and Restarts are unused here.
	Stats exec.Stats
}

// Searcher evaluates top-N queries over K document-range shards
// concurrently. It is safe for concurrent use: all per-query state lives
// on the call stack or inside the per-search contexts of the shard
// engines.
type Searcher struct {
	cfg    Config
	shards []*shard

	// closers holds the per-shard segment files of a searcher reopened
	// from disk (see OpenSearcher); nil for searchers built in memory.
	closers []io.Closer
}

// NewSearcher partitions col into cfg.Shards document ranges, builds one
// fragment chain per range on pool, and returns the sharded searcher.
func NewSearcher(col *collection.Collection, pool *storage.Pool, scorer rank.Scorer, cfg Config) (*Searcher, error) {
	if col == nil || pool == nil || scorer == nil {
		return nil, fmt.Errorf("parallel: nil collection, pool, or scorer")
	}
	cfg.fillDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("parallel: shard count %d must be positive", cfg.Shards)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parallel: worker count %d must be positive", cfg.Workers)
	}
	shards, err := buildShards(col, pool, scorer, cfg.Shards, cfg.Cuts)
	if err != nil {
		return nil, err
	}
	return &Searcher{cfg: cfg, shards: shards}, nil
}

// NumShards reports how many shards the searcher actually built (the
// configured count clamped to the collection size).
func (s *Searcher) NumShards() int { return len(s.shards) }

// Workers reports the configured worker bound.
func (s *Searcher) Workers() int { return s.cfg.Workers }

// workersFor resolves the effective worker bound for one call.
func (s *Searcher) workersFor(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return s.cfg.Workers
}

// Search evaluates q over every shard and merges their answers with
// bound administration. It is SearchContext without cancellation.
func (s *Searcher) Search(q collection.Query, opts Options) (Result, error) {
	return s.SearchContext(context.Background(), q, opts)
}

// SearchContext evaluates q like Search, observing ctx under Gather's
// rules; shard engines poll it at postings-block granularity, so neither
// a disconnected caller nor a failed shard keeps the fan-out burning CPU.
func (s *Searcher) SearchContext(ctx context.Context, q collection.Query, opts Options) (Result, error) {
	return s.search(ctx, q, opts, s.workersFor(opts))
}

// search gathers q over every shard on at most workers goroutines and
// merges the per-shard answers.
func (s *Searcher) search(ctx context.Context, q collection.Query, opts Options, workers int) (Result, error) {
	if opts.N <= 0 {
		return Result{}, fmt.Errorf("parallel: N = %d must be positive", opts.N)
	}
	shardRes := make([]core.ProgressiveResult, len(s.shards))
	popts := core.ProgressiveOptions{N: opts.N, Epsilon: opts.Epsilon}
	err := Gather(ctx, len(s.shards), workers, func(ctx context.Context, i int) (err error) {
		shardRes[i], err = s.shards[i].engine.SearchContextInto(ctx, q, popts, nil)
		return err
	})
	if err != nil {
		return Result{}, err
	}
	return s.merge(shardRes, opts.N), nil
}

// merge remaps shard-local document ids to global ids and runs the
// bound-aware top-N merge.
func (s *Searcher) merge(shardRes []core.ProgressiveResult, n int) Result {
	var res Result
	tops := make([]topk.ShardTop, len(s.shards))
	for i, r := range shardRes {
		base := s.shards[i].base
		top := make([]rank.DocScore, len(r.Top))
		for j, ds := range r.Top {
			top[j] = rank.DocScore{DocID: ds.DocID + base, Score: ds.Score}
		}
		tops[i] = topk.ShardTop{Top: top, Bound: r.RemainingBound, Truncated: r.Truncated}
		res.FragmentsUsed += r.FragmentsUsed
		res.Stats.RowsScanned += int64(r.DocsTouched)
		res.Stats.Comparisons += int64(len(r.Top))
	}
	res.Top, res.Cert = topk.MergeShardsPartial(tops, n, nil, len(s.shards))
	res.Exact = res.Cert.Exact
	return res
}

// BatchResult bundles a batch's per-query answers with the aggregated
// work accounting.
type BatchResult struct {
	Results []Result
	// Total sums the per-query Stats — the batch-level exec.Stats
	// aggregation experiments report next to wall-clock.
	Total exec.Stats
}

// SearchBatch gathers the queries over Workers goroutines. Each leg is a
// whole query (its shards evaluated one after another on the leg's
// goroutine), so a batch keeps Workers goroutines busy without
// multiplying them per query; per-query results come back in input
// order. A failing query aborts the batch under Gather's rules, its
// running siblings included.
func (s *Searcher) SearchBatch(queries []collection.Query, opts Options) (BatchResult, error) {
	return s.SearchBatchContext(context.Background(), queries, opts)
}

// SearchBatchContext evaluates the batch like SearchBatch, observing
// ctx: queries not yet started when it fires are skipped, running ones
// abort at postings-block granularity, and the call returns ctx.Err().
func (s *Searcher) SearchBatchContext(ctx context.Context, queries []collection.Query, opts Options) (BatchResult, error) {
	if opts.N <= 0 {
		return BatchResult{}, fmt.Errorf("parallel: N = %d must be positive", opts.N)
	}
	out := BatchResult{Results: make([]Result, len(queries))}
	err := Gather(ctx, len(queries), s.workersFor(opts), func(ctx context.Context, i int) (err error) {
		out.Results[i], err = s.search(ctx, queries[i], opts, 1)
		return err
	})
	if err != nil {
		return BatchResult{}, err
	}
	for i := range out.Results {
		st := out.Results[i].Stats
		out.Total.RowsScanned += st.RowsScanned
		out.Total.PredEvals += st.PredEvals
		out.Total.Comparisons += st.Comparisons
		out.Total.Restarts += st.Restarts
	}
	return out, nil
}
