package bench

import (
	"fmt"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/rank"
	"repro/internal/storage"
)

// Workload bundles the shared ingredients of the IR experiments: a
// collection, its query set, and a buffer-pooled disk to build indexes on.
type Workload struct {
	Col     *collection.Collection
	Queries []collection.Query
	Disk    *storage.Disk
	Pool    *storage.Pool
}

// QueryNames spells the workload's queries out as term names, the form
// the live and serving layers take.
func (w *Workload) QueryNames() [][]string { return queryNames(w.Col.Lex, w.Queries) }

// queryNames maps each query's term ids to their names in lex.
func queryNames(lex *lexicon.Lexicon, qs []collection.Query) [][]string {
	names := make([][]string, len(qs))
	for i, q := range qs {
		names[i] = make([]string, len(q.Terms))
		for j, term := range q.Terms {
			names[i][j] = lex.Name(term)
		}
	}
	return names
}

// workloadParams sizes a workload per scale.
type workloadParams struct {
	docs, vocab, meanLen, numQueries int
	dfCap                            float64
}

func params(s Scale) workloadParams {
	if s == ScaleFull {
		return workloadParams{docs: 25000, vocab: 120000, meanLen: 250, numQueries: 50, dfCap: 0.02}
	}
	return workloadParams{docs: 1500, vocab: 25000, meanLen: 150, numQueries: 20, dfCap: 0.02}
}

// NewWorkload generates the deterministic IR workload for a scale.
// The document-frequency cap on query terms models stopword removal; see
// collection.QueryConfig.
func NewWorkload(s Scale, seed uint64) (*Workload, error) {
	p := params(s)
	col, err := collection.Generate(collection.Config{
		NumDocs: p.docs, VocabSize: p.vocab, MeanDocLen: p.meanLen, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	queries, err := collection.GenerateQueries(col, collection.QueryConfig{
		NumQueries: p.numQueries, MinTerms: 2, MaxTerms: 6,
		MaxDocFreqFrac: p.dfCap, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	disk := storage.NewDisk()
	pool, err := storage.NewPool(disk, 1<<15)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &Workload{Col: col, Queries: queries, Disk: disk, Pool: pool}, nil
}

// BuildEngine fragments the workload's index at the given volume fraction
// and wraps it in an engine with the given scorer.
func (w *Workload) BuildEngine(smallFrac float64, scorer rank.Scorer) (*core.Engine, *index.Fragmented, error) {
	fx, err := index.BuildFragmented(w.Col, w.Pool, smallFrac)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	e, err := core.NewEngine(fx, scorer)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	return e, fx, nil
}

// decoded sums both fragments' decode counters.
func decoded(fx *index.Fragmented) int64 {
	return fx.Small.Counters().PostingsDecoded + fx.Large.Counters().PostingsDecoded
}

// skipsTaken sums both fragments' block-skip counters.
func skipsTaken(fx *index.Fragmented) int64 {
	return fx.Small.Counters().SkipsTaken + fx.Large.Counters().SkipsTaken
}
