package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/tune"
)

// tunePageWeight prices one page touch (fault, seal write, merge
// read/write) in decode units for the TUNE verdict — the same ratio the
// deterministic span model plants (100µs fault / 100ns decode), and the
// cost package's default.
const tunePageWeight = 1000

// tuneShape is one workload shape the TUNE experiment drives every
// policy through: a deterministic interleaving of ingest batches, churn
// (tombstoning a fraction of each batch), and query sweeps.
type tuneShape struct {
	name     string
	batches  int     // ingest checkpoints
	sweeps   int     // query sweeps per read phase
	churn    float64 // fraction of each batch tombstoned after ingest
	burstGap bool    // bursty: write batches see no queries at all
}

// tunePolicy is one maintenance-policy configuration under test.
type tunePolicy struct {
	name     string
	horizon  int
	purge    float64
	fanIn    int
	pool     int
	adaptive bool // attach a tuner with adaptive bounds
}

// tuneOutcome is one (shape, policy) run's account.
type tuneOutcome struct {
	segments, merges int64
	probeDecodes     int64
	probeFaults      int64
	maint            live.MaintStats
	cost             int64 // the verdict currency; see tuneCost
	tops             [][]rank.DocScore
	digest           uint32
	pageWeight       float64
	termsPerQuery    float64
}

// tuneCost folds a run into the verdict currency: every decoded posting
// costs 1, every page touched — probe fault, seal write, merge read or
// write — costs tunePageWeight, and every posting re-encoded by
// maintenance costs 1. Integer arithmetic over deterministic counters,
// so the gate can compare it exactly.
func tuneCost(o *tuneOutcome) int64 {
	pages := o.probeFaults + o.maint.SealPagesWritten + o.maint.MergePagesRead + o.maint.MergePagesWritten
	return o.probeDecodes + o.maint.MergeReencoded + tunePageWeight*pages
}

// RunTune (experiment TUNE) closes the loop of the paper's cost-model
// argument: the index's own maintenance — when to merge, what to purge,
// how big to seal — runs on coefficients calibrated from live counters,
// and this experiment holds the adaptive policy to a hard verdict. Three
// workload shapes (read-heavy, churn-heavy, bursty) each run under four
// policies: the adaptive tuner and three static settings (eager, lazy,
// and the defaults). Every run is deterministic — one worker, explicit
// MergeAll checkpoints, modeled spans (100ns/decode, 100µs/page) — and
// every policy must answer the final probe byte-identically: adaptivity
// changes when and what gets merged, never what a query returns.
//
// The verdict charges each run's total cost in one currency (tuneCost):
// probe decodes and faults on the query side, seal/merge page traffic
// and re-encoded postings on the maintenance side. The gated
// <shape>_adaptive_best metrics assert the adaptive policy's cost is
// within tuneSlack of the best static on every shape — no static
// setting is safe across shapes, calibration is. decision_digest is the
// FNV fold of the three shapes' tuner decision logs: two runs over the
// same seed must produce the identical digest (CI runs the experiment
// twice and diffs exactly that).
func RunTune(s Scale, seed uint64) (*Table, error) {
	w, err := NewWorkload(s, seed)
	if err != nil {
		return nil, err
	}
	sealDocs := len(w.Col.Docs) / 12
	if sealDocs < 20 {
		sealDocs = 20
	}

	shapes := []tuneShape{
		{name: "read", batches: 4, sweeps: 6, churn: 0},
		{name: "churn", batches: 6, sweeps: 1, churn: 0.5},
		{name: "bursty", batches: 6, sweeps: 4, churn: 0.1, burstGap: true},
	}
	policies := []tunePolicy{
		{name: "adaptive", horizon: 1000, purge: 0.5, fanIn: 4, pool: 64, adaptive: true},
		{name: "eager", horizon: 8000, purge: 0.25, fanIn: 2, pool: 256},
		{name: "lazy", horizon: 5, purge: 2.0, fanIn: 6, pool: 64},
		{name: "static", horizon: 1000, purge: 0.5, fanIn: 4, pool: 64},
	}

	t := &Table{
		ID: "TUNE",
		Title: fmt.Sprintf("self-tuning: adaptive vs static maintenance policies (%d docs, %d queries, seal=%d, 3 shapes)",
			len(w.Col.Docs), len(w.Queries), sealDocs),
		Columns: []string{"shape", "policy", "segments", "merges", "probeDecodes", "probeFaults", "sealPages", "mergePages", "reencoded", "cost", "best"},
		Metrics: map[string]float64{},
	}

	digest := uint32(2166136261)
	foldDigest := func(d uint32) {
		for shift := 0; shift < 32; shift += 8 {
			digest ^= (d >> shift) & 0xff
			digest *= 16777619
		}
	}

	for _, shape := range shapes {
		outcomes := make([]*tuneOutcome, len(policies))
		for i, pol := range policies {
			o, err := runTunePolicy(w, shape, pol, sealDocs, seed)
			if err != nil {
				return nil, fmt.Errorf("bench: TUNE %s/%s: %w", shape.name, pol.name, err)
			}
			outcomes[i] = o
		}
		// Byte-identical answers: the maintenance policy must never change
		// what a query returns.
		for i := 1; i < len(policies); i++ {
			for q := range outcomes[0].tops {
				if err := sameTop(outcomes[i].tops[q], outcomes[0].tops[q]); err != nil {
					return nil, fmt.Errorf("bench: TUNE %s: policy %s diverged from %s on query %d: %w",
						shape.name, policies[i].name, policies[0].name, q, err)
				}
			}
		}
		bestStatic := int64(-1)
		for i := 1; i < len(policies); i++ {
			if bestStatic < 0 || outcomes[i].cost < bestStatic {
				bestStatic = outcomes[i].cost
			}
		}
		adaptive := outcomes[0]
		best := adaptive.cost <= bestStatic
		for i, pol := range policies {
			o := outcomes[i]
			t.AddRow(shape.name, pol.name, o.segments, o.merges, o.probeDecodes, o.probeFaults,
				o.maint.SealPagesWritten, o.maint.MergePagesRead+o.maint.MergePagesWritten,
				o.maint.MergeReencoded, o.cost, pol.adaptive && best)
			t.Metrics[fmt.Sprintf("%s_%s_cost", shape.name, pol.name)] = float64(o.cost)
		}
		t.Metrics[shape.name+"_adaptive_best"] = boolMetric(best)
		t.Metrics["tune_"+shape.name+"_page_weight"] = adaptive.pageWeight
		t.Metrics["tune_"+shape.name+"_terms_per_query"] = adaptive.termsPerQuery
		foldDigest(adaptive.digest)
		if !best {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"WARNING %s: adaptive cost %d exceeds best static %d", shape.name, adaptive.cost, bestStatic))
		}
	}
	t.Metrics["decision_digest"] = float64(digest)
	t.Metrics["equiv"] = 1

	t.Notes = append(t.Notes,
		"every policy answers the final probe byte-identically; only maintenance timing differs",
		fmt.Sprintf("cost currency: decodes + reencodes + %d x pages (probe faults + seal/merge traffic)", tunePageWeight),
		"adaptive runs modeled spans (100ns/decode, 100us/page), so calibration lands on page weight 1000",
		"decision_digest folds the three shapes' tuner decision logs: same seed => same digest, exactly")
	return t, nil
}

// runTunePolicy drives one policy through one shape on a fresh live
// directory. The operation sequence — ingest order, tombstone schedule,
// query sweeps — is a function of (shape, seed) only, so every policy
// sees the same stream and must produce the same answers.
func runTunePolicy(w *Workload, shape tuneShape, pol tunePolicy, sealDocs int, seed uint64) (*tuneOutcome, error) {
	dir, err := os.MkdirTemp("", "topn-tune-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tn *tune.Tuner
	if pol.adaptive {
		tn = tune.New(tune.Config{
			SpanModel:  &tune.SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
			SealDocs:   tune.Bounds{Min: sealDocs, Max: 4 * sealDocs},
			MergeFanIn: tune.Bounds{Min: 2, Max: 6},
			PoolPages:  tune.Bounds{Min: 64, Max: 256},
		})
	}
	lw, err := live.Open(live.Config{
		Dir:           dir,
		SealDocs:      sealDocs,
		Workers:       1,
		MergeHorizon:  pol.horizon,
		PurgeDeadFrac: pol.purge,
		MergeFanIn:    pol.fanIn,
		PoolPages:     pol.pool,
		Tune:          tn,
	})
	if err != nil {
		return nil, err
	}
	defer lw.Close()

	names := w.QueryNames()

	o := &tuneOutcome{}
	var aliveIDs []uint32
	// The churn schedule depends only on (shape, seed): every policy
	// tombstones the same documents in the same order.
	rng := rand.New(rand.NewSource(int64(seed) + int64(len(shape.name))*7919))

	probe := func(sweeps int) error {
		snap, err := lw.Acquire()
		if err != nil {
			return err
		}
		defer snap.Close()
		snap.ResetCounters()
		o.tops = o.tops[:0]
		for s := 0; s < sweeps; s++ {
			for i := range names {
				res, err := snap.Search(names[i], 10)
				if err != nil {
					return fmt.Errorf("probe query %d: %w", i, err)
				}
				if !res.Exact || res.Degraded {
					return fmt.Errorf("probe query %d not exact: %+v", i, res.Cert)
				}
				if s == sweeps-1 {
					o.tops = append(o.tops, res.Top)
				}
			}
		}
		d, _, f := snap.Counters()
		o.probeDecodes += d
		o.probeFaults += f
		return nil
	}

	for b := 0; b < shape.batches; b++ {
		lo := b * len(w.Col.Docs) / shape.batches
		hi := (b + 1) * len(w.Col.Docs) / shape.batches
		for i := lo; i < hi; i++ {
			id, err := lw.Add(live.DocTerms(w.Col.Lex, w.Col.Docs[i]))
			if err != nil {
				return nil, fmt.Errorf("ingest doc %d: %w", i, err)
			}
			aliveIDs = append(aliveIDs, id)
		}
		if shape.churn > 0 {
			kill := int(shape.churn * float64(hi-lo))
			for k := 0; k < kill && len(aliveIDs) > 1; k++ {
				pick := rng.Intn(len(aliveIDs))
				id := aliveIDs[pick]
				aliveIDs = append(aliveIDs[:pick], aliveIDs[pick+1:]...)
				if err := lw.Delete(id); err != nil {
					return nil, fmt.Errorf("delete doc %d: %w", id, err)
				}
			}
		}
		if err := lw.Flush(); err != nil {
			return nil, err
		}
		if err := lw.MergeAll(); err != nil {
			return nil, err
		}
		// Bursty shapes only read on every other checkpoint; the others
		// probe at every one.
		if shape.burstGap && b%2 == 0 {
			continue
		}
		if err := probe(shape.sweeps); err != nil {
			return nil, err
		}
	}
	// Every shape ends with one final sweep — the answers the
	// byte-identity check compares across policies.
	if err := probe(1); err != nil {
		return nil, err
	}

	st := lw.Stats()
	o.segments = int64(st.Segments)
	o.merges = st.Merges
	o.maint = lw.MaintStats()
	o.cost = tuneCost(o)
	if tn != nil {
		ts := tn.Stats()
		o.digest = ts.DecisionDigest
		o.pageWeight = ts.PageWeight
		o.termsPerQuery = ts.TermsPerQuery
	}
	return o, nil
}
