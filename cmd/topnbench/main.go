// Command topnbench regenerates every table and figure of the
// reproduction (DESIGN.md §4). Each experiment id maps to one runner in
// internal/bench; "all" runs the whole suite in order.
//
// Usage:
//
//	topnbench [-exp all|F1|E1..E12|PAR|DISK|LIVE|LOAD|CHAOS|HOT|REPL|TUNE] [-scale small|full] [-seed N]
//	          [-shards K] [-workers W]
//	          [-persist DIR] [-from DIR] [-pool-pages K]
//	          [-live-seal-docs N] [-live-fanin K] [-live-churn X]
//	          [-load-rate R] [-load-requests N]
//	          [-json out.json] [-compare BASELINE.json]
//
// The PAR experiment exercises the sharded concurrent search layer
// (internal/parallel): -shards picks the document-range shard count and
// -workers the worker-pool bound; the table reports sequential vs.
// parallel wall-clock and the speedup.
//
// The DISK experiment exercises the pluggable storage backend: it
// persists the workload's index as an on-disk segment (or reuses one
// written earlier with -persist via -from DIR), reopens it through a
// buffer pool of -pool-pages frames — deliberately smaller than the
// segment — and verifies the paged engine answers byte-identically to
// the in-memory one while reporting hit rate, page faults, and block
// faults.
//
// The LIVE experiment exercises the live-index layer (internal/live):
// an interleaved insert/delete/update/search workload through
// live.Writer — incremental sealing, tombstoned deletes and updates,
// deterministic tiered merging with dead-document purging, hot-swap
// snapshots — verified byte-identical to a one-shot build over the
// *surviving* documents at the end. -live-seal-docs and -live-fanin
// override the seal threshold and merge fan-in (0 = scale defaults);
// -live-churn sets the per-batch tombstone fraction (half deletes,
// half updates re-ingesting the same content under fresh ids; 0
// disables churn, default 0.2).
//
// The LOAD experiment exercises the serving layer (internal/server,
// the engine behind cmd/topnserve): the workload is ingested into a
// live index served over a real localhost HTTP listener, then an
// open-loop client offers -load-requests requests at -load-rate
// arrivals/second followed by an overload burst that exercises
// admission shedding (429 + Retry-After). LOAD reports splits and
// identity only, no time: the served/shed splits depend on scheduling
// (gate-exempt via the load_ metric prefix); the gated facts are that
// every request is answered and that an unloaded sweep gets answers
// byte-identical to the in-process live.Searcher.
//
// The HOT experiment exercises the cache-amortized query path: a
// repeat-heavy Zipf stream over a churning live index served with and
// without the result/hot-block caches, holding every cached answer
// byte-identical to the uncached one through warm replays, block-cache
// warm passes, and a generation swap that invalidates the result cache
// wholesale; it also enforces the zero-allocation steady-state budget
// of the MaxScore and Progressive hot loops via testing.AllocsPerRun.
//
// The TUNE experiment closes the loop on the paper's cost model: three
// workload shapes (read-heavy, churn-heavy, bursty) each run under the
// adaptive self-tuning policy (internal/tune, calibrated from live
// counters via a deterministic span model) and three static settings.
// Every policy must answer the final probe byte-identically; the gated
// <shape>_adaptive_best metrics assert the adaptive policy's total cost
// (decodes + re-encodes + 1000× pages touched) never exceeds the best
// static's, and decision_digest hashes the tuner's decision log so two
// same-seed runs must match exactly.
//
// -persist DIR builds the workload index at the chosen scale/seed,
// writes it under DIR, and exits; a later `-exp DISK -from DIR` serves
// queries from that segment. -json writes the machine-readable report
// (rows and headline metrics, no per-experiment wall-clock) alongside the
// rendered tables; CI uploads it as an artifact, stamped with commit
// SHA, timestamp, and scale so each artifact is a self-describing
// trajectory point.
//
// -compare BASELINE.json is the regression gate: after the run, the
// fresh report is diffed against the committed baseline — experiment
// set, table shapes, exactness flags, and deterministic counters
// (decodes, skips, faults, hit rates) must match exactly — and any drift
// exits nonzero. No time is recorded or gated here; the timed gate is
// benchmark/ (see BENCHMARK.json). Refresh the baseline deliberately
// with
// `go run ./cmd/topnbench -exp all -scale small -shards 4 -workers 2 -json BENCH_baseline.json`.
//
// With -exp all, an experiment whose prerequisites are missing (e.g.
// DISK with a -from directory that was never persisted) is skipped with
// a note instead of aborting the suite; requesting it directly still
// fails loudly.
//
// Results print as aligned text tables with the paper's claim noted under
// each; EXPERIMENTS.md records a full-scale run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/rank"
	"repro/internal/storage"
)

var order = []string{"F1", "E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "PAR", "DISK", "LIVE", "LOAD", "CHAOS", "HOT", "REPL", "TUNE"}

var runners = map[string]func(bench.Scale, uint64) (*bench.Table, error){
	"F1":  bench.RunF1,
	"E1":  bench.RunE1E2,
	"E2":  bench.RunE1E2, // E1 and E2 share a table (speed and quality columns)
	"E3":  bench.RunE3,
	"E4":  bench.RunE4,
	"E5":  bench.RunE5,
	"E6":  bench.RunE6,
	"E7":  bench.RunE7,
	"E8":  bench.RunE8,
	"E9":  bench.RunE9,
	"E10": bench.RunE10,
	"E11": bench.RunE11,
	"E12": bench.RunE12,
}

// persistIndex builds the workload index and writes it as a segment
// under dir, reporting the segment geometry.
func persistIndex(scale bench.Scale, seed uint64, dir string) error {
	w, err := bench.NewWorkload(scale, seed)
	if err != nil {
		return err
	}
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return err
	}
	start := time.Now()
	idx, err := index.Build(w.Col, pool)
	if err != nil {
		return err
	}
	if err := idx.Persist(dir); err != nil {
		return err
	}

	// Reopen and spot-check one query end to end before telling the
	// user the segment is good; the same FileDisk reports the geometry.
	segPool, fd, err := index.OpenPool(dir, 8)
	if err != nil {
		return err
	}
	defer fd.Close()
	opened, err := index.Open(dir, segPool)
	if err != nil {
		return fmt.Errorf("verification reopen failed: %w", err)
	}
	ms, err := core.NewMaxScore(opened, rank.NewBM25())
	if err != nil {
		return err
	}
	if len(w.Queries) > 0 {
		if _, err := ms.Search(w.Queries[0], 10); err != nil {
			return fmt.Errorf("verification query failed: %w", err)
		}
	}
	fmt.Printf("persisted %s: %d docs, %d terms, %d postings (%d bytes compressed) in %d pages, %s\n",
		index.SegmentPath(dir), idx.Stats.NumDocs, idx.Lex.Size(), idx.TotalPostings(),
		idx.SizeBytes(), fd.NumPages(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("serve it with: topnbench -exp DISK -scale %s -seed %d -from %s -pool-pages K\n",
		scale, seed, dir)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id (F1, E1..E12, PAR, DISK, LIVE, LOAD, CHAOS, HOT, REPL, TUNE) or 'all'")
	scaleFlag := flag.String("scale", "small", "workload scale: small or full")
	seed := flag.Uint64("seed", 42, "deterministic workload seed")
	shards := flag.Int("shards", 4, "PAR: number of document-range shards")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "PAR: worker-pool size")
	persistDir := flag.String("persist", "", "persist the workload index as a segment under DIR and exit")
	fromDir := flag.String("from", "", "DISK: serve the segment persisted under DIR (same scale/seed) instead of rebuilding")
	poolPages := flag.Int("pool-pages", 0, "DISK: buffer pool capacity in pages (0 = 1/8 of the segment)")
	liveSealDocs := flag.Int("live-seal-docs", 0, "LIVE: seal the write buffer every N documents (0 = scale default)")
	liveFanIn := flag.Int("live-fanin", 0, "LIVE: tiered merge fan-in (0 = default 4)")
	liveChurn := flag.Float64("live-churn", -1, "LIVE: fraction of each batch tombstoned (half deletes, half updates); 0 disables churn, negative = default 0.2")
	loadRate := flag.Float64("load-rate", 0, "LOAD: open-loop arrival rate in requests/second (0 = default 500)")
	loadRequests := flag.Int("load-requests", 0, "LOAD: open-loop request count (0 = scale default)")
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	comparePath := flag.String("compare", "", "regression gate: diff this run against the baseline report FILE and exit nonzero on drift")
	flag.Parse()

	runners["PAR"] = func(s bench.Scale, seed uint64) (*bench.Table, error) {
		return bench.RunParallel(s, seed, *shards, *workers)
	}
	runners["DISK"] = func(s bench.Scale, seed uint64) (*bench.Table, error) {
		return bench.RunDisk(s, seed, *poolPages, *fromDir)
	}
	runners["LIVE"] = func(s bench.Scale, seed uint64) (*bench.Table, error) {
		return bench.RunLive(s, seed, *liveSealDocs, *liveFanIn, *liveChurn)
	}
	runners["LOAD"] = func(s bench.Scale, seed uint64) (*bench.Table, error) {
		return bench.RunLoad(s, seed, *loadRate, *loadRequests)
	}
	runners["CHAOS"] = bench.RunChaos
	runners["HOT"] = bench.RunHot
	runners["REPL"] = bench.RunRepl
	runners["TUNE"] = bench.RunTune

	var scale bench.Scale
	switch *scaleFlag {
	case "small":
		scale = bench.ScaleSmall
	case "full":
		scale = bench.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "topnbench: unknown scale %q (want small or full)\n", *scaleFlag)
		os.Exit(2)
	}

	if *persistDir != "" {
		if err := persistIndex(scale, *seed, *persistDir); err != nil {
			fmt.Fprintf(os.Stderr, "topnbench: persist: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runAll := *exp == "all"
	ids := order
	if !runAll {
		id := strings.ToUpper(*exp)
		if _, ok := runners[id]; !ok {
			fmt.Fprintf(os.Stderr, "topnbench: unknown experiment %q (want one of %s)\n",
				*exp, strings.Join(order, ", "))
			os.Exit(2)
		}
		ids = []string{id}
	}

	report := &bench.Report{Scale: scale.String(), Seed: *seed}
	report.Stamp()
	fmt.Printf("topnbench: scale=%s seed=%d commit=%s\n", scale, *seed, report.GitSHA)
	skipped := map[string]bool{}
	for _, id := range ids {
		start := time.Now()
		tbl, err := runners[id](scale, *seed)
		if err != nil {
			if runAll && errors.Is(err, bench.ErrSkipped) {
				// A missing prerequisite must not take the whole suite
				// down; the note tells the user how to enable it.
				fmt.Printf("\n== %s: skipped ==\n  note: %v\n", id, err)
				skipped[id] = true
				continue
			}
			fmt.Fprintf(os.Stderr, "topnbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		tbl.Render(os.Stdout)
		fmt.Printf("  (%s in %s)\n", id, elapsed.Round(time.Millisecond))
		report.Add(tbl)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topnbench: %v\n", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "topnbench: write report: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "topnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote machine-readable report to %s\n", *jsonPath)
	}

	if *comparePath != "" {
		baseline, err := readReport(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topnbench: compare: %v\n", err)
			os.Exit(1)
		}
		if !runAll || len(skipped) > 0 {
			// The gate covers only what actually ran: a single -exp run
			// gates itself, and an experiment skipped for a missing
			// prerequisite is no drift either (its counters were never
			// produced, not regressed).
			ran := make(map[string]bool, len(report.Experiments))
			for _, e := range report.Experiments {
				ran[e.ID] = true
			}
			kept := baseline.Experiments[:0]
			for _, e := range baseline.Experiments {
				if ran[e.ID] {
					kept = append(kept, e)
				}
			}
			baseline.Experiments = kept
			fmt.Printf("compare: gating the %d experiment(s) that ran against their baseline entries\n", len(kept))
		}
		diffs := bench.CompareReports(baseline, report)
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "topnbench: regression gate FAILED against %s (%d finding(s)):\n", *comparePath, len(diffs))
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  - %s\n", d)
			}
			fmt.Fprintf(os.Stderr, "if the change is intentional, refresh the baseline:\n"+
				"  go run ./cmd/topnbench -exp all -scale %s -seed %d -shards 4 -workers 2 -json %s\n",
				scale, *seed, *comparePath)
			os.Exit(1)
		}
		fmt.Printf("regression gate passed against %s (deterministic counters exact)\n", *comparePath)
	}
}

// readReport loads a machine-readable report written with -json.
func readReport(path string) (*bench.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s is not a topnbench report: %w", path, err)
	}
	return &r, nil
}
