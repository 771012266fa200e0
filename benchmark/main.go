// Command benchmark is the repository's one timed benchmark: it builds
// a seeded corpus, serves it the way cmd/topnserve does, drives it over
// a real socket with a closed loop, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced pass) that BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads are the four traffic mixes, by the names later issues cite.
// Each exists to load some layers and bypass others: BENCHMARK.json
// says why in a line, README.md has the table of which layer metric
// should move which end-to-end metric on which of them.
var workloads = []workload{
	// Everything resident, no result cache: decode, MaxScore and top-k do
	// the work. Where a codec or selection kernel must show.
	{name: "hot-mem", shape: engineShape, initialFrac: 1, blockCacheBytes: 32 << 20},
	// The same queries with a working set about 20x the program's own
	// caches: pool fault/evict, file reads and cache admission on top.
	// The counter-workload for any kernel change.
	{name: "cold-disk", shape: engineShape, initialFrac: 1, poolFrac: 0.05, blockCacheBytes: 128 << 10},
	// Cheap queries that repeat: the engines do little, server and result
	// cache do most. A kernel change predicts no change here.
	{
		name:        "repeat-cache",
		shape:       queryShape{distinct: 5000, minTerms: 2, maxTerms: 3, maxDocFreqFrac: 0.02, zipfS: 1.1},
		initialFrac: 1, blockCacheBytes: 32 << 20, resultCacheBytes: 64 << 20,
	},
	// Writes beside reads: seal, merge, delete commit and generation
	// install land in the reader's tail; read cost, write cost and space
	// appear side by side.
	{name: "ingest-mix", shape: engineShape, initialFrac: 0.6, blockCacheBytes: 32 << 20, writes: true},
}

// engineShape is the query pool of the three workloads that make the
// engines work: 4-8 terms with frequent terms allowed, drawn uniformly.
var engineShape = queryShape{distinct: 2000, minTerms: 4, maxTerms: 8, maxDocFreqFrac: 0.2}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		o       options
		names   = flag.String("workload", "hot-mem,cold-disk,repeat-cache,ingest-mix", "comma list of workloads to run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass and reports the per-layer metrics; 0 the end-to-end metrics")
		out     = flag.String("out", "", "also write the results as JSON to this file")
		repeat  = flag.Int("repeat", 1, "run each workload this many times, each in a process of its own, and print median, quartiles and spread per metric")
		check   = flag.Bool("check", false, "with -repeat: split the runs into two sets and fail if a metric's medians differ by more than its bound in -bounds, or a count that must repeat does not")
		bounds  = flag.String("bounds", "BENCHMARK.json", "file -check reads the metric bounds from")
		seconds = flag.Float64("seconds", 20, "length of the timed window in seconds")
	)
	flag.Uint64Var(&o.seed, "seed", 42, "seed of the corpus, the queries, the draws and the write script")
	flag.BoolVar(&o.quick, "quick", false, "small corpus and 2 s windows, for tests and CI; the numbers are not comparable")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory the index directories are made in (and removed from)")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans to this file")
	flag.Parse()
	o.seconds, o.trace = *seconds, *trace != 0
	if o.quick {
		o.seconds = 2
	}
	if flag.NArg() > 0 || o.seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	var chosen []workload
	for _, name := range strings.Split(*names, ",") {
		wl, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			os.Exit(2)
		}
		chosen = append(chosen, wl)
	}

	if len(chosen) == 1 && *repeat == 1 {
		// One run in this process: the form the driver calls.
		res, err := runWorkload(o, chosen[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", chosen[0].name, err)
			os.Exit(1)
		}
		printRun(res)
		if err := writeOut(*out, []*runResult{res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printLastLine(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// Several runs: one child process each, so peak_rss_mb and the Go
	// heap of one run never colour the next.
	results, err := runChildren(o, chosen, *repeat)
	if err == nil {
		err = writeOut(*out, results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	ok := true
	if *repeat > 1 {
		ok = reportRepeats(results, *check, *bounds)
	}
	for _, res := range results {
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printRun prints every metric of a run by name, with its unit and the
// sample count behind it.
func printRun(res *runResult) {
	mode := "end-to-end (tracing off)"
	if res.Traced {
		mode = "per-layer (traced pass)"
	}
	comparable := ""
	if !res.Comparable {
		comparable = "  [-quick: NOT comparable]"
	}
	fmt.Printf("== %s  %s  seed %d  window %.0fs  clients %d  GOMAXPROCS %d  %s%s\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Clients, res.GoMaxProcs, res.GoVersion, comparable)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	ref := res.Metrics["ref.kernel_ns"].Value
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("  %-38s %14.4f %-6s", name, m.Value, m.Unit)
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if m.Unit == "ns" && ref > 0 && name != "ref.kernel_ns" {
			line += fmt.Sprintf("  = %.3f x ref.kernel_ns", m.Value/ref)
		}
		fmt.Println(line)
	}
	for _, note := range res.Notes {
		fmt.Println("  #", note)
	}
}

// printLastLine prints the one JSON object the driver reads.
func printLastLine(res *runResult) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeOut(path string, results []*runResult) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
