package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// exactRepeat names the counts that must come out identical on every
// run of the same seed on a read-only workload: nothing timed decides
// them. (On ingest-mix the background merger's timing moves them.)
var exactRepeat = []string{
	"disk_bytes_per_posting", "write_amp",
	"postings.decoded_per_query", "postings.skips_per_query",
	"core.maxscore_decodes_per_query", "core.full_decodes_per_query", "core.progressive_decodes_per_query",
}

// runChildren runs every chosen workload repeat times, each run in a
// child process of this program, and returns the results in run order
// (repetition-major, so that drift over time spreads over workloads).
func runChildren(o options, chosen []workload, repeat int) ([]*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var results []*runResult
	for r := 0; r < repeat; r++ {
		for _, wl := range chosen {
			outFile, err := os.CreateTemp(o.workdir, "result-*.json")
			if err != nil {
				return nil, err
			}
			outFile.Close()
			defer os.Remove(outFile.Name())
			args := []string{
				"-workload", wl.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-workdir", o.workdir, "-out", outFile.Name(),
			}
			if o.trace {
				args = append(args, "-trace", "1")
				if o.spans != "" {
					args = append(args, "-spans", fmt.Sprintf("%s.%s.%d", o.spans, wl.name, r))
				}
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run() // a child that found a wrong answer exits 1 but still reports
			data, err := os.ReadFile(outFile.Name())
			var one []*runResult
			if err == nil {
				err = json.Unmarshal(data, &one)
			}
			if err != nil || len(one) != 1 {
				return nil, fmt.Errorf("%s run %d reported nothing (%v, %v)", wl.name, r, runErr, err)
			}
			results = append(results, one[0])
		}
	}
	return results, nil
}

// benchmarkFile is the part of BENCHMARK.json -check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// reportRepeats prints, per workload and metric, the median, quartiles
// and interquartile spread of the repeated runs. With check it also
// compares two sets of runs (even and odd repetitions) and reports
// false when the second set's median of a bounded metric is worse than
// the first's by more than the bound, or an exact-repeat count differs.
func reportRepeats(results []*runResult, check bool, boundsPath string) bool {
	var bf benchmarkFile
	if check {
		data, err := os.ReadFile(boundsPath)
		if err == nil {
			err = json.Unmarshal(data, &bf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -check cannot read bounds: %v\n", err)
			return false
		}
	}
	byWorkload := map[string][]*runResult{}
	var order []string
	for _, res := range results {
		if _, seen := byWorkload[res.Workload]; !seen {
			order = append(order, res.Workload)
		}
		byWorkload[res.Workload] = append(byWorkload[res.Workload], res)
	}
	ok := true
	for _, name := range order {
		runs := byWorkload[name]
		fmt.Printf("== %s: %d runs\n", name, len(runs))
		fmt.Printf("  %-38s %12s %12s %12s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
		var metrics []string
		for m := range runs[0].Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			vs := make([]float64, len(runs))
			for i, r := range runs {
				vs[i] = r.Metrics[m].Value
			}
			q1, q3 := vs[0], vs[0]
			if len(vs) > 1 {
				q1, q3 = quartiles(vs)
			}
			fmt.Printf("  %-38s %12.4f %12.4f %12.4f %8.2f%%\n", m, median(vs), q1, q3, 100*spread(vs))
		}
		if !check {
			continue
		}
		var a, b []*runResult
		for i, r := range runs {
			if i%2 == 0 {
				a = append(a, r)
			} else {
				b = append(b, r)
			}
		}
		if len(b) == 0 {
			fmt.Fprintln(os.Stderr, "benchmark: -check needs -repeat 2 or more")
			return false
		}
		for _, e := range bf.EndToEnd {
			if _, present := runs[0].Metrics[e.Name]; !present {
				continue // a traced run: no end-to-end metrics to compare
			}
			ma, mb := medianOfMetric(a, e.Name), medianOfMetric(b, e.Name)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "OUT OF BOUND"
				ok = false
			}
			fmt.Printf("  check %-32s first %12.4f second %12.4f worse by %6.2f%% bound %5.1f%%  %s\n",
				e.Name, ma, mb, 100*worse, 100*e.Bound, verdict)
		}
		if wl, _ := workloadByName(name); !wl.writes {
			for _, m := range exactRepeat {
				first, present := runs[0].Metrics[m]
				if !present {
					continue
				}
				for _, r := range runs[1:] {
					if v := r.Metrics[m].Value; v != first.Value && !(math.IsNaN(v) && math.IsNaN(first.Value)) {
						fmt.Printf("  check %-32s must repeat exactly: %v then %v  NOT EQUAL\n", m, first.Value, v)
						ok = false
					}
				}
			}
		}
	}
	return ok
}

func medianOfMetric(runs []*runResult, name string) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[name].Value
	}
	return median(vs)
}
