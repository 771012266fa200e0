// Bench regression gate: CompareReports diffs a fresh run against a
// committed baseline (BENCH_baseline.json). The deterministic outputs —
// experiment set, table shapes, exactness flags, and the counter
// metrics (postings decoded, blocks skipped, page/block faults, hit
// rates) — must match *exactly*: they are machine-independent by
// design, so any drift is a behaviour change that either needs a bug
// fix or a deliberate baseline refresh. No time is recorded here: the
// timed gate is benchmark/ (BENCHMARK.json), which measures parent and
// change on the same machine.
package bench

import (
	"fmt"
	"strings"
)

// ungatedMetric classifies metric keys whose values depend on
// goroutine scheduling or float calibration, by experiment prefix: LOAD's
// served/shed/timeout splits ("load_"), CHAOS's retry and degraded
// splits ("chaos_"), HOT's singleflight-burst split ("hot_"), REPL's
// transfer numbers ("repl_") and TUNE's calibrated coefficients
// ("tune_"). They must be present on both sides but are never compared;
// every other key — TUNE's verdict metrics included — is gated exactly.
func ungatedMetric(key string) bool {
	return strings.HasPrefix(key, "load_") || strings.HasPrefix(key, "chaos_") ||
		strings.HasPrefix(key, "hot_") || strings.HasPrefix(key, "repl_") ||
		strings.HasPrefix(key, "tune_")
}

// CompareReports returns the list of regressions of fresh against
// baseline; empty means the gate passes. GitSHA and Timestamp are
// ignored (they differ by construction).
func CompareReports(baseline, fresh *Report) []string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if baseline.Scale != fresh.Scale {
		add("scale: baseline %q vs fresh %q (rerun with the baseline's -scale)", baseline.Scale, fresh.Scale)
	}
	if baseline.Seed != fresh.Seed {
		add("seed: baseline %d vs fresh %d (rerun with the baseline's -seed)", baseline.Seed, fresh.Seed)
	}

	freshByID := make(map[string]*ReportExperiment, len(fresh.Experiments))
	for i := range fresh.Experiments {
		freshByID[fresh.Experiments[i].ID] = &fresh.Experiments[i]
	}
	seen := map[string]bool{}
	for i := range baseline.Experiments {
		b := &baseline.Experiments[i]
		seen[b.ID] = true
		f, ok := freshByID[b.ID]
		if !ok {
			add("%s: in baseline but missing from the fresh run", b.ID)
			continue
		}
		compareExperiment(b, f, add)
	}
	for i := range fresh.Experiments {
		if !seen[fresh.Experiments[i].ID] {
			add("%s: ran fresh but absent from the baseline (refresh BENCH_baseline.json)", fresh.Experiments[i].ID)
		}
	}
	return diffs
}

func compareExperiment(b, f *ReportExperiment, add func(string, ...interface{})) {
	if len(b.Columns) != len(f.Columns) {
		add("%s: %d columns, baseline has %d", b.ID, len(f.Columns), len(b.Columns))
	} else {
		for i := range b.Columns {
			if b.Columns[i] != f.Columns[i] {
				add("%s: column %d is %q, baseline %q", b.ID, i, f.Columns[i], b.Columns[i])
			}
		}
	}
	if len(b.Rows) != len(f.Rows) {
		add("%s: %d rows, baseline has %d", b.ID, len(f.Rows), len(b.Rows))
	}

	for key, bv := range b.Metrics {
		fv, ok := f.Metrics[key]
		if !ok {
			add("%s: metric %q in baseline but not in the fresh run", b.ID, key)
			continue
		}
		if ungatedMetric(key) {
			continue
		}
		if bv != fv {
			add("%s: metric %q = %v, baseline %v (deterministic counter drift)", b.ID, key, fv, bv)
		}
	}
	for key := range f.Metrics {
		if _, ok := b.Metrics[key]; !ok {
			add("%s: new metric %q not in the baseline (refresh BENCH_baseline.json)", b.ID, key)
		}
	}
}
