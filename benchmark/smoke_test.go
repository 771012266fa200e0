package main

import (
	"math"
	"testing"
)

// TestQuickSmoke runs repeat-cache end to end at the -quick size, once
// untraced and once traced, and holds the output to BENCHMARK.json:
// every metric it names is reported, finite, in the unit it names, and
// nothing else is.
func TestQuickSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	wl, ok := workloadByName("repeat-cache")
	if !ok {
		t.Fatal("no repeat-cache workload")
	}
	for _, traced := range []bool{false, true} {
		o := options{seed: 42, seconds: 2, trace: traced, quick: true, workdir: t.TempDir()}
		res, err := runWorkload(o, wl)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Comparable {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d comparable=%v",
				traced, res.Correct, res.Attempted, res.Failed, res.Comparable)
		}
		want := b.EndToEnd
		if traced {
			want = b.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("traced=%v: metric %s missing", traced, m.Name)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("traced=%v: metric %s = %v", traced, m.Name, got.Value)
			case got.Unit != m.Unit:
				t.Errorf("traced=%v: metric %s in %q, BENCHMARK.json says %q", traced, m.Name, got.Unit, m.Unit)
			}
		}
		if !traced {
			for _, name := range []string{"setup_s", "search_qps", "search_p50_ms", "search_p99_ms"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		} else if hr := res.Metrics["live.result_cache_hit_rate"].Value; hr < 0.5 {
			t.Errorf("repeat-cache result-cache hit rate %v: the workload does not exercise the cache", hr)
		}
	}
}
