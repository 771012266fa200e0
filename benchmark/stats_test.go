package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.50, 5},     // ceil(0.5*10) = 5th value
		{10, 0.90, 9},     // 9th value
		{10, 0.99, 10},    // ceil(9.9) = 10th
		{1, 0.99, 1},      // a single sample is every percentile
		{1000, 0.99, 990}, // 990th value
		{3, 0.50, 2},      // ceil(1.5) = 2nd
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestTailLevelFallsBackUntilTenSamplesLieBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantUsed  float64
		wantValue float64
	}{
		{1000, 0.99, 990}, // exactly ten beyond the p99
		{999, 0.95, 950},  // 9.99 beyond the p99: report the p95 (ceil(0.95*999) = 950)
		{200, 0.95, 190},  // ten beyond the p95
		{199, 0.90, 180},  // 9.95 beyond the p95: the p90 (ceil(179.1) = 180)
		{100, 0.90, 90},
		{40, 0.75, 30},
		{39, 0.50, 20}, // 9.75 beyond the p75: the median (ceil(19.5) = 20)
		{5, 0.50, 3},
	} {
		used := tailLevel(tc.n, 0.99)
		if value := percentile(seq(tc.n), used); used != tc.wantUsed || value != tc.wantValue {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", tc.n, value, 100*used, tc.wantValue, 100*tc.wantUsed)
		}
	}
	if used := tailLevel(100000, 0.95); used != 0.95 {
		t.Errorf("tailLevel must not exceed the percentile asked for, used p%v", 100*used)
	}
}

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two values extrapolate
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
	q1, q3 = quartiles([]float64{50, 10, 40, 20, 30})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %v, %v, want 15, 45", q1, q3)
	}
	if got := spread([]float64{50, 10, 40, 20, 30}); got != 1 {
		t.Errorf("spread = %v, want (45-15)/30 = 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSliceWindowReportsTheLeastDisturbedSlices(t *testing.T) {
	// Three slices of one second. The middle one is disturbed: its
	// latencies are ten times the others' and it completes half as many.
	// The reported numbers must be an undisturbed slice's.
	var lat, done []float64
	for s := 0; s < 3; s++ {
		n := 100
		if s == 1 {
			n = 50
		}
		for i := 0; i < n; i++ {
			l := float64(i%10 + 1)
			if s == 1 {
				l *= 10
			}
			lat = append(lat, l)
			done = append(done, float64(s)+float64(i)/100)
		}
	}
	lat, done = append(lat, 1e6, 1e6), append(done, -0.5, 3.0) // outside the window: dropped
	ss, tailUsed := sliceWindow(lat, done, 3, 3)
	if len(ss) != 3 || ss[0].n != 100 || ss[1].n != 50 || ss[2].n != 100 {
		t.Fatalf("slices = %+v", ss)
	}
	if ss[0].p50 != 5 || ss[1].p50 != 50 || ss[0].perSecond != 100 {
		t.Errorf("per-slice stats wrong: %+v", ss)
	}
	// 250 samples in 3 slices: 83 a slice, so every slice reports its
	// p75, the disturbed one with 50 samples too.
	if tailUsed != 0.75 || ss[0].tail != 8 || ss[1].tail != 80 {
		t.Errorf("tails = %v, %v at p%v, want 8, 80 at p75", ss[0].tail, ss[1].tail, 100*tailUsed)
	}
	if got := bestOf(ss, func(x sliceStats) float64 { return x.p50 }, false, 1); got != 5 {
		t.Errorf("best slice p50 = %v, want 5", got)
	}
	if got := bestOf(ss, func(x sliceStats) float64 { return x.perSecond }, true, 1); got != 100 {
		t.Errorf("best slice rate = %v, want 100", got)
	}
	empty, _ := sliceWindow(nil, nil, 3, 3)
	if got := bestOf(empty, func(x sliceStats) float64 { return x.p50 }, false, 1); got != 0 || math.IsNaN(got) {
		t.Errorf("best over empty slices = %v, want 0", got)
	}
}

func TestBestOfTakesTheTwentiethPartAndSliceCountKeepsSlicesFull(t *testing.T) {
	ss := make([]sliceStats, 60)
	for i := range ss {
		ss[i] = sliceStats{n: 1, p50: float64(60 - i), perSecond: float64(i + 1)}
	}
	if got := bestOf(ss, func(x sliceStats) float64 { return x.p50 }, false, 1); got != 3 {
		t.Errorf("third lowest of 60 = %v, want 3", got)
	}
	if got := bestOf(ss, func(x sliceStats) float64 { return x.perSecond }, true, 1); got != 58 {
		t.Errorf("third highest of 60 = %v, want 58", got)
	}
	if got := bestOf(ss[:20], func(x sliceStats) float64 { return x.p50 }, false, 1); got != 41 {
		t.Errorf("lowest of 20 = %v, want 41", got)
	}
	// In four parts of fifteen slices the best of each part counts: p50
	// 46, 31, 16, 1 and rates 15, 30, 45, 60.
	if got := bestOf(ss, func(x sliceStats) float64 { return x.p50 }, false, 4); got != (46+31+16+1)/4.0 {
		t.Errorf("mean of four parts' lowest = %v, want 23.5", got)
	}
	if got := bestOf(ss, func(x sliceStats) float64 { return x.perSecond }, true, 4); got != (15+30+45+60)/4.0 {
		t.Errorf("mean of four parts' highest = %v, want 37.5", got)
	}
	if got := bestOf(ss[:2], func(x sliceStats) float64 { return x.p50 }, false, 4); got != (60+59)/2.0 {
		t.Errorf("more parts than slices = %v, want 59.5", got)
	}
	for _, tc := range []struct {
		samples int
		window  float64
		want    int
	}{
		{80000, 20, 40}, // plenty of samples: half-second slices
		{24000, 20, 12}, // 2 000 samples a slice
		{1500, 20, 1},   // too few for two slices
		{0, 20, 1},
	} {
		if got := sliceCount(tc.samples, tc.window); got != tc.want {
			t.Errorf("sliceCount(%d, %v) = %d, want %d", tc.samples, tc.window, got, tc.want)
		}
	}
}
