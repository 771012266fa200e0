package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-quantile among n sorted
// samples. The small slack keeps 0.9*100 (a hair above 90 in floating
// point) from rounding up to 91.
func rankOf(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// tailLadder is the fallback order of tailLevel.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailLevel is the highest percentile of tailLadder, not above want,
// that has at least ten of n samples beyond it: a p99 over 300 samples
// is the third-worst sample, not a percentile. With fewer than twenty
// samples it is the median.
func tailLevel(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 0.50
}

// median returns the middle value of vs (mean of the two middle values
// for an even count). It sorts a copy; vs must be non-empty.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs by the method
// of Python's statistics.quantiles(vs, n=4) (exclusive): the rule the
// driver uses to judge a metric's spread. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // after the clamp, as Python does: tiny samples extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of its median:
// the number BENCHMARK.json's bounds are set against.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// A timed window is cut into equal slices of at least minSliceSeconds
// that hold, on average, at least minSliceSamples samples (twenty beyond
// the 99th percentile). Short slices, because what disturbs a run on a
// shared host comes in bursts of one to ten seconds with quiet gaps
// between them: a half-second slice can fall into a gap, a three-second
// slice seldom does.
const (
	minSliceSeconds = 0.5
	minSliceSamples = 2000
)

// sliceCount is the number of slices a window of the given length with
// the given number of samples is cut into.
func sliceCount(samples int, window float64) int {
	return max(1, min(int(window/minSliceSeconds), samples/minSliceSamples))
}

// sliceStats are the per-slice numbers of one timed window. A reported
// percentile or rate is that of the window's least disturbed slices
// (bestOf), so what it states is the program's speed on the machine
// left alone, which repeats, and not the neighbours' load, which does
// not.
type sliceStats struct {
	n         int     // samples in the slice
	p50, tail float64 // milliseconds
	perSecond float64 // completed samples per second
}

// sliceWindow cuts samples (latency in ms, completion time in seconds
// from the window start) into slices equal parts of a window seconds
// long. Samples completing outside [0, window) are dropped. The tail
// percentile is chosen once for the window, from the mean sample count
// of a slice, so that every slice reports the same percentile.
func sliceWindow(latMS, doneS []float64, window float64, slices int) (out []sliceStats, tailUsed float64) {
	buckets := make([][]float64, slices)
	width := window / float64(slices)
	kept := 0
	for i, d := range doneS {
		if d < 0 || d >= window {
			continue
		}
		b := min(int(d/width), slices-1)
		buckets[b] = append(buckets[b], latMS[i])
		kept++
	}
	tailUsed = tailLevel(kept/slices, 0.99)
	out = make([]sliceStats, 0, slices)
	for _, lat := range buckets {
		st := sliceStats{n: len(lat), perSecond: float64(len(lat)) / width}
		if len(lat) > 0 {
			sort.Float64s(lat)
			st.p50 = percentile(lat, 0.50)
			st.tail = percentile(lat, tailUsed)
		}
		out = append(out, st)
	}
	return out, tailUsed
}

// bestOf returns one field's value in the window's least disturbed
// slices. The slices, in time order, are cut into parts equal runs; in
// each run the k-th best value over its non-empty slices is taken, k one
// twentieth of their number rounded up (the k-th and not the very best,
// so that with many slices the single luckiest one does not decide);
// the result is the mean over the runs. One part is right for a
// workload whose index does not change, where every slice measures the
// same thing. With writes running the index grows along the window and
// the best slices are always the first: several parts make the number
// cover the whole window, at the price that a burst longer than a part
// spoils it.
func bestOf(ss []sliceStats, field func(sliceStats) float64, higherIsBetter bool, parts int) float64 {
	parts = max(1, min(parts, len(ss)))
	var sum float64
	counted := 0
	for p := 0; p < parts; p++ {
		var vs []float64
		for _, s := range ss[p*len(ss)/parts : (p+1)*len(ss)/parts] {
			if s.n > 0 {
				vs = append(vs, field(s))
			}
		}
		if len(vs) == 0 {
			continue
		}
		sort.Float64s(vs)
		k := (len(vs) + 19) / 20
		if higherIsBetter {
			sum += vs[len(vs)-k]
		} else {
			sum += vs[k-1]
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}
