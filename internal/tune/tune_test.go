package tune

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// planted true costs for the synthetic streams
const (
	plantDecodeNs = 120.0
	plantFaultNs  = 90_000.0
)

// feedPlanted streams n synthetic queries whose spans follow the
// planted linear model exactly, with decode and fault counts varied
// independently so both coefficients are identified.
func feedPlanted(c *calibrator, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		d := int64(500 + rng.Intn(5000))
		f := int64(rng.Intn(40))
		span := plantDecodeNs*float64(d) + plantFaultNs*float64(f)
		c.observeQuery(d, f, span)
	}
}

// TestCalibratorConvergence: on an exactly linear observation stream
// the regression must recover the planted coefficients — and therefore
// the planted page weight — to high precision.
func TestCalibratorConvergence(t *testing.T) {
	c := newCalibrator()
	feedPlanted(&c, 500, rand.New(rand.NewSource(1)))
	if rel := math.Abs(c.decodeNs-plantDecodeNs) / plantDecodeNs; rel > 1e-6 {
		t.Fatalf("decodeNs = %g, want %g (rel err %g)", c.decodeNs, plantDecodeNs, rel)
	}
	if rel := math.Abs(c.faultNs-plantFaultNs) / plantFaultNs; rel > 1e-6 {
		t.Fatalf("faultNs = %g, want %g (rel err %g)", c.faultNs, plantFaultNs, rel)
	}
	want := plantFaultNs / plantDecodeNs
	if got := c.pageWeight(); math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("pageWeight = %g, want %g", got, want)
	}
}

// TestCalibratorConvergenceNoisy: with bounded multiplicative noise the
// estimates still land within the noise band.
func TestCalibratorConvergenceNoisy(t *testing.T) {
	c := newCalibrator()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		d := int64(500 + rng.Intn(5000))
		f := int64(rng.Intn(40))
		noise := 1 + 0.1*(rng.Float64()-0.5)
		span := (plantDecodeNs*float64(d) + plantFaultNs*float64(f)) * noise
		c.observeQuery(d, f, span)
	}
	if rel := math.Abs(c.decodeNs-plantDecodeNs) / plantDecodeNs; rel > 0.15 {
		t.Fatalf("decodeNs = %g, want %g ± 15%%", c.decodeNs, plantDecodeNs)
	}
	if rel := math.Abs(c.faultNs-plantFaultNs) / plantFaultNs; rel > 0.15 {
		t.Fatalf("faultNs = %g, want %g ± 15%%", c.faultNs, plantFaultNs)
	}
}

// TestCalibratorMonotoneInLatency: the same counter stream under a
// costlier fault latency must calibrate a strictly larger page weight —
// through the regression channel and through the direct pool channel.
func TestCalibratorMonotoneInLatency(t *testing.T) {
	weightAt := func(faultNs float64) float64 {
		c := newCalibrator()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			d := int64(500 + rng.Intn(5000))
			f := int64(rng.Intn(40))
			c.observeQuery(d, f, plantDecodeNs*float64(d)+faultNs*float64(f))
		}
		return c.pageWeight()
	}
	lo, mid, hi := weightAt(30_000), weightAt(90_000), weightAt(300_000)
	if !(lo < mid && mid < hi) {
		t.Fatalf("page weight not monotone in fault latency: %g, %g, %g", lo, mid, hi)
	}

	poolWeightAt := func(readNs float64) float64 {
		c := newCalibrator()
		for i := 0; i < 100; i++ {
			c.observePoolReads(4, 4*readNs)
		}
		return c.pageWeight()
	}
	lo, hi = poolWeightAt(50_000), poolWeightAt(500_000)
	if !(lo < hi) {
		t.Fatalf("page weight not monotone in pool read latency: %g vs %g", lo, hi)
	}
}

// TestCalibratorDegenerateStreams: streams that never vary one input
// identify only the other coefficient and keep the prior for the rest;
// estimates never go non-positive.
func TestCalibratorDegenerateStreams(t *testing.T) {
	// faults always zero: decode axis identified, fault prior retained
	c := newCalibrator()
	for i := 0; i < 200; i++ {
		d := int64(1000 + 10*i)
		c.observeQuery(d, 0, plantDecodeNs*float64(d))
	}
	if rel := math.Abs(c.decodeNs-plantDecodeNs) / plantDecodeNs; rel > 1e-6 {
		t.Fatalf("decode-only stream: decodeNs = %g, want %g", c.decodeNs, plantDecodeNs)
	}
	if c.faultNs != initialFaultNs {
		t.Fatalf("decode-only stream moved faultNs to %g", c.faultNs)
	}

	// all-zero observations must not corrupt anything
	c = newCalibrator()
	for i := 0; i < 50; i++ {
		c.observeQuery(0, 0, 0)
	}
	if c.decodeNs != initialDecodeNs || c.faultNs != initialFaultNs {
		t.Fatalf("zero stream moved coefficients: %g, %g", c.decodeNs, c.faultNs)
	}
}

// TestTunerDeterministicSpans: with a SpanModel, two tuners fed the
// same observation stream agree exactly — coefficients, digest, and
// decision log — and the calibrated weight equals the planted ratio.
func TestTunerDeterministicSpans(t *testing.T) {
	mk := func() *Tuner {
		return New(Config{
			SpanModel:  &SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
			SealDocs:   Bounds{Min: 100, Max: 400},
			MergeFanIn: Bounds{Min: 2, Max: 6},
			PoolPages:  Bounds{Min: 32, Max: 128},
		})
	}
	feed := func(tn *Tuner) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			if rng.Intn(3) == 0 {
				tn.ObserveWrite()
			} else {
				d := int64(200 + rng.Intn(3000))
				f := int64(rng.Intn(20))
				tn.ObserveQuery(2+rng.Intn(4), d, f, tn.StartSpan())
			}
			if i%16 == 0 {
				tn.SealDocs(100)
				tn.FanInRange(4)
				tn.PoolPages(32)
				tn.Horizon(1000)
			}
		}
		tn.ObserveMerge(MergeObs{Kind: "merge", Inputs: 4, FirstSeq: 9, PagesRead: 40, PagesWritten: 35, Reencoded: 20000, PredGain: 12000, PredCost: 95000, Horizon: 1000})
	}
	a, b := mk(), mk()
	feed(a)
	feed(b)
	if a.DecisionDigest() != b.DecisionDigest() {
		t.Fatalf("same stream, different digests: %d vs %d", a.DecisionDigest(), b.DecisionDigest())
	}
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("same stream, different stats: %+v vs %+v", sa, sb)
	}
	if math.Abs(sa.PageWeight-1000) > 1e-6 {
		t.Fatalf("modeled spans must calibrate the planted ratio 1000, got %g", sa.PageWeight)
	}
	if sa.Decisions == 0 || len(sa.Recent) == 0 {
		t.Fatal("no decisions recorded")
	}
}

// TestTunerKnobBoundsAndFreeze: recommendations stay inside Bounds,
// zero Bounds freeze the knob, and a nil Tuner recommends the base.
func TestTunerKnobBoundsAndFreeze(t *testing.T) {
	var nilT *Tuner
	if nilT.SealDocs(123) != 123 || nilT.Horizon(77) != 77 || nilT.PageWeight() != 0 {
		t.Fatal("nil tuner must pass bases through")
	}

	tn := New(Config{
		SealDocs:   Bounds{Min: 100, Max: 400},
		MergeFanIn: Bounds{Min: 2, Max: 6},
		PoolPages:  Bounds{Min: 32, Max: 128},
	})
	// Drive the mix write-heavy: every adaptive knob must still respect
	// its bounds.
	for i := 0; i < 500; i++ {
		tn.ObserveWrite()
	}
	if v := tn.SealDocs(100); v < 100 || v > 400 {
		t.Fatalf("SealDocs %d outside [100, 400]", v)
	}
	if lo, hi := tn.FanInRange(4); lo != 2 || hi != 6 {
		t.Fatalf("FanInRange [%d, %d], want the bounds [2, 6]", lo, hi)
	}
	if v := tn.PoolPages(32); v < 32 || v > 128 {
		t.Fatalf("PoolPages %d outside [32, 128]", v)
	}
	if h := tn.Horizon(1000); h < 1 || h > 8000 {
		t.Fatalf("Horizon %d outside [1, 8000]", h)
	}

	frozen := New(Config{})
	for i := 0; i < 500; i++ {
		frozen.ObserveWrite()
	}
	if lo, hi := frozen.FanInRange(4); frozen.SealDocs(123) != 123 || lo != 4 || hi != 4 || frozen.PoolPages(64) != 64 {
		t.Fatal("zero Bounds must freeze knobs at their base")
	}
}

// TestTunerHorizonTracksMix: a read-heavy stream stretches the horizon,
// a write-heavy stream shrinks it, and both stay clamped.
func TestTunerHorizonTracksMix(t *testing.T) {
	reads := New(Config{})
	for i := 0; i < 500; i++ {
		reads.ObserveQuery(3, 1000, 2, reads.StartSpan())
	}
	writes := New(Config{})
	for i := 0; i < 500; i++ {
		writes.ObserveWrite()
	}
	hr, hw := reads.Horizon(1000), writes.Horizon(1000)
	if hr <= 1000 {
		t.Fatalf("read-heavy horizon %d not stretched above base", hr)
	}
	if hw >= 1000 {
		t.Fatalf("write-heavy horizon %d not shrunk below base", hw)
	}
	if hr > 8000 || hw < 1 {
		t.Fatalf("horizons %d/%d escaped the clamp", hr, hw)
	}
}

// TestTunerCostRatio: realized-vs-predicted feedback moves the ratio,
// clamped to [1/4, 4].
func TestTunerCostRatio(t *testing.T) {
	tn := New(Config{})
	if tn.CostRatio() != 1 {
		t.Fatalf("prior cost ratio = %g, want 1", tn.CostRatio())
	}
	for i := 0; i < 200; i++ {
		tn.ObserveMerge(MergeObs{Kind: "merge", Inputs: 2, PagesRead: 10, PagesWritten: 10, Reencoded: 0, PredCost: 1})
	}
	if got := tn.CostRatio(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("overrun ratio not clamped at 4: %g", got)
	}
}
