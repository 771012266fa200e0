// Package tune closes the loop between the cost model and the live
// counters: the paper's argument is plan selection by an explicit cost
// model, so the index's own upkeep should run on measured coefficients,
// not hard-coded guesses.
//
// A Tuner does three jobs:
//
//	calibrate  An online regression turns per-query (decodes, faults,
//	           span) observations and direct pool read-latency timings
//	           into the cost package's page-weight coefficient; EWMAs
//	           track the observed query fan-out (replacing the static
//	           terms-per-query guess) and the realized/predicted merge
//	           cost ratio (correcting future merge pricing).
//	decide     Knob recommendations — seal threshold, pool pages,
//	           amortization horizon — adapt to the observed read/write
//	           mix and fault pressure, each clamped inside
//	           caller-configured Bounds. The live planner prices merge
//	           windows with the calibrated coefficients, over the
//	           configured range of run lengths.
//	account    Every knob change and executed merge/purge is recorded
//	           in a bounded decision log with a running FNV-1a digest
//	           over integer-only canonical strings, so two runs over
//	           the same workload are provably identical (the TUNE bench
//	           gate compares the digest exactly).
//
// Determinism: with Config.SpanModel set, spans are *computed* from the
// operation's decode/fault counts instead of measured — the injectable
// clock. Every tuner state transition is then a pure function of the
// observation stream, which is what keeps the bench regression gate
// byte-stable while still exercising the whole calibration path.
package tune

import (
	"fmt"
	"sync"
	"time"
)

// Bounds is the closed range a knob may adapt within. The zero value
// freezes the knob: recommendations return the caller's base unchanged.
type Bounds struct {
	Min, Max int
}

func (b Bounds) frozen() bool { return b.Min == 0 && b.Max == 0 }

func (b Bounds) clamp(v int) int {
	if v < b.Min {
		v = b.Min
	}
	if v > b.Max {
		v = b.Max
	}
	return v
}

// SpanModel computes operation spans from counters instead of the wall
// clock: span = decodes·DecodeCost + faults·FaultCost. It makes every
// tuner decision a deterministic function of the observation stream —
// set it in benches and tests; leave nil in production to measure real
// time.
type SpanModel struct {
	DecodeCost time.Duration // cost per decoded posting
	FaultCost  time.Duration // cost per faulted block / page read
}

// Config parameterizes a Tuner. The zero value is usable: wall-clock
// spans, every knob frozen.
type Config struct {
	// SpanModel, when set, derives spans from counters (see SpanModel).
	SpanModel *SpanModel
	// Now supplies timestamps in measured mode. nil means time.Now.
	Now func() time.Time
	// SealDocs / PoolPages bound the corresponding knob recommendations;
	// MergeFanIn bounds the run lengths the planner considers
	// (FanInRange). Zero Bounds freeze a knob at its base value.
	SealDocs   Bounds
	MergeFanIn Bounds
	PoolPages  Bounds
}

// The tuner's fixed coefficients.
const (
	// horizonScale caps the adaptive amortization-horizon multiplier: the
	// effective horizon stays within [base/horizonScale,
	// base×horizonScale] (floored at 1).
	horizonScale = 8.0
	// minPageWeight / maxPageWeight clamp the calibrated page weight.
	minPageWeight, maxPageWeight = 1.0, 1e6
	// alpha is the per-observation decay of the regression and latency
	// EWMAs.
	alpha = 0.05
	// mixAlpha is the decay of the read/write mix EWMA that drives the
	// knob policy (time constant ≈ 50 operations).
	mixAlpha = 0.02
	// recentDecisions bounds the retained decision ring surfaced by Stats.
	recentDecisions = 16
)

func (c *Config) fillDefaults() {
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Decision is one recorded tuner action: a knob change or an executed
// merge/purge with its price tag.
type Decision struct {
	Seq      int64   `json:"seq"`
	Kind     string  `json:"kind"`   // "seal-docs", "pool-pages", "horizon", "merge", "purge"
	Detail   string  `json:"detail"` // integer-only canonical description
	Horizon  int     `json:"horizon,omitempty"`
	PredGain float64 `json:"pred_gain,omitempty"` // weighted per-query gain at decision time
	PredCost float64 `json:"pred_cost,omitempty"` // predicted one-time weighted cost
	RealCost float64 `json:"real_cost,omitempty"` // realized weighted cost (merge/purge only)
}

// Stats is the tuner's observable state, surfaced on /metrics and /tune.
type Stats struct {
	Enabled       bool    `json:"enabled"`
	PageWeight    float64 `json:"page_weight"`
	DecodeNs      float64 `json:"decode_ns"`
	FaultNs       float64 `json:"fault_ns"`
	TermsPerQuery float64 `json:"terms_per_query"`
	CostRatio     float64 `json:"merge_cost_ratio"` // realized/predicted EWMA
	QueryMix      float64 `json:"query_mix"`        // EWMA fraction of ops that are queries

	Queries   int64 `json:"queries_observed"`
	Writes    int64 `json:"writes_observed"`
	Deletes   int64 `json:"deletes_observed"`
	Merges    int64 `json:"merges_observed"`
	PoolReads int64 `json:"pool_reads_observed"`

	SealDocs  int `json:"seal_docs,omitempty"` // last recommendation (0 before first ask)
	PoolPages int `json:"pool_pages,omitempty"`
	Horizon   int `json:"horizon,omitempty"`

	Decisions      int64      `json:"decisions_total"`
	DecisionDigest uint32     `json:"decision_digest"`
	Recent         []Decision `json:"recent_decisions,omitempty"`
}

// Tuner is the calibrating, deciding, accounting core. All methods are
// safe for concurrent use and nil-safe (a nil Tuner observes nothing
// and recommends every base unchanged), so call sites need no guards.
// A Tuner must not be shared between writers: its decision log is the
// writer's audit trail.
type Tuner struct {
	cfg Config

	mu  sync.Mutex
	cal calibrator

	mix     ewma // 1 per query, 0 per write/delete
	faultsQ ewma // faults per query, the pool-pressure signal

	queries, writes, deletes, merges int64

	costRatio ewma // realized/predicted merge cost, clamped [1/4, 4]

	// last returned knob values, for change detection
	lastSeal, lastPool, lastHorizon int

	decisions []Decision // ring, newest last, ≤ recentDecisions
	decSeq    int64
	digest    uint32 // FNV-1a (32-bit) over canonical decision strings
}

const fnvOffset32, fnvPrime32 = 2166136261, 16777619

// New builds a Tuner. The zero Config is valid (see Config).
func New(cfg Config) *Tuner {
	cfg.fillDefaults()
	t := &Tuner{
		cfg:       cfg,
		cal:       newCalibrator(),
		mix:       ewma{alpha: mixAlpha},
		faultsQ:   ewma{alpha: alpha},
		costRatio: ewma{alpha: alpha},
		digest:    fnvOffset32,
	}
	return t
}

// SpanToken carries the start timestamp of a measured span. In
// deterministic (SpanModel) mode it is empty and free.
type SpanToken struct {
	t time.Time
}

// StartSpan opens a span for a subsequent Observe call. Cheap in
// deterministic mode: no clock is read.
func (t *Tuner) StartSpan() SpanToken {
	if t == nil || t.cfg.SpanModel != nil {
		return SpanToken{}
	}
	return SpanToken{t: t.cfg.Now()}
}

// spanNs resolves a span in nanoseconds: modeled from counters when a
// SpanModel is set, measured otherwise.
func (t *Tuner) spanNs(tok SpanToken, decodes, faults int64) float64 {
	if m := t.cfg.SpanModel; m != nil {
		return float64(decodes)*float64(m.DecodeCost) + float64(faults)*float64(m.FaultCost)
	}
	if tok.t.IsZero() {
		return 0
	}
	return float64(t.cfg.Now().Sub(tok.t))
}

// ObserveQuery folds one completed query into the calibration state:
// resolved term fan-out, decode/fault counter deltas, and the span
// opened by StartSpan.
func (t *Tuner) ObserveQuery(terms int, decodes, faults int64, tok SpanToken) {
	if t == nil || decodes < 0 || faults < 0 {
		return
	}
	span := t.spanNs(tok, decodes, faults)
	t.mu.Lock()
	t.queries++
	t.mix.observe(1)
	if terms > 0 {
		t.cal.terms.observe(float64(terms))
	}
	t.faultsQ.observe(float64(faults))
	if span > 0 || t.cfg.SpanModel != nil {
		t.cal.observeQuery(decodes, faults, span)
	}
	t.mu.Unlock()
}

// ObserveWrite counts one accepted document write.
func (t *Tuner) ObserveWrite() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.writes++
	t.mix.observe(0)
	t.mu.Unlock()
}

// ObserveDelete counts one tombstoned document.
func (t *Tuner) ObserveDelete() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.deletes++
	t.mix.observe(0)
	t.mu.Unlock()
}

// ObservePoolReads folds n physical page reads totalling total into the
// direct fault-latency channel. In deterministic mode the measured
// duration is replaced by the span model's value, so the channel stays
// exercised without poisoning determinism.
func (t *Tuner) ObservePoolReads(n int64, total time.Duration) {
	if t == nil || n <= 0 {
		return
	}
	if m := t.cfg.SpanModel; m != nil {
		total = time.Duration(n) * m.FaultCost
	}
	t.mu.Lock()
	t.cal.observePoolReads(n, float64(total))
	t.mu.Unlock()
}

// MergeObs reports one committed merge or purge rewrite.
type MergeObs struct {
	Kind     string // "merge" or "purge"
	Inputs   int    // run length
	FirstSeq uint64 // sequence number of the run's first segment

	PagesRead    int64 // input pages read
	PagesWritten int64 // output pages written
	Reencoded    int64 // postings re-encoded into the output

	PredGain float64 // weighted per-query gain the plan predicted
	PredCost float64 // weighted one-time cost the plan predicted
	Horizon  int     // effective horizon the plan used
}

// ObserveMerge records a committed merge/purge: the realized weighted
// cost is computed from the measured page/re-encode counters with the
// current page weight, and the realized/predicted ratio (clamped to
// [1/4, 4]) corrects future merge pricing.
func (t *Tuner) ObserveMerge(o MergeObs) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.merges++
	w := t.cal.pageWeight()
	real := w*float64(o.PagesRead+o.PagesWritten) + float64(o.Reencoded)
	if o.PredCost > 0 {
		ratio := real / o.PredCost
		if ratio < 0.25 {
			ratio = 0.25
		}
		if ratio > 4 {
			ratio = 4
		}
		t.costRatio.observe(ratio)
	}
	kind := o.Kind
	if kind != "purge" {
		kind = "merge"
	}
	t.addDecisionLocked(Decision{
		Kind:     kind,
		Detail:   fmt.Sprintf("k=%d seq=%d pages=%d reenc=%d", o.Inputs, o.FirstSeq, o.PagesRead+o.PagesWritten, o.Reencoded),
		Horizon:  o.Horizon,
		PredGain: o.PredGain,
		PredCost: o.PredCost,
		RealCost: real,
	})
	t.mu.Unlock()
}

// PageWeight is the calibrated page-touch/decode cost ratio for
// cost.EstimateMerge, clamped to the configured range.
func (t *Tuner) PageWeight() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cal.pageWeight()
}

// TermsPerQuery is the observed query fan-out EWMA; 0 until the first
// query is observed (callers fall back to their static default).
func (t *Tuner) TermsPerQuery() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.cal.terms.seen {
		return 0
	}
	return t.cal.terms.v
}

// CostRatio is the realized/predicted merge-cost correction factor
// (1 until the first merge is observed).
func (t *Tuner) CostRatio() float64 {
	if t == nil {
		return 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.costRatio.seen {
		return 1
	}
	return t.costRatio.v
}

// queryWriteRatio derives the horizon multiplier from the mix EWMA,
// clamped to [1/scale, scale].
func (t *Tuner) queryWriteRatioLocked() float64 {
	if !t.mix.seen {
		return 1
	}
	m := t.mix.v
	if m >= 1 {
		return horizonScale
	}
	qw := m / (1 - m)
	if qw < 1/horizonScale {
		qw = 1 / horizonScale
	}
	if qw > horizonScale {
		qw = horizonScale
	}
	return qw
}

// Horizon adapts the amortization horizon to the observed read/write
// mix: read-heavy phases stretch it (merges amortize over many queries
// to come), write-heavy phases shrink it (a merged run is soon buried
// under new segments). Clamped to [1, base×horizonScale].
func (t *Tuner) Horizon(base int) int {
	if t == nil {
		return base
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := int(float64(base)*t.queryWriteRatioLocked() + 0.5)
	if h < 1 {
		h = 1
	}
	if max := int(float64(base) * horizonScale); h > max && max >= 1 {
		h = max
	}
	t.noteKnobLocked("horizon", &t.lastHorizon, h)
	return h
}

// SealDocs recommends the seal threshold: write-heavy phases seal
// bigger segments (fewer fragments to merge back down), otherwise the
// base keeps ingest-to-visible latency low.
func (t *Tuner) SealDocs(base int) int {
	if t == nil || t.cfg.SealDocs.frozen() {
		return base
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := base
	if t.mix.seen && t.mix.v <= 0.25 {
		v = t.cfg.SealDocs.Max
	}
	v = t.cfg.SealDocs.clamp(v)
	t.noteKnobLocked("seal-docs", &t.lastSeal, v)
	return v
}

// FanInRange is the range of run lengths the planner considers, widest
// first: the configured MergeFanIn bounds (floored at 2), or just the
// base when the knob is frozen. It makes no mix-driven choice — the
// planner takes the widest run that pays at the adapted horizon.
func (t *Tuner) FanInRange(base int) (lo, hi int) {
	if t == nil || t.cfg.MergeFanIn.frozen() {
		return base, base
	}
	lo, hi = t.cfg.MergeFanIn.Min, t.cfg.MergeFanIn.Max
	if lo < 2 {
		lo = 2
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// PoolPages recommends the per-segment buffer-pool capacity: sustained
// query fault pressure raises it toward the bound (trading memory for
// fewer page faults), calm phases return the base.
func (t *Tuner) PoolPages(base int) int {
	if t == nil || t.cfg.PoolPages.frozen() {
		return base
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := base
	if t.faultsQ.seen && t.faultsQ.v >= 1 {
		v = t.cfg.PoolPages.Max
	}
	v = t.cfg.PoolPages.clamp(v)
	t.noteKnobLocked("pool-pages", &t.lastPool, v)
	return v
}

// noteKnobLocked records a decision when a knob recommendation changes.
func (t *Tuner) noteKnobLocked(kind string, last *int, v int) {
	if *last == v {
		return
	}
	t.addDecisionLocked(Decision{Kind: kind, Detail: fmt.Sprintf("%d->%d", *last, v)})
	*last = v
}

// addDecisionLocked appends to the bounded ring and folds the decision
// into the running digest. The canonical string is integer-only — the
// float predictions are display data, not identity — so the digest is
// bit-stable across architectures.
func (t *Tuner) addDecisionLocked(d Decision) {
	t.decSeq++
	d.Seq = t.decSeq
	canonical := fmt.Sprintf("%d|%s|%s|%d;", d.Seq, d.Kind, d.Detail, d.Horizon)
	for i := 0; i < len(canonical); i++ {
		t.digest ^= uint32(canonical[i])
		t.digest *= fnvPrime32
	}
	t.decisions = append(t.decisions, d)
	if len(t.decisions) > recentDecisions {
		t.decisions = t.decisions[len(t.decisions)-recentDecisions:]
	}
}

// DecisionDigest is the running FNV-1a digest over every decision made
// so far. Two runs over the same deterministic workload must agree.
func (t *Tuner) DecisionDigest() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.digest
}

// Stats snapshots the tuner for /metrics and /tune.
func (t *Tuner) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		Enabled:        true,
		PageWeight:     t.cal.pageWeight(),
		DecodeNs:       t.cal.decodeNs,
		FaultNs:        t.cal.faultNs,
		Queries:        t.queries,
		Writes:         t.writes,
		Deletes:        t.deletes,
		Merges:         t.merges,
		PoolReads:      t.cal.poolReads,
		SealDocs:       t.lastSeal,
		PoolPages:      t.lastPool,
		Horizon:        t.lastHorizon,
		Decisions:      t.decSeq,
		DecisionDigest: t.digest,
		Recent:         append([]Decision(nil), t.decisions...),
	}
	if t.cal.terms.seen {
		s.TermsPerQuery = t.cal.terms.v
	}
	if t.costRatio.seen {
		s.CostRatio = t.costRatio.v
	} else {
		s.CostRatio = 1
	}
	if t.mix.seen {
		s.QueryMix = t.mix.v
	}
	return s
}
