package topk

import (
	"math"
	"sync/atomic"
)

// Threshold is the one top-N threshold a query carries across all the
// sources it searches: a lower bound on the N-th best score of the whole
// answer, raised by whichever source proves a higher one and never
// lowered. A source's own N-th best fully evaluated score is such a bound
// (the N documents behind it exist in the union), so each source may
// skip, by strict comparison, every document that cannot reach the
// largest value any source has published — a source searched late starts
// from what the earlier ones earned instead of from zero.
//
// The zero value is a threshold of 0 — scores are non-negative, so it
// prunes nothing — ready to use and safe for concurrent Load and Raise.
type Threshold struct {
	bits atomic.Uint64
}

// Load returns the current value.
func (t *Threshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Raise lifts the value to v if v is larger; smaller, equal and NaN
// values leave it alone.
func (t *Threshold) Raise(v float64) {
	for {
		old := t.bits.Load()
		if !(v > math.Float64frombits(old)) || t.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
