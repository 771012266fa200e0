package tune

// ewma is an exponentially weighted moving average that seeds itself on
// the first observation.
type ewma struct {
	v     float64
	alpha float64
	seen  bool
}

func (e *ewma) observe(x float64) {
	if !e.seen {
		e.v, e.seen = x, true
		return
	}
	e.v += e.alpha * (x - e.v)
}

// calibrator fits the cost model's two coefficients — nanoseconds per
// decoded posting and nanoseconds per block fault — from observed query
// spans by exponentially weighted least squares through the origin:
//
//	span ≈ decodeNs·decodes + faultNs·faults
//
// The decayed normal-equation sums make old workload phases fade at the
// same rate as the EWMAs. A second, direct channel measures physical
// page-read latency in isolation (storage.Pool timings); once it has
// data it overrides the regression's fault estimate, which is the
// harder coefficient to identify when warm caches keep faults rare.
type calibrator struct {
	alpha float64

	// decayed sums: S_xy = Σ decay^age · x·y
	sdd, sdf, sff, sdy, sfy float64

	decodeNs float64 // current estimate, ns per decoded posting
	faultNs  float64 // current estimate, ns per faulted block

	poolNs    ewma // direct physical-read latency channel, ns per read
	poolReads int64

	terms ewma // observed query fan-out (resolved terms per query)
}

// initialDecodeNs/initialFaultNs seed the coefficients at a ratio equal
// to cost.DefaultPageWeight (1000): a page fault is worth about a
// thousand posting decodes until measurements say otherwise.
const (
	initialDecodeNs = 100
	initialFaultNs  = 100_000
)

func newCalibrator() calibrator {
	return calibrator{
		alpha:    alpha,
		decodeNs: initialDecodeNs,
		faultNs:  initialFaultNs,
		poolNs:   ewma{alpha: alpha},
		terms:    ewma{alpha: alpha},
	}
}

// observeQuery folds one query's decode/fault counts and span (ns) into
// the regression and re-solves.
func (c *calibrator) observeQuery(decodes, faults int64, spanNs float64) {
	d, f := float64(decodes), float64(faults)
	decay := 1 - c.alpha
	c.sdd = c.sdd*decay + c.alpha*d*d
	c.sdf = c.sdf*decay + c.alpha*d*f
	c.sff = c.sff*decay + c.alpha*f*f
	c.sdy = c.sdy*decay + c.alpha*d*spanNs
	c.sfy = c.sfy*decay + c.alpha*f*spanNs
	c.solve()
}

// observePoolReads folds n physical page reads totalling totalNs into
// the direct fault-latency channel.
func (c *calibrator) observePoolReads(n int64, totalNs float64) {
	if n <= 0 || totalNs < 0 {
		return
	}
	c.poolReads += n
	c.poolNs.observe(totalNs / float64(n))
	c.solve()
}

// solve refreshes the coefficient estimates from the current sums. A
// coefficient only moves when the data identifies it: non-positive or
// ill-conditioned solutions keep the previous estimate.
func (c *calibrator) solve() {
	const eps = 1e-9
	switch {
	case c.sdd <= 0 && c.sff <= 0:
		// no data yet
	case c.sff <= eps*c.sdd:
		// faults never varied: identify the decode axis only
		if a := c.sdy / c.sdd; a > 0 {
			c.decodeNs = a
		}
	case c.sdd <= eps*c.sff:
		if b := c.sfy / c.sff; b > 0 {
			c.faultNs = b
		}
	default:
		det := c.sdd*c.sff - c.sdf*c.sdf
		if det > eps*c.sdd*c.sff {
			if a := (c.sdy*c.sff - c.sfy*c.sdf) / det; a > 0 {
				c.decodeNs = a
			}
			if b := (c.sfy*c.sdd - c.sdy*c.sdf) / det; b > 0 {
				c.faultNs = b
			}
		} else if a := c.sdy / c.sdd; a > 0 {
			// collinear inputs: attribute along the decode axis
			c.decodeNs = a
		}
	}
	if c.poolNs.seen {
		c.faultNs = c.poolNs.v
	}
}

// pageWeight is the calibrated fault/decode cost ratio, clamped to
// [minPageWeight, maxPageWeight].
func (c *calibrator) pageWeight() float64 {
	return min(max(c.faultNs/c.decodeNs, minPageWeight), maxPageWeight)
}
