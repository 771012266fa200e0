package live

import (
	"testing"

	"repro/internal/cost"
)

// planSeg is a fully-live segment of docs documents at postingsPerDoc
// postings each, two bytes a posting.
func planSeg(docs, postingsPerDoc int) cost.SegmentStats {
	p := int64(docs) * int64(postingsPerDoc)
	return cost.SegmentStats{Docs: docs, Postings: p, Bytes: 2 * p, Alive: docs, Stored: docs}
}

func planSegs(postingsPerDoc int, docs ...int) []cost.SegmentStats {
	out := make([]cost.SegmentStats, len(docs))
	for i, d := range docs {
		out[i] = planSeg(d, postingsPerDoc)
	}
	return out
}

// TestSelectMaintenance drives the pure planner over hand-built chains:
// structure (width, then size, then position) orders the candidates, the
// cost model only gates them, and the purge rule is the fallback.
func TestSelectMaintenance(t *testing.T) {
	static := planCoeffs{terms: defaultTermsPerQuery, horizon: 1000, ratio: 1, kLo: 4, kHi: 4, purgeFrac: 0.5}
	ranged := static
	ranged.kLo, ranged.kHi = 2, 6
	myopic := static
	myopic.horizon = 1

	// Six equal-document seals; the two left ones are long documents, so
	// the cheapest (highest net benefit) 4-window is [2, 6). Taking it
	// would strand segments 0 and 1.
	noisy := planSegs(80, 512, 512, 512, 512, 512, 512)
	noisy[0], noisy[1] = planSeg(512, 139), planSeg(512, 139)

	// dead tombstones n of segment i's stored documents.
	dead := func(segs []cost.SegmentStats, i, n int) []cost.SegmentStats {
		segs[i].Alive -= n
		return segs
	}

	cases := []struct {
		name        string
		stats       []cost.SegmentStats
		quarantined []int
		c           planCoeffs
		lo, hi      int
		ok          bool
	}{
		{name: "equal docs, cheapest window mid-chain: earliest wins",
			stats: noisy, c: static, lo: 0, hi: 4, ok: true},
		{name: "the small tier merges, not the window straddling tiers",
			stats: planSegs(80, 2048, 512, 512, 512, 512), c: static, lo: 1, hi: 5, ok: true},
		{name: "fewest documents among qualifying windows",
			stats: planSegs(80, 1024, 1024, 1024, 1024, 512, 512, 512, 512), c: static, lo: 4, hi: 8, ok: true},
		{name: "a width range takes the widest run that exists",
			stats: planSegs(80, 512, 512, 512), c: ranged, lo: 0, hi: 3, ok: true},
		{name: "a tier violation narrows the run",
			stats: planSegs(80, 512, 512, 4096), c: ranged, lo: 0, hi: 2, ok: true},
		{name: "too few segments for the one width",
			stats: planSegs(80, 512, 512, 512), c: static},
		{name: "nothing worthwhile at the horizon",
			stats: planSegs(80, 512, 512, 512, 512), c: myopic},
		{name: "a quarantined segment is in no merge",
			stats: planSegs(80, 512, 512, 512, 512, 512), quarantined: []int{1}, c: static},
		{name: "a quarantined segment is not purged; the healthy one is",
			stats:       dead(dead(planSegs(80, 512, 512), 0, 500), 1, 300),
			quarantined: []int{0}, c: static, lo: 1, hi: 2, ok: true},
		{name: "no purge below the threshold",
			stats: dead(planSegs(80, 512, 512), 0, 255), c: static},
		{name: "purge at the threshold, highest dead fraction first",
			stats: dead(dead(dead(planSegs(80, 512, 512, 512), 0, 256), 1, 400), 2, 300),
			c:     static, lo: 1, hi: 2, ok: true},
		{name: "a qualifying merge goes before any purge",
			stats: dead(planSegs(80, 512, 512, 512, 512), 3, 500), c: static, lo: 0, hi: 4, ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := make([]bool, len(tc.stats))
			for _, i := range tc.quarantined {
				q[i] = true
			}
			lo, hi, est, ok := selectMaintenance(tc.stats, q, tc.c)
			if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
				t.Fatalf("selected [%d, %d) ok=%v, want [%d, %d) ok=%v", lo, hi, ok, tc.lo, tc.hi, tc.ok)
			}
			if ok && (est.QueryGain <= 0 || est.MergeCost <= 0) {
				t.Fatalf("plan carries no prediction: %+v", est)
			}
		})
	}

	// The premise of the first case: a net-benefit ranking would indeed
	// have preferred the mid-chain window.
	net := func(lo, hi int) float64 {
		e, err := cost.EstimateMerge(noisy[lo:hi], static.terms, static.weight)
		if err != nil {
			t.Fatal(err)
		}
		return e.QueryGain*float64(static.horizon) - e.MergeCost
	}
	if net(2, 6) <= net(0, 4) {
		t.Fatalf("test chain does not make the mid-chain window cheapest: net %v vs %v", net(2, 6), net(0, 4))
	}
}
