//go:build !race

package live

import (
	"context"
	"runtime"
	"testing"
)

// TestLiveSearchAllocs pins what one uncached live search allocates, on
// the shape the timed benchmark serves: seven segments, two workers,
// 2-6-term queries, N = 10. The engines allocate nothing once warm (the
// gates in internal/core); what is left is live's own fan-out — the
// resolved ids, one leg table and one result buffer for all segments,
// parallel.Gather's context, error table and one goroutine beside the
// caller's, the merge. Not run
// under the race detector, which makes sync.Pool drop Puts at random.
func TestLiveSearchAllocs(t *testing.T) {
	col := genCollection(t, 1530, 61)
	w, err := Open(Config{Dir: t.TempDir(), SealDocs: 100, MergeFanIn: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	streamInto(t, w, col)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Segments; got != 7 {
		t.Fatalf("setup left %d segments, want the benchmark's 7", got)
	}
	var queries [][]string
	for _, q := range genQueries(t, col, 62) {
		queries = append(queries, queryNames(col, q))
	}
	s := w.Searcher()
	ctx := context.Background()
	search := func(terms []string) {
		if _, err := s.SearchContext(ctx, terms, 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries { // warm every engine's pooled state
		search(q)
	}
	runtime.GC()
	var total float64
	for _, q := range queries {
		search(q)
		total += testing.AllocsPerRun(10, func() { search(q) })
	}
	// 17 measured. The ceiling leaves room for a toolchain's difference,
	// not for a per-segment allocation to come back.
	const ceiling = 20
	if mean := total / float64(len(queries)); mean > ceiling {
		t.Fatalf("a live search allocates %.1f times on average, want at most %d", mean, ceiling)
	} else {
		t.Logf("%.1f allocs per live search", mean)
	}
}
