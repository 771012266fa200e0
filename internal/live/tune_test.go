package live

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rank"
	"repro/internal/tune"
)

// newTestTuner builds a deterministic tuner (modeled spans, every knob
// adaptive within test bounds) for the live integration tests.
func newTestTuner() *tune.Tuner {
	return tune.New(tune.Config{
		SpanModel:  &tune.SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
		SealDocs:   tune.Bounds{Min: 50, Max: 400},
		MergeFanIn: tune.Bounds{Min: 2, Max: 6},
		PoolPages:  tune.Bounds{Min: 32, Max: 128},
	})
}

// TestOpenRejectsNegativeKnobs: a negative MergeHorizon or PurgeDeadFrac
// must fail Open loudly instead of passing through fillDefaults (which
// only replaces exact zeros) and silently disabling merges or marking
// every segment purge-eligible. This test fails on the pre-fix code,
// where both values were accepted.
func TestOpenRejectsNegativeKnobs(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir(), MergeHorizon: -1}); err == nil {
		t.Fatal("Open accepted MergeHorizon -1")
	} else if !strings.Contains(err.Error(), "MergeHorizon") {
		t.Fatalf("MergeHorizon error does not name the knob: %v", err)
	}
	if _, err := Open(Config{Dir: t.TempDir(), PurgeDeadFrac: -0.5}); err == nil {
		t.Fatal("Open accepted PurgeDeadFrac -0.5")
	} else if !strings.Contains(err.Error(), "PurgeDeadFrac") {
		t.Fatalf("PurgeDeadFrac error does not name the knob: %v", err)
	}
}

// runTunedWorkload streams a churny deterministic workload through one
// writer configuration — adds, interleaved queries, deletes, a final
// flush and merge-to-fixpoint — and returns the query answers plus the
// writer for further inspection. Callers own Close.
func runTunedWorkload(t *testing.T, tn *tune.Tuner) (*Writer, [][]rank.DocScore) {
	t.Helper()
	col := genCollection(t, 900, 7)
	queries := genQueries(t, col, 8)
	w, err := Open(Config{
		Dir:        t.TempDir(),
		SealDocs:   100,
		MergeFanIn: 3,
		Workers:    1,
		Tune:       tn,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Searcher()
	qi := 0
	for i := range col.Docs {
		if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
		// Interleave queries so the tuner observes a mixed stream while
		// the index is still fragmenting.
		if i%40 == 39 {
			q := queries[qi%len(queries)]
			qi++
			if _, err := s.Search(queryNames(col, q), 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tombstone a deterministic slice so purge candidates exist.
	for id := uint32(0); id < 300; id += 3 {
		if err := w.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.MergeAll(); err != nil {
		t.Fatal(err)
	}
	var tops [][]rank.DocScore
	for _, q := range queries {
		res, err := s.Search(queryNames(col, q), 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Degraded {
			t.Fatalf("healthy tuned search not exact: %+v", res.Cert)
		}
		tops = append(tops, res.Top)
	}
	return w, tops
}

// TestTunedDeterminismAndEquivalence: two tuned runs over the same
// workload agree exactly — decision digest, decision count, segment
// layout — and both answer every query byte-identically to the static
// (untuned) policy over the same documents. Adaptivity changes when and
// what gets merged, never what a query returns.
func TestTunedDeterminismAndEquivalence(t *testing.T) {
	wa, topsA := runTunedWorkload(t, newTestTuner())
	defer wa.Close()
	wb, topsB := runTunedWorkload(t, newTestTuner())
	defer wb.Close()
	ws, topsS := runTunedWorkload(t, nil)
	defer ws.Close()

	da, db := wa.cfg.Tune.DecisionDigest(), wb.cfg.Tune.DecisionDigest()
	if da != db {
		t.Fatalf("same workload, different decision digests: %d vs %d", da, db)
	}
	sa, sb := wa.TuneStats(), wb.TuneStats()
	if !sa.Enabled || sa.Decisions == 0 {
		t.Fatalf("tuner recorded nothing: %+v", sa)
	}
	if sa.Decisions != sb.Decisions || sa.Queries != sb.Queries || sa.Merges != sb.Merges {
		t.Fatalf("tuned runs diverged: %+v vs %+v", sa, sb)
	}
	if wa.Stats().Segments != wb.Stats().Segments || wa.Stats().Merges != wb.Stats().Merges {
		t.Fatalf("tuned runs built different layouts: %+v vs %+v", wa.Stats(), wb.Stats())
	}
	if ws.TuneStats().Enabled {
		t.Fatal("static run reports an enabled tuner")
	}
	for i := range topsA {
		assertSameTop(t, "tuned run A vs B", topsA[i], topsB[i])
		assertSameTop(t, "tuned vs static", topsA[i], topsS[i])
	}

	// The maintenance-work account must be live on every configuration:
	// seals write pages regardless of policy.
	for _, w := range []*Writer{wa, ws} {
		ms := w.MaintStats()
		if ms.SealPagesWritten == 0 {
			t.Fatalf("no seal pages accounted: %+v", ms)
		}
		if w.Stats().Merges > 0 && (ms.MergePagesRead == 0 || ms.MergePagesWritten == 0 || ms.MergeReencoded == 0) {
			t.Fatalf("merges ran but the work account is empty: %+v", ms)
		}
	}
}

// TestTunedKnobsReachLive: a write-only stream must drive the adaptive
// seal threshold to its bound — observable as fewer, larger segments
// than the static base produces — while a purge decision appears in the
// log once tombstones pile up.
func TestTunedKnobsReachLive(t *testing.T) {
	col := genCollection(t, 800, 11)
	open := func(tn *tune.Tuner) *Writer {
		w, err := Open(Config{Dir: t.TempDir(), SealDocs: 100, MergeFanIn: 3, Workers: 1, Tune: tn})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	tn := tune.New(tune.Config{
		SpanModel: &tune.SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
		SealDocs:  tune.Bounds{Min: 50, Max: 400},
	})
	wt, wsN := open(tn), open(nil)
	defer wt.Close()
	defer wsN.Close()
	streamInto(t, wt, col)
	for i := range col.Docs {
		if _, err := wsN.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wsN.Flush(); err != nil {
		t.Fatal(err)
	}
	st, ss := wt.Stats(), wsN.Stats()
	if st.Seals >= ss.Seals {
		t.Fatalf("write-heavy tuner sealed %d times, static %d — the raised threshold must reduce seals", st.Seals, ss.Seals)
	}
	if got := wt.TuneStats().SealDocs; got != 400 {
		t.Fatalf("write-only stream left SealDocs at %d, want the bound 400", got)
	}
}

// TestTunedChainNotStranded: a tuner with every knob frozen changes the
// planner's coefficients, never its structure — over a long stream of
// variable-length documents the merged chain has exactly the untuned
// writer's shape. Ranking candidates by predicted net benefit failed
// this: among equal-sized fresh seals the best-priced window is decided
// by document-length noise, lands mid-chain, and strands its left
// neighbours behind the adjacency and tier rules (13 segments, seven of
// them stranded 512-document seals, against 7 segments here).
func TestTunedChainNotStranded(t *testing.T) {
	run := func(tn *tune.Tuner) []int {
		w, err := Open(Config{Dir: t.TempDir(), Workers: 1, Tune: tn})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		rng := rand.New(rand.NewSource(16))
		term := func() string { return "t" + strconv.Itoa(rng.Intn(5000)) }
		s := w.Searcher()
		query := func() {
			if _, err := s.Search([]string{term(), term(), term()}, 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20000; i++ {
			doc := make([]TermCount, 20+rng.Intn(120))
			for j := range doc {
				doc[j] = TermCount{Term: term(), TF: 1}
			}
			if _, err := w.Add(doc); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				query()
			}
		}
		for i := 0; i < 200; i++ {
			query()
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.MergeAll(); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		var chain []int
		for _, seg := range w.segs {
			chain = append(chain, seg.docs)
		}
		t.Logf("chain %v: %d merges, %d postings re-encoded", chain, w.merges, w.mergeReencoded)
		return chain
	}
	static := run(nil)
	tuned := run(tune.New(tune.Config{
		SpanModel: &tune.SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
	}))
	if !reflect.DeepEqual(tuned, static) {
		t.Fatalf("frozen tuner changed the chain:\n tuned  %v (%d segments)\n static %v (%d segments)",
			tuned, len(tuned), static, len(static))
	}
}
