package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func baseReport() *Report {
	return &Report{
		Scale: "small", Seed: 42,
		Experiments: []ReportExperiment{
			{
				ID: "E12", Title: "t",
				Columns: []string{"a", "b"},
				Rows:    [][]string{{"1", "2"}},
				Metrics: map[string]float64{"decodes": 14345, "skips": 120},
			},
			{
				ID: "LIVE", Title: "t",
				Columns: []string{"x"},
				Rows:    [][]string{{"1"}, {"2"}},
				Metrics: map[string]float64{"equiv": 1, "merges": 2, "probe_ms": 3},
			},
		},
	}
}

func clone(t *testing.T, r *Report) *Report {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cp Report
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	return &cp
}

// TestCompareIdentical: a report must pass against its own JSON
// round-trip (the committed-baseline path), regardless of provenance
// stamps.
func TestCompareIdentical(t *testing.T) {
	b := baseReport()
	f := clone(t, b)
	f.GitSHA, f.Timestamp = "deadbeef", time.Now().Format(time.RFC3339)
	if diffs := CompareReports(b, f); len(diffs) != 0 {
		t.Fatalf("identical reports flagged: %v", diffs)
	}
}

// TestCompareUngated: only the five scheduling-dependent prefixes are
// exempt from exact comparison; a key that merely looks like a timing
// ("_ms") is gated like any counter, so wall-clock cannot hide in the
// counter gate.
func TestCompareUngated(t *testing.T) {
	prefixes := []string{"load_", "chaos_", "hot_", "repl_", "tune_"}
	b := baseReport()
	for _, prefix := range prefixes {
		b.Experiments[1].Metrics[prefix+"x"] = 1
	}
	f := clone(t, b)
	for _, prefix := range prefixes {
		f.Experiments[1].Metrics[prefix+"x"] = 2
	}
	if diffs := CompareReports(b, f); len(diffs) != 0 {
		t.Fatalf("prefixed metrics were compared: %v", diffs)
	}
	f.Experiments[1].Metrics["probe_ms"] = 400
	diffs := CompareReports(b, f)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "probe_ms") {
		t.Fatalf("an _ms key must be gated like any counter: %v", diffs)
	}
}

// TestCompareCounterDrift: a deterministic counter moving by one must
// trip the gate.
func TestCompareCounterDrift(t *testing.T) {
	b := baseReport()
	f := clone(t, b)
	f.Experiments[0].Metrics["decodes"] = 14346
	diffs := CompareReports(b, f)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "decodes") {
		t.Fatalf("counter drift not caught: %v", diffs)
	}
}

// TestCompareExactnessFlag: a lost exactness certificate must trip the
// gate.
func TestCompareExactnessFlag(t *testing.T) {
	b := baseReport()
	f := clone(t, b)
	f.Experiments[1].Metrics["equiv"] = 0
	if diffs := CompareReports(b, f); len(diffs) != 1 {
		t.Fatalf("exactness drift not caught: %v", diffs)
	}
}

// TestCompareShape: added/removed experiments, shifted columns, and
// changed row counts are structural drift.
func TestCompareShape(t *testing.T) {
	b := baseReport()
	f := clone(t, b)
	f.Experiments = f.Experiments[:1]
	if diffs := CompareReports(b, f); len(diffs) != 1 {
		t.Fatalf("missing experiment not caught: %v", diffs)
	}
	f = clone(t, b)
	f.Experiments[0].Columns[1] = "c"
	if diffs := CompareReports(b, f); len(diffs) != 1 {
		t.Fatalf("column drift not caught: %v", diffs)
	}
	f = clone(t, b)
	f.Experiments[1].Rows = f.Experiments[1].Rows[:1]
	if diffs := CompareReports(b, f); len(diffs) != 1 {
		t.Fatalf("row-count drift not caught: %v", diffs)
	}
	f = clone(t, b)
	f.Experiments[0].Metrics["novel"] = 3
	if diffs := CompareReports(b, f); len(diffs) != 1 {
		t.Fatalf("new metric not caught: %v", diffs)
	}
	f = clone(t, b)
	f.Scale = "full"
	f.Seed = 7
	if diffs := CompareReports(b, f); len(diffs) != 2 {
		t.Fatalf("scale/seed drift not caught: %v", diffs)
	}
}

// TestStamp: reports stamp provenance (in this repo, a real commit).
func TestStamp(t *testing.T) {
	var r Report
	r.Stamp()
	if r.GitSHA == "" || r.Timestamp == "" {
		t.Fatalf("unstamped report: %+v", r)
	}
	if _, err := time.Parse(time.RFC3339, r.Timestamp); err != nil {
		t.Fatalf("timestamp %q not RFC3339: %v", r.Timestamp, err)
	}
}
