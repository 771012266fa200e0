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
				ID: "E12", Title: "t", WallMS: 10,
				Columns: []string{"a", "b"},
				Rows:    [][]string{{"1", "2"}},
				Metrics: map[string]float64{"decodes": 14345, "skips": 120},
			},
			{
				ID: "LIVE", Title: "t", WallMS: 50,
				Columns: []string{"x"},
				Rows:    [][]string{{"1"}, {"2"}},
				Metrics: map[string]float64{"equiv": 1, "merges": 2, "search_ms_per_query": 0.5},
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
// stamps and of anything machine-dependent (timing metrics, wall-clock).
func TestCompareIdentical(t *testing.T) {
	b := baseReport()
	f := clone(t, b)
	f.GitSHA, f.Timestamp = "deadbeef", time.Now().Format(time.RFC3339)
	f.Experiments[1].Metrics["search_ms_per_query"] = 400
	f.Experiments[1].WallMS = 50 * 26
	if diffs := CompareReports(b, f); len(diffs) != 0 {
		t.Fatalf("identical reports flagged: %v", diffs)
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
