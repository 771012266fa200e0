package bench

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// runners lists every experiment for the smoke tests.
var runners = map[string]func(Scale, uint64) (*Table, error){
	"F1":  RunF1,
	"E1":  RunE1E2,
	"E3":  RunE3,
	"E4":  RunE4,
	"E5":  RunE5,
	"E6":  RunE6,
	"E7":  RunE7,
	"E8":  RunE8,
	"E9":  RunE9,
	"E10": RunE10,
	"E11": RunE11,
	"E12": RunE12,
	"PAR": func(s Scale, seed uint64) (*Table, error) { return RunParallel(s, seed, 4, 4) },
	"DISK": func(s Scale, seed uint64) (*Table, error) {
		return RunDisk(s, seed, 0, "")
	},
	"HOT":  RunHot,
	"REPL": RunRepl,
	"TUNE": RunTune,
}

func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			tbl, err := run(ScaleSmall, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			if !strings.Contains(buf.String(), tbl.Title) {
				t.Error("render lost the title")
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a, err := RunE1E2(ScaleSmall, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE1E2(ScaleSmall, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			// The wall-clock column is inherently noisy; skip it.
			if a.Columns[j] == "time" {
				continue
			}
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %s differs across identical runs: %s vs %s",
					i, a.Columns[j], a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// cell finds a row by first-column key and returns the named column value.
func cell(t *testing.T, tbl *Table, key, col string) string {
	t.Helper()
	ci := -1
	for i, c := range tbl.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, tbl.Columns)
	}
	for _, row := range tbl.Rows {
		if row[0] == key {
			return row[ci]
		}
	}
	t.Fatalf("no row with key %q", key)
	return ""
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// TestE1ShapeHolds asserts the paper's central claim direction at small
// scale: some fragment point delivers a large speedup with a measurable
// quality drop.
func TestE1ShapeHolds(t *testing.T) {
	tbl, err := RunE1E2(ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	var bestSpeedup float64
	var sawDrop bool
	for _, row := range tbl.Rows {
		speedup := parse(t, row[4])
		drop := parse(t, row[7])
		if speedup > bestSpeedup {
			bestSpeedup = speedup
		}
		if drop > 5 && speedup > 30 {
			sawDrop = true
		}
	}
	if bestSpeedup < 50 {
		t.Errorf("best unsafe speedup %.1f%%; paper shape needs a large saving", bestSpeedup)
	}
	if !sawDrop {
		t.Error("no fragment point shows the speedup-with-quality-drop trade-off")
	}
}

// TestE5ShapeHolds asserts the rewrite's asymptotic advantage: at the
// largest size, the optimized plan does under 1% of the naive work.
func TestE5ShapeHolds(t *testing.T) {
	tbl, err := RunE5(ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[1] != "fully-optimized" {
		t.Fatalf("unexpected final row %v", last)
	}
	if ratio := parse(t, last[4]); ratio > 0.01 {
		t.Errorf("fully optimized plan does %.4f of naive work; want < 0.01", ratio)
	}
}

func TestE3MonotoneSwitching(t *testing.T) {
	tbl, err := RunE3(ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	prevSwitched, prevDecodes := -1.0, -1.0
	for _, row := range tbl.Rows {
		sw := parse(t, row[1])
		dec := parse(t, row[2])
		if sw < prevSwitched {
			t.Errorf("switch count not monotone in threshold: %v", tbl.Rows)
		}
		if dec < prevDecodes {
			t.Errorf("decode cost not monotone in threshold")
		}
		prevSwitched, prevDecodes = sw, dec
	}
}

// TestDiskBackendInvariants runs the DISK experiment (whose runner
// internally asserts byte-identical top-N across backends — it errors on
// any divergence) and checks the acceptance shape: the pool is genuinely
// smaller than the segment, page faults are reported, and the decode
// plan is backend-independent.
func TestDiskBackendInvariants(t *testing.T) {
	tbl, err := RunDisk(ScaleSmall, 42, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Metrics["pool_pages"] >= tbl.Metrics["segment_pages"] {
		t.Fatalf("pool %v pages not smaller than segment %v pages",
			tbl.Metrics["pool_pages"], tbl.Metrics["segment_pages"])
	}
	if tbl.Metrics["page_faults_cold"] <= 0 {
		t.Error("cold pass reported no page faults despite an empty pool")
	}
	if tbl.Metrics["block_faults_cold"] <= 0 {
		t.Error("cold pass reported no block faults")
	}
	if hr := tbl.Metrics["hit_rate_warm"]; hr <= 0 || hr > 1 {
		t.Errorf("warm hit rate %v out of (0,1]", hr)
	}
	memDecodes := cell(t, tbl, "memory", "decodes")
	for _, pass := range []string{"paged/cold", "paged/warm"} {
		if got := cell(t, tbl, pass, "decodes"); got != memDecodes {
			t.Errorf("%s decoded %s postings, memory decoded %s — decode plan must be backend-independent", pass, got, memDecodes)
		}
	}
}

// TestReportJSONRoundTrips: the machine-readable report must carry the
// tables and metrics faithfully through JSON.
func TestReportJSONRoundTrips(t *testing.T) {
	tbl, err := RunDisk(ScaleSmall, 7, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Scale: "small", Seed: 7}
	rep.Add(tbl)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].ID != "DISK" {
		t.Fatalf("round-trip lost the experiment: %+v", back)
	}
	e := back.Experiments[0]
	if len(e.Rows) != len(tbl.Rows) || len(e.Metrics) != len(tbl.Metrics) {
		t.Error("rows or metrics dropped in JSON round trip")
	}
	if e.Metrics["hit_rate_warm"] != tbl.Metrics["hit_rate_warm"] {
		t.Error("metric value changed in JSON round trip")
	}
}
