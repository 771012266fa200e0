package bench

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Report is the machine-readable counterpart of the rendered tables:
// one entry per experiment run, with the runner's headline metrics
// (decodes, skips, hit rate, ...) alongside the full row grid. topnbench -json writes one Report per invocation; CI
// uploads it as an artifact so benchmark trajectories accumulate across
// commits. GitSHA and Timestamp make each artifact a self-describing
// trajectory point; CompareReports ignores them (they differ by
// construction between a baseline and a fresh run).
type Report struct {
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed"`
	GitSHA    string `json:"git_sha,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`

	Experiments []ReportExperiment `json:"experiments"`
}

// Stamp fills the provenance fields: the current commit (best effort —
// `git rev-parse HEAD`, then the GITHUB_SHA environment CI exports,
// then "unknown") and the UTC wall time.
func (r *Report) Stamp() {
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		r.GitSHA = strings.TrimSpace(string(out))
		return
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		r.GitSHA = sha
		return
	}
	r.GitSHA = "unknown"
}

// ReportExperiment is one experiment's machine-readable record.
type ReportExperiment struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Columns []string           `json:"columns"`
	Rows    [][]string         `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Add records one finished experiment.
func (r *Report) Add(t *Table) {
	r.Experiments = append(r.Experiments, ReportExperiment{
		ID:      t.ID,
		Title:   t.Title,
		Columns: t.Columns,
		Rows:    t.Rows,
		Notes:   t.Notes,
		Metrics: t.Metrics,
	})
}

// WriteJSON serializes the report, indented for artifact diffing.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
