package live

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage"
)

// ManifestFile is the name of the manifest inside a live index
// directory. The manifest is the root of truth: a segment directory not
// listed here does not exist as far as the index is concerned (it is a
// leftover of a crash between a commit and a deferred deletion) and is
// garbage-collected on Open.
const ManifestFile = "live.json"

// Manifest is a live index's committed state — the on-disk registry of
// active segments (rewritten atomically, temp file + rename, on every
// commit) and, unchanged, what a leader publishes for replication.
// Generation is the replication ordinal: every commit increments it, and
// equal generations imply byte-identical chains, which is what lets a
// follower decide staleness by comparing one number.
type Manifest struct {
	Version    int           `json:"version"`
	Generation uint64        `json:"generation"`
	NextSeq    uint64        `json:"next_seq"`
	Segments   []SegmentInfo `json:"segments"`
}

// SegmentInfo records one active segment. Base/Docs are duplicated from
// the segment's own stats so the chain can be validated to partition the
// document space before it is served. Snap is the ordinal of the
// persisted lexicon snapshot; the max-snap segment restores the master
// lexicon on reopen.
//
// Tomb is the version of the segment's alive-bitmap sidecar
// (alive-%06d.bm): 0 means no bitmap — every stored document alive —
// and a tombstone is committed exactly when the manifest referencing
// its bitmap version lands, the same swap-is-commit rule segments
// follow. Alive duplicates the bitmap's population count so a torn or
// stale sidecar is detected on reopen.
type SegmentInfo struct {
	Name  string `json:"name"`
	Seq   uint64 `json:"seq"`
	Snap  uint64 `json:"snap"`
	Base  uint32 `json:"base"`
	Docs  int    `json:"docs"`
	Alive int    `json:"alive"`
	Tomb  uint64 `json:"tomb,omitempty"`
}

// writeManifest atomically and durably replaces the manifest under dir
// (fsync'd file + directory: the swap is every commit's durability
// point — a Delete that returned must survive power loss).
func writeManifest(dir string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("live: encode manifest: %w", err)
	}
	if err := storage.AtomicWriteFile(filepath.Join(dir, ManifestFile), raw); err != nil {
		return fmt.Errorf("live: write manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates the manifest under dir. A missing
// manifest returns (nil, nil): a fresh directory.
func readManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("live: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("live: manifest %s is not valid JSON (corrupt?): %w",
			filepath.Join(dir, ManifestFile), err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks (and normalizes) the manifest's internal consistency:
// version 1, sequence numbers below NextSeq, and a segment chain that
// partitions [0, totalDocs) in base order. It is shared by readManifest
// and the follower-side ApplyManifest, so a manifest received over the
// wire meets exactly the bar a local one does.
func (m *Manifest) validate() error {
	if m.Version != 1 {
		return fmt.Errorf("live: manifest version %d, this build reads version 1", m.Version)
	}
	// The chain must partition [0, totalDocs) in base order.
	sort.Slice(m.Segments, func(a, b int) bool { return m.Segments[a].Base < m.Segments[b].Base })
	var next uint32
	for i, s := range m.Segments {
		if s.Base != next {
			return fmt.Errorf("live: manifest segment %d (%s) starts at doc %d, expected %d: corrupt manifest",
				i, s.Name, s.Base, next)
		}
		if s.Docs <= 0 {
			return fmt.Errorf("live: manifest segment %s holds %d documents: corrupt manifest", s.Name, s.Docs)
		}
		if s.Seq >= m.NextSeq {
			return fmt.Errorf("live: manifest segment %s has seq %d >= next_seq %d: corrupt manifest",
				s.Name, s.Seq, m.NextSeq)
		}
		if s.Tomb == 0 {
			// No bitmap: every stored document is alive. Manifests written
			// before the delete path record no Alive field; normalize.
			m.Segments[i].Alive = s.Docs
		} else if s.Alive < 0 || s.Alive > s.Docs {
			return fmt.Errorf("live: manifest segment %s claims %d alive of %d documents: corrupt manifest",
				s.Name, s.Alive, s.Docs)
		}
		next += uint32(s.Docs)
	}
	return nil
}

// gcStale removes every seg-* directory under dir that the manifest
// does not list — leftovers of a crash between a commit and the
// deferred deletion of merged-away inputs, or (in follower mode)
// pulled segments whose manifest never committed — plus pull-* staging
// directories and stray top-level temp files (*.tmp / *.partial) a
// mid-pull or mid-write crash abandoned, and, inside listed segment
// directories, every alive-bitmap version file the manifest does not
// reference (a tombstone written but never committed, or superseded and
// not yet deleted). It returns the removed names.
func gcStale(dir string, m *Manifest) ([]string, error) {
	known := make(map[string]uint64, len(m.Segments))
	for _, s := range m.Segments {
		known[s.Name] = s.Tomb
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("live: scan %s: %w", dir, err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "pull-") {
			// Replication staging: contents become real only by rename to
			// a seg-* name, so anything still here is an abandoned pull.
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return removed, fmt.Errorf("live: gc stale pull staging %s: %w", e.Name(), err)
			}
			removed = append(removed, e.Name())
			continue
		}
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".partial")) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return removed, fmt.Errorf("live: gc stale temp file %s: %w", e.Name(), err)
			}
			removed = append(removed, e.Name())
			continue
		}
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "seg-") {
			continue
		}
		tomb, ok := known[e.Name()]
		if !ok {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return removed, fmt.Errorf("live: gc stale segment %s: %w", e.Name(), err)
			}
			removed = append(removed, e.Name())
			continue
		}
		segDir := filepath.Join(dir, e.Name())
		files, err := os.ReadDir(segDir)
		if err != nil {
			return removed, fmt.Errorf("live: scan %s: %w", segDir, err)
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasPrefix(name, "alive-") {
				continue
			}
			if tomb != 0 && name == aliveName(tomb) {
				continue
			}
			if err := os.Remove(filepath.Join(segDir, name)); err != nil {
				return removed, fmt.Errorf("live: gc stale bitmap %s/%s: %w", e.Name(), name, err)
			}
			removed = append(removed, e.Name()+"/"+name)
		}
	}
	return removed, nil
}
