package live

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/rank"
	"repro/internal/storage"
)

// crashArm is the CrashHook of the matrix test: it fires at exactly one
// armed point and records that it did.
type crashArm struct {
	mu     sync.Mutex
	target CrashPoint
	fired  int
}

func (a *crashArm) hook(p CrashPoint) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.target != "" && p == a.target {
		a.fired++
		return true
	}
	return false
}

func (a *crashArm) arm(p CrashPoint) {
	a.mu.Lock()
	a.target = p
	a.mu.Unlock()
}

// assertDirConsistent asserts the on-disk directory matches its
// manifest after recovery: every segment directory is listed, and every
// alive-bitmap version inside one is exactly the version the manifest
// references — no uncommitted orphans, no stale versions.
func assertDirConsistent(t *testing.T, dir string) {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]uint64, len(m.Segments))
	for _, ms := range m.Segments {
		listed[ms.Name] = ms.Tomb
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "seg-") {
			continue
		}
		tomb, ok := listed[e.Name()]
		if !ok {
			t.Errorf("segment directory %s survives recovery but is not in the manifest", e.Name())
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, "alive-") && (tomb == 0 || name != aliveName(tomb)) {
				t.Errorf("segment %s holds stale bitmap version %s (manifest references %d)",
					e.Name(), name, tomb)
			}
		}
	}
}

// TestCrashPointMatrix drives every named crash point of the seal,
// merge, and delete commit protocols: build a churned base state, arm
// exactly one point, attempt the operation (which dies there), take a
// crash image of the directory, and reopen it. The recovered state must
// match the protocol's commit semantics exactly — an operation that
// crashed before its manifest swap never happened; one that crashed
// after it is fully durable — with results byte-identical to a fresh
// one-shot build over the surviving documents, no resurrected
// tombstones, and all uncommitted artifacts garbage-collected.
func TestCrashPointMatrix(t *testing.T) {
	for _, cp := range CrashPoints {
		t.Run(string(cp), func(t *testing.T) {
			col := genCollection(t, 330, 61)
			queries := genQueries(t, col, 62)
			liveDir := filepath.Join(t.TempDir(), "live")
			arm := &crashArm{}
			cfg := Config{Dir: liveDir, SealDocs: 60, MergeFanIn: 3, CrashHook: arm.hook}
			w, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			// Base state: 300 sealed documents in 5 segments, 20 committed
			// tombstones, empty buffer.
			st := newChurnState()
			for i := 0; i < 300; i++ {
				id, err := w.Add(DocTerms(col.Lex, col.Docs[i]))
				if err != nil {
					t.Fatal(err)
				}
				st.add(id, i)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(631))
			for k := 0; k < 20; k++ {
				id, _ := st.removeAt(rng.Intn(len(st.alive)))
				if err := w.Delete(id); err != nil {
					t.Fatal(err)
				}
			}

			// Arm the point and attempt the operation it belongs to. The
			// churn-state bookkeeping applies exactly the committed effect:
			// nothing for a crash before the swap, everything for one after.
			arm.arm(cp)
			var opErr error
			victim := st.alive[10]
			expectSegs := 5
			switch {
			case strings.HasPrefix(string(cp), "seal:"):
				for i := 300; i < 330; i++ {
					if _, err := w.Add(DocTerms(col.Lex, col.Docs[i])); err != nil {
						t.Fatal(err)
					}
				}
				opErr = w.Flush()
				if cp == CrashSealAfterCommit {
					for i := 300; i < 330; i++ {
						st.add(uint32(i), i)
					}
					expectSegs = 6
				}
			case strings.HasPrefix(string(cp), "merge:"):
				opErr = w.MergeAll()
				if cp == CrashMergeAfterCommit {
					expectSegs = 3 // fan-in 3 run replaced by one segment
				}
			default:
				opErr = w.Delete(victim)
				if cp == CrashDeleteAfterCommit {
					for i, id := range st.alive {
						if id == victim {
							st.removeAt(i)
							break
						}
					}
				}
			}
			if !errors.Is(opErr, ErrCrashPoint) {
				t.Fatalf("operation error = %v, want the injected crash (was the point reached?)", opErr)
			}
			if arm.fired == 0 {
				t.Fatal("armed crash point never fired")
			}
			if w.Err() == nil {
				t.Fatal("a crash must poison the writer")
			}

			// Take the crash image and recover it.
			image := filepath.Join(t.TempDir(), "image")
			copyDir(t, liveDir, image)
			rw, err := Open(Config{Dir: image, SealDocs: 60, MergeFanIn: 3})
			if err != nil {
				t.Fatalf("crash image at %s failed to reopen: %v", cp, err)
			}
			defer rw.Close()

			stats := rw.Stats()
			if stats.DocsAlive != int64(len(st.alive)) {
				t.Fatalf("recovered %d alive documents, want %d", stats.DocsAlive, len(st.alive))
			}
			if stats.Segments != expectSegs {
				t.Fatalf("recovered %d segments, want %d", stats.Segments, expectSegs)
			}
			assertDirConsistent(t, image)

			// Results must be byte-identical to a fresh build over the
			// survivors — no phantom statistics from lost documents, no
			// resurrected tombstones shading the ranking.
			sub, fromRef := survivorRef(t, col, st)
			pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := index.Build(sub, pool)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := core.NewMaxScore(idx, rank.NewBM25())
			if err != nil {
				t.Fatal(err)
			}
			s := rw.Searcher()
			for _, q := range queries {
				names := queryNames(col, q)
				res, err := s.Search(names, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Exact || res.Degraded {
					t.Fatalf("recovered index serves degraded certificates: %+v", res.Cert)
				}
				ref, err := ms.Search(refQuery(sub.Lex, names), 10)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTop(t, "recovered vs survivor build", res.Top, mapRef(ref, fromRef))
			}

			// Tombstone semantics at the point: a delete that crashed before
			// its swap never happened (the victim is still deletable), one
			// that crashed after is durable (ErrNotFound).
			switch cp {
			case CrashDeleteBeforeCommit:
				if err := rw.Delete(victim); err != nil {
					t.Fatalf("uncommitted delete must not survive the crash: %v", err)
				}
			case CrashDeleteAfterCommit:
				if err := rw.Delete(victim); !errors.Is(err, ErrNotFound) {
					t.Fatalf("committed delete lost in the crash: %v", err)
				}
			}

			// The recovered writer is fully functional: it accepts writes,
			// seals, and serves them.
			if _, err := rw.Add(DocTerms(col.Lex, col.Docs[0])); err != nil {
				t.Fatalf("recovered writer rejects writes: %v", err)
			}
			if err := rw.Flush(); err != nil {
				t.Fatalf("recovered writer fails to seal: %v", err)
			}
			if _, err := s.Search(queryNames(col, queries[0]), 10); err != nil {
				t.Fatalf("recovered writer fails to search after a new seal: %v", err)
			}
		})
	}
}
