package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/server"
)

// RunRepl (experiment REPL) exercises the replication layer end to end:
// a leader live index served over a real localhost listener, a follower
// pulling its sealed segments + sidecars through the /repl/ wire
// protocol, and a coordinator scattering queries over both. Three
// properties are gated:
//
//  1. Catch-up under churn: across batches of inserts and deletes the
//     follower's manifest ordinal reaches the leader's after every
//     sync, and its answers are byte-identical to the leader's — same
//     documents, same float64 scores, same order. A crash injected
//     mid-pull (staging directory half-filled) is recovered by reopen
//     GC plus one clean re-sync, and a leader merge that retires
//     segments between the follower's manifest fetch and its pulls
//     (404 mid-pull) is absorbed by replanning from a fresh manifest.
//  2. Coordinator equivalence: with both replicas caught up, the
//     scatter/gather answer over HTTP is exact, non-degraded, and
//     byte-identical to the single-node answer.
//  3. Staleness is certified, never silent: a follower left behind (and
//     later, shut down) costs the merged certificate its exactness —
//     Degraded with ShardsServed < ShardsTotal and the lagging replica
//     named — while the results still match the freshest replica; with
//     every replica down the coordinator answers 503, not stale data.
//
// Every counter depends only on the deterministic workload — syncs,
// segments/files/bytes pulled, certificate splits, equivalence flags —
// and is gated exactly.
func RunRepl(s Scale, seed uint64) (*Table, error) {
	w, err := NewWorkload(s, seed)
	if err != nil {
		return nil, err
	}
	const n = 10
	const batches = 4
	names := w.QueryNames()

	leaderDir, err := os.MkdirTemp("", "topn-repl-leader-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(leaderDir)
	followerDir, err := os.MkdirTemp("", "topn-repl-follower-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(followerDir)

	// Leader: explicit Flush control (SealDocs above any batch size,
	// merges only via MergeAll) so the segment chain is deterministic.
	lw, err := live.Open(live.Config{Dir: leaderDir, SealDocs: 1 << 30})
	if err != nil {
		return nil, err
	}
	lsrv, lbase, lerr, err := serveReplica(lw)
	if err != nil {
		lw.Close()
		return nil, err
	}
	shutdownLeader := shutdownOnce(lsrv, lerr) // closes lw too

	fw, err := live.Open(live.Config{Dir: followerDir, Follower: true})
	if err != nil {
		shutdownLeader()
		return nil, err
	}
	fwOpen := true
	defer func() {
		if fwOpen {
			fw.Close()
		}
	}()
	defer shutdownLeader()

	// The crash hook indirects through a reassignable func so each phase
	// arms its own behavior on the same Follower.
	var hook func(point string) bool
	fcfg := replica.FollowerConfig{CrashHook: func(p string) bool {
		if hook != nil {
			return hook(p)
		}
		return false
	}}
	fol, err := replica.NewFollower(fw, lbase, fcfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	t := &Table{
		ID: "REPL",
		Title: fmt.Sprintf("replication: segment shipping + distributed top-N (%d docs, %d batches, %d queries)",
			len(w.Col.Docs), batches, len(w.Queries)),
		Columns: []string{"phase", "leader gen", "follower gen", "segs pulled", "files pulled", "outcome"},
		Metrics: map[string]float64{},
	}

	// Phase 1: catch-up under churn. Each batch ingests a slice of the
	// corpus, tombstones a couple of earlier documents (so alive-bitmap
	// sidecars replicate too, not just fresh segments), seals, and syncs.
	var ids []uint32
	var docsDeleted int
	catchupSyncs := 0
	per := (len(w.Col.Docs) + batches - 1) / batches
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if hi > len(w.Col.Docs) {
			hi = len(w.Col.Docs)
		}
		for i := lo; i < hi; i++ {
			id, err := lw.Add(live.DocTerms(w.Col.Lex, w.Col.Docs[i]))
			if err != nil {
				return nil, fmt.Errorf("bench: REPL ingest doc %d: %w", i, err)
			}
			ids = append(ids, id)
		}
		if b > 0 {
			// Tombstone two documents sealed in earlier batches.
			for k := 0; k < 2; k++ {
				if err := lw.Delete(ids[(b-1)*per+k]); err != nil {
					return nil, fmt.Errorf("bench: REPL delete: %w", err)
				}
				docsDeleted++
			}
		}
		if err := lw.Flush(); err != nil {
			return nil, err
		}
		advanced, err := fol.SyncOnce(ctx)
		if err != nil {
			return nil, fmt.Errorf("bench: REPL sync batch %d: %w", b, err)
		}
		if !advanced {
			return nil, fmt.Errorf("bench: REPL sync batch %d did not advance the follower", b)
		}
		catchupSyncs++
		if lg, fg := lw.Manifest().Generation, fw.Manifest().Generation; lg != fg {
			return nil, fmt.Errorf("bench: REPL after batch %d: follower at generation %d, leader at %d", b, fg, lg)
		}
	}
	st := fol.Stats()
	t.AddRow("churn catch-up", lw.Manifest().Generation, fw.Manifest().Generation,
		st.SegmentsPulled, st.FilesPulled, fmt.Sprintf("%d syncs", catchupSyncs))

	// Byte-identical answers after catch-up.
	if err := replEquiv(lw, fw, names, n); err != nil {
		return nil, err
	}

	// Phase 2: crash mid-pull, then reopen. The leader advances, the
	// follower dies with a staging directory half-filled; reopening the
	// follower index must GC the staging leftovers, and one clean sync
	// must land the batch.
	if err := replIngestExtra(lw, w, 0, 8); err != nil {
		return nil, err
	}
	hook = func(p string) bool { return p == replica.CrashMidSegment }
	if _, err := fol.SyncOnce(ctx); !errors.Is(err, replica.ErrCrashPoint) {
		return nil, fmt.Errorf("bench: REPL crash injection: got %v, want ErrCrashPoint", err)
	}
	hook = nil
	preGen := fw.Manifest().Generation // the serving state an aborted sync must not have touched
	if err := fw.Close(); err != nil {
		return nil, err
	}
	fwOpen = false
	fw, err = live.Open(live.Config{Dir: followerDir, Follower: true})
	if err != nil {
		return nil, fmt.Errorf("bench: REPL follower reopen after crash: %w", err)
	}
	fwOpen = true
	gcClean, err := replDirClean(followerDir)
	if err != nil {
		return nil, err
	}
	if !gcClean {
		return nil, fmt.Errorf("bench: REPL follower reopen left pull staging or temp artifacts in %s", followerDir)
	}
	if g := fw.Manifest().Generation; g != preGen {
		return nil, fmt.Errorf("bench: REPL crashed sync moved the follower generation %d -> %d", preGen, g)
	}
	fol2, err := replica.NewFollower(fw, lbase, fcfg)
	if err != nil {
		return nil, err
	}
	if advanced, err := fol2.SyncOnce(ctx); err != nil || !advanced {
		return nil, fmt.Errorf("bench: REPL re-sync after crash: advanced=%v err=%v", advanced, err)
	}
	if lg, fg := lw.Manifest().Generation, fw.Manifest().Generation; lg != fg {
		return nil, fmt.Errorf("bench: REPL after crash recovery: follower at %d, leader at %d", fg, lg)
	}
	st2 := fol2.Stats()
	t.AddRow("crash mid-pull + reopen", lw.Manifest().Generation, fw.Manifest().Generation,
		st.SegmentsPulled+st2.SegmentsPulled, st.FilesPulled+st2.FilesPulled, "recovered")

	// Phase 3: merge mid-pull. A cold follower must pull every segment
	// the manifest lists; between its manifest fetch and its pulls a
	// leader MergeAll retires a run of them. The resulting 404 must
	// trigger a replan from a fresh manifest, not a failure — and
	// certainly not an install of half-retired state.
	if err := replIngestExtra(lw, w, 8, 16); err != nil {
		return nil, err
	}
	coldDir, err := os.MkdirTemp("", "topn-repl-cold-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(coldDir)
	cw, err := live.Open(live.Config{Dir: coldDir, Follower: true})
	if err != nil {
		return nil, err
	}
	defer cw.Close()
	segsBefore := lw.Stats().Segments
	merged := false
	chook := func(p string) bool {
		if p == replica.CrashManifestFetched && !merged {
			merged = true
			if err := lw.MergeAll(); err != nil {
				panic(fmt.Sprintf("bench: REPL mid-pull MergeAll: %v", err))
			}
		}
		return false
	}
	fol3, err := replica.NewFollower(cw, lbase, replica.FollowerConfig{CrashHook: chook})
	if err != nil {
		return nil, err
	}
	advanced, err := fol3.SyncOnce(ctx)
	if err != nil || !advanced {
		return nil, fmt.Errorf("bench: REPL cold sync across mid-pull merge: advanced=%v err=%v", advanced, err)
	}
	if !merged {
		return nil, fmt.Errorf("bench: REPL mid-pull merge never triggered")
	}
	if segsAfter := lw.Stats().Segments; segsAfter >= segsBefore {
		return nil, fmt.Errorf("bench: REPL mid-pull MergeAll retired nothing (%d -> %d segments), the 404 replan went unexercised",
			segsBefore, segsAfter)
	}
	if lg, cg := lw.Stats(), cw.Stats(); lg.Generation != cg.Generation || lg.Segments != cg.Segments {
		return nil, fmt.Errorf("bench: REPL after mid-pull merge: cold follower gen/segs %d/%d, leader %d/%d",
			cg.Generation, cg.Segments, lg.Generation, lg.Segments)
	}
	if err := replEquiv(lw, cw, names, n); err != nil {
		return nil, err
	}
	// The warm follower catches up to the post-merge chain too:
	// ApplyManifest drops its copies of the retired segments.
	if advanced, err := fol2.SyncOnce(ctx); err != nil || !advanced {
		return nil, fmt.Errorf("bench: REPL warm sync after merge: advanced=%v err=%v", advanced, err)
	}
	lstats, fstats := lw.Stats(), fw.Stats()
	if lstats.Generation != fstats.Generation || lstats.Segments != fstats.Segments {
		return nil, fmt.Errorf("bench: REPL after mid-pull merge: follower gen/segs %d/%d, leader %d/%d",
			fstats.Generation, fstats.Segments, lstats.Generation, lstats.Segments)
	}
	if err := replEquiv(lw, fw, names, n); err != nil {
		return nil, err
	}
	st2 = fol2.Stats()
	st3 := fol3.Stats()
	t.AddRow("merge mid-pull (404 replan)", lw.Manifest().Generation, fw.Manifest().Generation,
		st.SegmentsPulled+st2.SegmentsPulled+st3.SegmentsPulled,
		st.FilesPulled+st2.FilesPulled+st3.FilesPulled, "replanned")

	// Phase 4: coordinator equivalence. Both replicas caught up and
	// serving HTTP; the scatter/gather answer must be exact and
	// byte-identical to the single-node answer for every query.
	fsrv, fbase, ferr, err := serveReplica(fw)
	if err != nil {
		return nil, err
	}
	fwOpen = false // the follower server owns fw now
	shutdownFollower := shutdownOnce(fsrv, ferr)
	defer shutdownFollower()
	coord, err := replica.NewCoordinator([]string{lbase, fbase}, nil)
	if err != nil {
		return nil, err
	}
	csrv, cbase, cerr, err := serveBackend(coord)
	if err != nil {
		return nil, err
	}
	shutdownCoord := shutdownOnce(csrv, cerr)
	defer shutdownCoord()

	client := &http.Client{}
	ls := lw.Searcher()
	for i := range names {
		want, err := ls.Search(names[i], n)
		if err != nil {
			return nil, fmt.Errorf("bench: REPL leader query %d: %w", i, err)
		}
		resp, status, err := postSearch(client, cbase, names[i], n)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("bench: REPL coordinator query %d: status %d err %v", i, status, err)
		}
		if !resp.Exact || resp.Degraded {
			return nil, fmt.Errorf("bench: REPL coordinator query %d not exact (exact=%v degraded=%v)", i, resp.Exact, resp.Degraded)
		}
		if !server.ResultEqual(resp, want) {
			return nil, fmt.Errorf("bench: REPL coordinator answer %d differs from the single-node answer", i)
		}
	}
	t.AddRow("coordinator scatter/gather", lw.Manifest().Generation, fw.Manifest().Generation,
		"-", "-", fmt.Sprintf("%d queries exact", len(names)))

	// Phase 5: stale follower. The leader advances; the follower does
	// not sync. The merged answer must match the fresh leader and carry
	// an explicit partial certificate — never an exact claim over stale
	// replicas.
	if err := replIngestExtra(lw, w, 16, 24); err != nil {
		return nil, err
	}
	staleWant, err := ls.Search(names[0], n)
	if err != nil {
		return nil, err
	}
	staleResp, status, err := postSearch(client, cbase, names[0], n)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("bench: REPL stale-follower query: status %d err %v", status, err)
	}
	if staleResp.Exact || !staleResp.Degraded || staleResp.SegmentsServed != 1 || len(staleResp.SegmentsSkipped) != 1 {
		return nil, fmt.Errorf("bench: REPL stale follower not certified: exact=%v degraded=%v served=%d skipped=%v",
			staleResp.Exact, staleResp.Degraded, staleResp.SegmentsServed, staleResp.SegmentsSkipped)
	}
	if !strings.Contains(staleResp.SegmentsSkipped[0], fbase) {
		return nil, fmt.Errorf("bench: REPL stale certificate names %q, want the follower %s", staleResp.SegmentsSkipped[0], fbase)
	}
	if !server.ResultEqual(staleResp, staleWant) {
		return nil, fmt.Errorf("bench: REPL stale-follower answer differs from the fresh leader")
	}
	t.AddRow("stale follower", lw.Manifest().Generation, fw.Manifest().Generation,
		"-", "-", "degraded 1/2, results = fresh leader")

	// Phase 6: replicas going away. A downed follower degrades the
	// certificate; with every replica down the coordinator answers 503.
	shutdownFollower()
	downResp, status, err := postSearch(client, cbase, names[0], n)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("bench: REPL downed-follower query: status %d err %v", status, err)
	}
	if downResp.Exact || !downResp.Degraded || downResp.SegmentsServed != 1 || !server.ResultEqual(downResp, staleWant) {
		return nil, fmt.Errorf("bench: REPL downed follower not certified: exact=%v degraded=%v served=%d",
			downResp.Exact, downResp.Degraded, downResp.SegmentsServed)
	}
	shutdownLeader()
	_, status, err = postSearch(client, cbase, names[0], n)
	if err != nil || status != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("bench: REPL all-replicas-down query: status %d err %v, want 503", status, err)
	}
	t.AddRow("replicas down", "-", "-", "-", "-", "1 down: degraded; all down: 503")
	shutdownCoord()

	totalSegs := st.SegmentsPulled + st2.SegmentsPulled + st3.SegmentsPulled
	totalFiles := st.FilesPulled + st2.FilesPulled + st3.FilesPulled
	totalBytes := st.BytesPulled + st2.BytesPulled + st3.BytesPulled

	// Deterministic contract.
	t.Metrics["batches"] = float64(batches)
	t.Metrics["docs_deleted"] = float64(docsDeleted)
	t.Metrics["queries"] = float64(len(names))
	t.Metrics["catchup_syncs"] = float64(catchupSyncs)
	t.Metrics["segments_pulled"] = float64(totalSegs)
	t.Metrics["files_pulled"] = float64(totalFiles)
	t.Metrics["bytes_pulled"] = float64(totalBytes)
	t.Metrics["crc_retries"] = float64(st.CRCRetries + st2.CRCRetries + st3.CRCRetries)
	t.Metrics["crash_recovered"] = 1 // the phase hard-fails otherwise
	t.Metrics["merge_replanned"] = 1 // likewise
	t.Metrics["coordinator_exact"] = 1
	t.Metrics["stale_degraded"] = 1
	t.Metrics["all_down_unavailable"] = 1
	t.Metrics["equiv"] = 1

	t.Notes = append(t.Notes,
		"followers pull immutable segment files (resumable Range requests, whole-file CRC-32)",
		"and commit with the same staging+rename+fsync protocol live's own commits use;",
		"the manifest ordinal is the replication clock: caught up ⇔ ordinals equal, and at equal",
		"ordinals leader and follower answers are byte-identical (same docs, scores, order);",
		"a crash mid-pull leaves staging the reopen GC reclaims; a leader merge mid-pull 404s",
		"the pull and the follower replans from a fresh manifest — neither installs partial state;",
		"the coordinator's certificate makes staleness explicit: a lagging, downed, or unreachable",
		"replica is Skipped with ShardsServed < ShardsTotal, and with no replicas it answers 503")
	return t, nil
}

// replIngestExtra re-ingests documents [lo, hi) of the workload corpus
// under fresh ids and seals — the "leader advances" step of the
// staleness phases.
func replIngestExtra(lw *live.Writer, w *Workload, lo, hi int) error {
	if hi > len(w.Col.Docs) {
		hi = len(w.Col.Docs)
	}
	for i := lo; i < hi; i++ {
		if _, err := lw.Add(live.DocTerms(w.Col.Lex, w.Col.Docs[i])); err != nil {
			return fmt.Errorf("bench: REPL ingest extra doc %d: %w", i, err)
		}
	}
	return lw.Flush()
}

// replEquiv verifies every query answers byte-identically on the leader
// and the follower.
func replEquiv(lw, fw *live.Writer, names [][]string, n int) error {
	ls, fs := lw.Searcher(), fw.Searcher()
	for i := range names {
		lr, err := ls.Search(names[i], n)
		if err != nil {
			return fmt.Errorf("bench: REPL leader query %d: %w", i, err)
		}
		fr, err := fs.Search(names[i], n)
		if err != nil {
			return fmt.Errorf("bench: REPL follower query %d: %w", i, err)
		}
		if !lr.Exact || !fr.Exact || !sameDocScores(lr.Top, fr.Top) {
			return fmt.Errorf("bench: REPL query %d: follower answer differs from leader", i)
		}
	}
	return nil
}

// sameDocScores reports exact equality of two rankings.
func sameDocScores(a, b []rank.DocScore) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replDirClean reports whether an index directory holds no pull staging
// directories and no temp/partial files — what reopen GC must guarantee.
func replDirClean(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "pull-") ||
			strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".partial") {
			return false, nil
		}
	}
	return true, nil
}

// serveReplica mounts a live writer as a full replica node — /search
// backend plus the /repl/ pull subtree — on a real localhost listener.
func serveReplica(w *live.Writer) (*server.Server, string, chan error, error) {
	srv, err := server.New(server.NewLiveBackend(w), server.Config{
		MaxInFlight:    8,
		QueueDepth:     32,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, "", nil, err
	}
	srv.Mount(replica.Prefix+"/", replica.NewLeader(w, replica.LeaderConfig{}))
	return listenAndServe(srv)
}

// serveBackend mounts any backend (the coordinator) on a localhost
// listener.
func serveBackend(b server.Backend) (*server.Server, string, chan error, error) {
	srv, err := server.New(b, server.Config{
		MaxInFlight:    8,
		QueueDepth:     32,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, "", nil, err
	}
	return listenAndServe(srv)
}

func listenAndServe(srv *server.Server) (*server.Server, string, chan error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("bench: %w", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	return srv, "http://" + l.Addr().String(), errc, nil
}

// shutdownOnce wraps a server teardown so deferred and explicit calls
// compose; shutdown failures surface as a panic because they mean the
// experiment's accounting can no longer be trusted.
func shutdownOnce(srv *server.Server, errc chan error) func() {
	done := false
	return func() {
		if done {
			return
		}
		done = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			panic(fmt.Sprintf("bench: REPL shutdown: %v", err))
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			panic(fmt.Sprintf("bench: REPL serve: %v", err))
		}
	}
}
