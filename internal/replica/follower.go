package replica

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/server"
)

// Crash points of the pull protocol, in commit order. A FollowerConfig
// CrashHook returning true at one aborts the sync with ErrCrashPoint,
// leaving the directory exactly as a process death there would — the
// states the follower-reopen GC and crash-matrix tests recover from.
// A hook returning false is a pure observation point (the mid-pull-
// merge scenario uses CrashManifestFetched to retire segments between
// the follower's plan and its pulls).
const (
	// CrashManifestFetched fires after the wire manifest is decoded,
	// before any pull.
	CrashManifestFetched = "pull:manifest-fetched"
	// CrashMidSegment fires inside a segment pull, after its first file
	// landed in the staging directory.
	CrashMidSegment = "pull:mid-segment"
	// CrashBeforeCommit fires with a segment fully staged, before the
	// rename that commits its directory.
	CrashBeforeCommit = "pull:before-commit"
	// CrashBeforeApply fires with every segment directory committed,
	// before ApplyManifest writes the local manifest.
	CrashBeforeApply = "pull:before-apply"
)

// CrashPoints lists every pull crash point, for crash-matrix tests.
var CrashPoints = []string{CrashManifestFetched, CrashMidSegment, CrashBeforeCommit, CrashBeforeApply}

// ErrCrashPoint reports a sync aborted by an armed CrashHook.
var ErrCrashPoint = errors.New("replica: injected crash")

// errRetired marks a pull that hit 404: the leader merged the segment
// away between our manifest fetch and the pull. SyncOnce refetches the
// manifest and replans, at most replanRetries times per sync.
var errRetired = errors.New("replica: segment retired on the leader mid-pull")

const replanRetries = 3

// FollowerConfig tunes the pull client.
type FollowerConfig struct {
	// Client issues the HTTP requests. Default http.DefaultClient.
	Client *http.Client
	// FileRetries is how many times one file pull is retried after a
	// CRC mismatch or a truncated transfer before the sync fails (the
	// corrupt bytes are discarded either way — a mismatched file is
	// never committed). Default 3.
	FileRetries int
	// RetryBackoff is the pause between file retry attempts. Default
	// 50ms.
	RetryBackoff time.Duration
	// CrashHook, if set, is consulted at every named crash point.
	CrashHook func(point string) bool
}

func (c *FollowerConfig) fillDefaults() {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.FileRetries == 0 {
		c.FileRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
}

// Follower pulls a leader's committed state into a follower-mode live
// writer. Create with NewFollower, drive with SyncOnce (one catch-up
// attempt) or Run (a poll loop). Methods are safe for concurrent use
// with searches on the writer; syncs themselves serialize.
type Follower struct {
	w      *live.Writer
	leader string // base URL, e.g. "http://host:port"
	cfg    FollowerConfig

	syncs      atomic.Int64
	failures   atomic.Int64
	segsPulled atomic.Int64
	filesPull  atomic.Int64
	bytesPull  atomic.Int64
	crcRetries atomic.Int64
	leaderGen  atomic.Uint64
	localGen   atomic.Uint64
}

// NewFollower builds a puller feeding w (which must be open in
// follower mode) from the leader at baseURL.
func NewFollower(w *live.Writer, baseURL string, cfg FollowerConfig) (*Follower, error) {
	if !w.ReadOnly() {
		return nil, fmt.Errorf("replica: the writer must be opened with live.Config.Follower")
	}
	if baseURL == "" {
		return nil, fmt.Errorf("replica: leader URL is required")
	}
	cfg.fillDefaults()
	f := &Follower{w: w, leader: baseURL, cfg: cfg}
	f.localGen.Store(w.Manifest().Generation)
	return f, nil
}

// Stats reports the pull-side replication account.
func (f *Follower) Stats() server.ReplicationStats {
	local, leader := f.localGen.Load(), f.leaderGen.Load()
	var lag uint64
	if leader > local {
		lag = leader - local
	}
	return server.ReplicationStats{
		Role:           "follower",
		Ordinal:        local,
		Syncs:          f.syncs.Load(),
		SyncFailures:   f.failures.Load(),
		SegmentsPulled: f.segsPulled.Load(),
		FilesPulled:    f.filesPull.Load(),
		BytesPulled:    f.bytesPull.Load(),
		CRCRetries:     f.crcRetries.Load(),
		LagGenerations: lag,
	}
}

// Run polls the leader every interval until ctx fires, logging nothing
// and giving up on nothing: transient failures count in SyncFailures
// and the next tick tries again.
func (f *Follower) Run(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		_, _ = f.SyncOnce(ctx) // failures are counted and retried next tick
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// crash consults the armed hook at a named point.
func (f *Follower) crash(point string) error {
	if f.cfg.CrashHook != nil && f.cfg.CrashHook(point) {
		return fmt.Errorf("%w at %s", ErrCrashPoint, point)
	}
	return nil
}

// SyncOnce performs one catch-up attempt: fetch the leader's manifest,
// and if it is ahead, pull every file this follower is missing —
// resuming partial transfers, verifying every file's whole-file CRC
// before commit, and committing each segment directory with the same
// temp(staging)+rename+fsync protocol live uses — then install the new
// state through ApplyManifest. It reports whether the local generation
// advanced. A sync that finds the leader at (or behind) the local
// generation is a no-op.
//
// Failure atomicity: nothing under the index directory changes meaning
// until the local manifest swap inside ApplyManifest. A sync that dies
// earlier leaves staging directories and committed-but-unreferenced
// segment directories that reopen GC (or the next sync) reclaims; the
// serving generation is untouched. A sync that advances sweeps the
// staging directories of segments the leader has since retired.
func (f *Follower) SyncOnce(ctx context.Context) (advanced bool, err error) {
	defer func() {
		if err != nil {
			f.failures.Add(1)
		}
	}()
	for attempt := 0; ; attempt++ {
		wm, err := f.fetchManifest(ctx)
		if err != nil {
			return false, err
		}
		f.leaderGen.Store(wm.Generation)
		local := f.w.Manifest()
		f.localGen.Store(local.Generation)
		if wm.Generation == local.Generation {
			return false, nil
		}
		if wm.Generation < local.Generation {
			return false, fmt.Errorf("replica: leader at generation %d is behind this follower's %d (pointed at the wrong leader?)",
				wm.Generation, local.Generation)
		}
		if err := f.crash(CrashManifestFetched); err != nil {
			return false, err
		}
		err = f.pull(ctx, wm, local)
		if errors.Is(err, errRetired) && attempt < replanRetries {
			continue // the leader merged mid-pull; replan from a fresh manifest
		}
		if err != nil {
			return false, err
		}
		if err := f.crash(CrashBeforeApply); err != nil {
			return false, err
		}
		if err := f.w.ApplyManifest(wm.Manifest()); err != nil {
			// The pulled files passed their wire CRCs but failed the
			// install-time verification (section checksums, chain
			// validation). Discard what this sync committed so the next
			// one re-pulls from scratch instead of re-tripping on the
			// same bytes; the serving generation is still the old one —
			// a corrupt transfer is never installed.
			f.discard(wm, local)
			return false, err
		}
		f.localGen.Store(wm.Generation)
		f.syncs.Add(1)
		return true, f.sweepStaging(wm)
	}
}

// sweepStaging removes every pull-* staging directory whose segment the
// just-applied wm does not list. A segment the leader retires mid-pull
// (errRetired, then a replan from a manifest without it) leaves its
// half-filled staging directory behind, and no later sync would ever
// name it again. A staged segment wm still lists stays, so its pull
// remains resumable — the same root-of-truth discipline as live's
// reopen GC.
func (f *Follower) sweepStaging(wm *WireManifest) error {
	listed := make(map[string]bool, len(wm.Segments))
	for _, ws := range wm.Segments {
		listed["pull-"+ws.Name] = true
	}
	entries, err := os.ReadDir(f.w.Dir())
	if err != nil {
		return fmt.Errorf("replica: sweeping staging directories: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "pull-") && !listed[e.Name()] {
			if err := os.RemoveAll(filepath.Join(f.w.Dir(), e.Name())); err != nil {
				return fmt.Errorf("replica: sweeping staging directory %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// pull stages and commits every file the local manifest is missing
// relative to wm.
func (f *Follower) pull(ctx context.Context, wm *WireManifest, local live.Manifest) error {
	have := make(map[string]live.SegmentInfo, len(local.Segments))
	for _, s := range local.Segments {
		have[s.Name] = s
	}
	for _, ws := range wm.Segments {
		if err := checkSeqName(ws.SegmentInfo); err != nil {
			return err
		}
		if ls, ok := have[ws.Name]; ok {
			// Segment already served; only its alive bitmap can differ.
			if ls.Tomb != ws.Tomb && ws.Tomb != 0 {
				if err := f.pullAliveFile(ctx, ws); err != nil {
					return err
				}
			}
			continue
		}
		if err := f.pullSegment(ctx, ws); err != nil {
			return err
		}
	}
	return nil
}

// pullAliveFile fetches a new alive-bitmap version into an existing
// committed segment directory, through the same resumable, CRC-verified
// pullFile every other file takes. The bitmap becomes meaningful only
// when ApplyManifest lands the manifest referencing its version; a
// crash before that leaves an unreferenced version file (or its
// .partial) that reopen GC removes.
func (f *Follower) pullAliveFile(ctx context.Context, ws WireSegment) error {
	name := live.AliveFileName(ws.Tomb)
	wf, err := findFile(ws, name)
	if err != nil {
		return err
	}
	segDir := filepath.Join(f.w.Dir(), ws.Name)
	if err := f.pullFile(ctx, segDir, ws.Seq, wf); err != nil {
		return fmt.Errorf("replica: pulling %s/%s: %w", ws.Name, name, err)
	}
	return syncDir(segDir)
}

// pullSegment stages every file of one missing segment under
// "pull-<segname>", fsyncs, and commits the directory by rename. If
// the directory already exists fully verified (an earlier sync
// committed it but crashed before applying the manifest), the pull is
// skipped; a directory that exists but fails verification is discarded
// and re-pulled.
func (f *Follower) pullSegment(ctx context.Context, ws WireSegment) error {
	final := filepath.Join(f.w.Dir(), ws.Name)
	if _, err := os.Stat(final); err == nil {
		ok := true
		for _, wf := range ws.Files {
			if !fileMatches(filepath.Join(final, wf.Name), wf) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if err := os.RemoveAll(final); err != nil {
			return fmt.Errorf("replica: discarding divergent segment %s: %w", ws.Name, err)
		}
	}
	staging := filepath.Join(f.w.Dir(), "pull-"+ws.Name)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	for i, wf := range ws.Files {
		if !validFileName(wf.Name) {
			return fmt.Errorf("replica: leader lists illegal file %q in %s", wf.Name, ws.Name)
		}
		if i > 0 {
			if err := f.crash(CrashMidSegment); err != nil {
				return err
			}
		}
		if err := f.pullFile(ctx, staging, ws.Seq, wf); err != nil {
			return fmt.Errorf("replica: pulling %s/%s: %w", ws.Name, wf.Name, err)
		}
	}
	if err := syncDir(staging); err != nil {
		return err
	}
	if err := f.crash(CrashBeforeCommit); err != nil {
		return err
	}
	if err := os.Rename(staging, final); err != nil {
		return fmt.Errorf("replica: committing segment %s: %w", ws.Name, err)
	}
	if err := syncDir(f.w.Dir()); err != nil {
		return err
	}
	f.segsPulled.Add(1)
	return nil
}

// pullFile lands one file in dir — a staging directory, or for a bitmap
// version the committed segment directory: resume any .partial left by
// an earlier attempt via a Range request, stream the rest while
// hashing, and promote to the final name only when size and CRC match
// the manifest. A mismatch discards the partial and retries from zero —
// corrupt bytes never survive an attempt, let alone reach a final name.
func (f *Follower) pullFile(ctx context.Context, dir string, seq uint64, wf WireFile) error {
	target := filepath.Join(dir, wf.Name)
	if fileMatches(target, wf) {
		return nil // landed by an earlier attempt: before a replan, or by an aborted sync
	}
	partial := target + ".partial"
	var lastErr error
	for attempt := 0; attempt <= f.cfg.FileRetries; attempt++ {
		if attempt > 0 {
			f.crcRetries.Add(1)
			sleepCtx(ctx, f.cfg.RetryBackoff)
		}
		err := f.fetchInto(ctx, partial, seq, wf)
		if err == nil {
			if err := os.Rename(partial, target); err != nil {
				return err
			}
			f.filesPull.Add(1)
			f.bytesPull.Add(wf.Size)
			return nil
		}
		if errors.Is(err, errRetired) || ctx.Err() != nil {
			return err
		}
		// Corrupt or truncated: the partial cannot be trusted as a
		// resume base (the damage may be anywhere in it). Start over.
		if rerr := os.Remove(partial); rerr != nil && !os.IsNotExist(rerr) {
			return rerr
		}
		lastErr = err
	}
	return lastErr
}

// fetchInto appends to (or creates) the partial file at path until it
// holds wf.Size bytes, then verifies the whole-file CRC and fsyncs.
// An existing prefix is re-hashed and extended with a Range request —
// the resumable half of the protocol.
func (f *Follower) fetchInto(ctx context.Context, path string, seq uint64, wf WireFile) error {
	pf, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer pf.Close()
	h := crc32.NewIEEE()
	offset, err := io.Copy(h, pf)
	if err != nil {
		return err
	}
	if offset > wf.Size {
		return fmt.Errorf("partial is %d bytes, want %d: overlong transfer", offset, wf.Size)
	}
	if offset < wf.Size {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.fileURL(seq, wf.Name), nil)
		if err != nil {
			return err
		}
		if offset > 0 {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
		}
		resp, err := f.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			if offset > 0 {
				// The leader ignored the Range; restart the hash and file.
				if err := pf.Truncate(0); err != nil {
					return err
				}
				if _, err := pf.Seek(0, io.SeekStart); err != nil {
					return err
				}
				h = crc32.NewIEEE()
				offset = 0
			}
		case http.StatusPartialContent:
			// Appending at offset, as requested.
		case http.StatusNotFound:
			return errRetired
		default:
			return fmt.Errorf("leader answered %s", resp.Status)
		}
		// One byte past the declared size is enough to expose an overlong
		// body; the rest of it is never read, let alone written.
		n, err := io.Copy(io.MultiWriter(pf, h), io.LimitReader(resp.Body, wf.Size-offset+1))
		offset += n
		if err != nil {
			return err
		}
	}
	if offset != wf.Size {
		return fmt.Errorf("transfer ended at %d of %d bytes", offset, wf.Size)
	}
	if h.Sum32() != wf.CRC {
		return fmt.Errorf("CRC mismatch: got %08x, manifest says %08x (corrupt transfer)", h.Sum32(), wf.CRC)
	}
	return pf.Sync()
}

// fetchManifest gets and decodes the leader's wire manifest.
func (f *Follower) fetchManifest(ctx context.Context) (*WireManifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+ManifestPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: fetch manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: leader answered %s to a manifest fetch", resp.Status)
	}
	var wm WireManifest
	if err := decodeJSON(resp.Body, &wm); err != nil {
		return nil, fmt.Errorf("replica: decode manifest: %w", err)
	}
	return &wm, nil
}

// discard removes the segment directories this sync committed beyond
// the still-installed local manifest — the failure path when pulled
// files pass their wire CRCs but fail install-time verification.
func (f *Follower) discard(wm *WireManifest, local live.Manifest) {
	have := make(map[string]bool, len(local.Segments))
	for _, s := range local.Segments {
		have[s.Name] = true
	}
	for _, ws := range wm.Segments {
		if have[ws.Name] {
			continue
		}
		if err := os.RemoveAll(filepath.Join(f.w.Dir(), ws.Name)); err != nil {
			log.Printf("replica: discarding uninstallable segment %s: %v (the next sync or reopen GC will retry)", ws.Name, err)
		}
	}
}

func (f *Follower) fileURL(seq uint64, name string) string {
	return fmt.Sprintf("%s%s%d/%s", f.leader, SegmentPathPrefix, seq, name)
}

// findFile locates name in the wire segment's inventory.
func findFile(ws WireSegment, name string) (WireFile, error) {
	for _, wf := range ws.Files {
		if wf.Name == name {
			return wf, nil
		}
	}
	return WireFile{}, fmt.Errorf("replica: leader's manifest lists no %s for %s", name, ws.Name)
}

// fileMatches reports whether the file at path already holds exactly
// the manifest's bytes (size and CRC).
func fileMatches(path string, wf WireFile) bool {
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != wf.Size {
		return false
	}
	g, err := os.Open(path)
	if err != nil {
		return false
	}
	defer g.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, g); err != nil {
		return false
	}
	return h.Sum32() == wf.CRC
}

// syncDir fsyncs a directory, making renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("replica: fsync %s: %w", dir, err)
	}
	return nil
}

// sleepCtx pauses for d or until ctx fires.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
