package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/server"
	"repro/internal/storage"
)

// transferPoolPages is the buffer-pool capacity each segment-data
// transfer reads through.
const transferPoolPages = 64

// LeaderConfig tunes the pull-serving side.
type LeaderConfig struct {
	// WrapDevice, if set, wraps the page device under every
	// segment-data transfer — the fault-injection seam for the serving
	// path, mirroring live.Config.WrapDevice. A fault injected here
	// corrupts or fails the bytes a follower receives; the follower's
	// whole-file CRC check must catch it.
	WrapDevice func(segment string, dev storage.Device) storage.Device
}

// Leader serves the pull side of replication over a live writer: the
// wire manifest (committed state + file inventories + checksums) and
// the segment files themselves, with Range support for resumable
// pulls. It serves leaders and followers alike — a follower mounts one
// too, which is what makes chained replication work — and is safe for
// concurrent use.
type Leader struct {
	w   *live.Writer
	cfg LeaderConfig

	// crcs caches per-file size/CRC keyed "segname/filename". Every
	// key names immutable bytes (segments by unique seq, bitmaps by
	// version), so entries never invalidate; they are pruned when their
	// segment leaves the manifest.
	mu   sync.Mutex
	crcs map[string]WireFile

	manifests atomic.Int64
	files     atomic.Int64
	bytes     atomic.Int64
}

// NewLeader builds the pull-serving handler over w.
func NewLeader(w *live.Writer, cfg LeaderConfig) *Leader {
	return &Leader{w: w, cfg: cfg, crcs: map[string]WireFile{}}
}

// Stats reports the serving-side replication account.
func (l *Leader) Stats() server.ReplicationStats {
	return server.ReplicationStats{
		Role:            "leader",
		Ordinal:         l.w.Manifest().Generation,
		ManifestsServed: l.manifests.Load(),
		FilesServed:     l.files.Load(),
		BytesServed:     l.bytes.Load(),
	}
}

// ServeHTTP routes the /repl/ subtree.
func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	switch {
	case r.URL.Path == ManifestPath:
		l.serveManifest(w, r)
	case strings.HasPrefix(r.URL.Path, SegmentPathPrefix):
		l.serveFile(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveManifest answers GET /repl/manifest. The manifest and the file
// checksums are captured under one pinning snapshot (AcquireManifest),
// so every listed file exists and its recorded size/CRC describe the
// exact immutable bytes a follower will pull — even if a merge retires
// the segment a moment later.
func (l *Leader) serveManifest(w http.ResponseWriter, r *http.Request) {
	m, snap, err := l.w.AcquireManifest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Close()
	wm := WireManifest{Generation: m.Generation, NextSeq: m.NextSeq}
	for _, info := range m.Segments {
		ws := WireSegment{SegmentInfo: info}
		for _, name := range segmentFiles(info) {
			wf, err := l.fileMeta(info.Name, name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			ws.Files = append(ws.Files, wf)
		}
		wm.Segments = append(wm.Segments, ws)
	}
	l.pruneCRCs(m)
	l.manifests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(wm) // the connection owns delivery failures
}

// fileMeta returns (computing and caching on first use) the size and
// whole-file CRC of one segment file.
func (l *Leader) fileMeta(segName, fileName string) (WireFile, error) {
	key := segName + "/" + fileName
	l.mu.Lock()
	wf, ok := l.crcs[key]
	l.mu.Unlock()
	if ok {
		return wf, nil
	}
	path := filepath.Join(l.w.Dir(), segName, fileName)
	f, err := os.Open(path)
	if err != nil {
		return WireFile{}, fmt.Errorf("replica: %s: %w", key, err)
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return WireFile{}, fmt.Errorf("replica: checksum %s: %w", key, err)
	}
	wf = WireFile{Name: fileName, Size: n, CRC: h.Sum32()}
	l.mu.Lock()
	l.crcs[key] = wf
	l.mu.Unlock()
	return wf, nil
}

// pruneCRCs drops cache entries whose segment the manifest no longer
// lists, bounding the cache by the live chain.
func (l *Leader) pruneCRCs(m live.Manifest) {
	active := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		active[s.Name] = true
	}
	l.mu.Lock()
	for key := range l.crcs {
		if seg, _, ok := strings.Cut(key, "/"); ok && !active[seg] {
			delete(l.crcs, key)
		}
	}
	l.mu.Unlock()
}

// serveFile answers GET /repl/segment/{seq}/{file}. The paged postings
// file is read through the same device chain searches use — raw file,
// optional fault-injection wrapper, buffer pool with transient-read
// retry — so media trouble on the serving path surfaces here exactly
// as it would in a query (and lands in the follower's CRC check).
// Sidecars are small and carry their own checksums; they are served
// directly. A retired segment's files return 404: the follower
// refreshes its manifest and replans.
func (l *Leader) serveFile(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, SegmentPathPrefix)
	seqStr, fileName, ok := strings.Cut(rest, "/")
	if !ok || strings.Contains(fileName, "/") || !validFileName(fileName) {
		http.Error(w, "bad segment file path", http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		http.Error(w, "bad segment sequence number", http.StatusBadRequest)
		return
	}
	segName := live.SegmentDirName(seq)
	path := filepath.Join(l.w.Dir(), segName, fileName)

	if fileName != segmentDataFile {
		f, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		l.files.Add(1)
		l.bytes.Add(fi.Size())
		http.ServeContent(w, r, fileName, time.Time{}, f)
		return
	}

	fd, err := storage.OpenFileDisk(path)
	if errors.Is(err, fs.ErrNotExist) {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer fd.Close()
	var dev storage.Device = fd
	if l.cfg.WrapDevice != nil {
		dev = l.cfg.WrapDevice(segName, dev)
	}
	pool, err := storage.NewPool(dev, transferPoolPages)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	size := int64(fd.NumPages()) * storage.PageSize
	l.files.Add(1)
	l.bytes.Add(size)
	http.ServeContent(w, r, fileName, time.Time{}, &pagedReader{pool: pool, size: size})
}

// pagedReader adapts a buffer pool over a page-aligned file to the
// io.ReadSeeker http.ServeContent needs. Reads fetch (and promptly
// unpin) one page at a time; a page that fails past the pool's retry
// budget aborts the transfer mid-stream, which truncates the response
// body — the follower's size/CRC check treats that as a failed pull.
type pagedReader struct {
	pool *storage.Pool
	size int64
	off  int64
}

func (pr *pagedReader) Read(p []byte) (int, error) {
	if pr.off >= pr.size {
		return 0, io.EOF
	}
	if rem := pr.size - pr.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	var n int
	for len(p) > 0 {
		pageIdx := pr.off / storage.PageSize
		inPage := pr.off % storage.PageSize
		pg, err := pr.pool.Fetch(storage.PageID(pageIdx + 1)) // PageIDs are 1-based
		if err != nil {
			if n > 0 {
				return n, nil // deliver what we have; the error repeats next call
			}
			return 0, err
		}
		c := copy(p, pg.Data()[inPage:])
		if uerr := pr.pool.Unpin(pg, false); uerr != nil && n == 0 {
			return 0, uerr
		}
		n += c
		pr.off += int64(c)
		p = p[c:]
	}
	return n, nil
}

func (pr *pagedReader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += pr.off
	case io.SeekEnd:
		offset += pr.size
	default:
		return 0, fmt.Errorf("replica: bad seek whence %d", whence)
	}
	if offset < 0 {
		return 0, fmt.Errorf("replica: negative seek offset")
	}
	pr.off = offset
	return offset, nil
}
