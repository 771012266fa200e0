package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/server"
	"repro/internal/storage"
)

// warmQueries is the fixed length of the warm-up pass that ends a
// set-up: the first warmQueries queries of the pool, once each, over
// the socket. A fixed count (not a fixed time) makes "how long until
// the server is warm" part of setup_s.
const warmQueries = 300

// workload is one traffic mix. The fields are what the served program's
// behaviour depends on: how much work queries share (pool size, draw
// law, result cache), the working set against the program's own caches
// (pool share, block cache), and whether writes run beside the reads.
type workload struct {
	name  string
	shape queryShape
	// initialFrac is the share of the corpus ingested by the set-up; the
	// rest is what the ingest-mix writer adds during the window.
	initialFrac float64
	// poolFrac sizes each segment's buffer pool as a share of the mean
	// segment's pages; 0 makes every pool as large as the largest
	// segment, so nothing is ever evicted.
	poolFrac         float64
	blockCacheBytes  int64
	resultCacheBytes int64
	// writes runs the ingest-mix script beside the reader, with the
	// background merger on; answers then change during the window.
	writes bool
}

// env is one served index: the writer, the server over it on a real
// socket, and what the set-up measured on the way.
type env struct {
	dir     string
	w       *live.Writer
	srv     *server.Server
	addr    string // the plain listener, served by Server.Serve
	serveCh chan error

	// traced pass only: the same handler behind the benchmark's span
	// middleware, on a listener of its own.
	tracedAddr string
	tracedSrv  *http.Server
	tracedCh   chan error

	closeOnce sync.Once
	closeErr  error

	poolPages     int
	segmentPages  int // pages of all segment files after set-up
	setup         setupTimes
	ingestMaint   live.MaintStats // the bulk ingest's write account
	ingestedDocs  int
	alivePostings int64 // postings of the documents alive after set-up
}

// setupTimes breaks setup_s down. Corpus generation is not in it: that
// is the benchmark making its inputs, not the served program starting.
type setupTimes struct {
	ingest, open, warm time.Duration
}

func (s setupTimes) total() time.Duration { return s.ingest + s.open + s.warm }

// setUp builds the index of wl under dir and starts serving it, the way
// cmd/topnserve composes the layers: live.Open, server.NewLiveBackend,
// server.New, Serve on 127.0.0.1:0. The bulk ingest runs under the
// writer's default configuration (SealDocs 512, fan-in 4, merges run to
// fixpoint with MergeAll so the segment layout repeats); the index is
// then closed and reopened with the workload's pool and cache sizes,
// which is the restart a deployment pays. tr, when set, records spans
// around the write calls.
func setUp(c *corpus, wl workload, queries []query, dir string, tr *tracer) (*env, error) {
	e := &env{dir: dir, ingestedDocs: int(wl.initialFrac * float64(len(c.docs)))}
	start := time.Now()
	w, err := live.Open(live.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	if err := bulkIngest(w, c, e.ingestedDocs, tr); err != nil {
		w.Close()
		return nil, err
	}
	e.ingestMaint = w.MaintStats()
	if err := w.Close(); err != nil {
		return nil, err
	}
	e.setup.ingest = time.Since(start)
	for i := 0; i < e.ingestedDocs; i++ {
		e.alivePostings += c.postingsOf(i)
	}

	pages, largest, segs, err := segmentPages(dir)
	if err != nil {
		return nil, err
	}
	e.segmentPages = pages
	e.poolPages = largest
	if wl.poolFrac > 0 {
		e.poolPages = max(8, int(math.Ceil(wl.poolFrac*float64(pages)/float64(segs))))
	}

	start = time.Now()
	e.w, err = live.Open(live.Config{
		Dir: dir, PoolPages: e.poolPages,
		BlockCacheBytes: wl.blockCacheBytes, ResultCacheBytes: wl.resultCacheBytes,
		BackgroundMerge: wl.writes,
	})
	if err != nil {
		return nil, err
	}
	var backend server.Backend = server.NewLiveBackend(e.w)
	if tr != nil {
		backend = tracedBackend{backend}
	}
	// Admission is left at the server's defaults (16 in flight, queue 64):
	// with at most two closed-loop clients nothing is ever shed.
	e.srv, err = server.New(backend, server.Config{})
	if err != nil {
		e.w.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.w.Close()
		return nil, err
	}
	e.addr = l.Addr().String()
	e.serveCh = make(chan error, 1)
	go func() { e.serveCh <- e.srv.Serve(l) }()
	if tr != nil {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.tracedAddr = tl.Addr().String()
		e.tracedSrv = &http.Server{Handler: traceMiddleware(tr, e.srv.Handler())}
		e.tracedCh = make(chan error, 1)
		go func() { e.tracedCh <- e.tracedSrv.Serve(tl) }()
	}
	e.setup.open = time.Since(start)

	start = time.Now()
	if err := warmUp(e.addr, queries); err != nil {
		e.close()
		return nil, err
	}
	e.setup.warm = time.Since(start)
	return e, nil
}

// bulkIngest adds the first n documents, seals the rest of the buffer
// and merges to fixpoint.
func bulkIngest(w *live.Writer, c *corpus, n int, tr *tracer) error {
	root := tr.start("live.ingest", 0, 0)
	defer tr.end(root)
	for i := 0; i < n; i++ {
		id := tr.start("live.add", root, 0)
		_, err := w.Add(c.docs[i])
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ingest doc %d: %w", i, err)
		}
	}
	id := tr.start("live.flush", root, 0)
	err := w.Flush()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.start("live.merge", root, 0)
	err = w.MergeAll()
	tr.end(id)
	return err
}

// warmUp sends the first warmQueries queries once each over one
// connection and insists on 200s.
func warmUp(addr string, queries []query) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	for i := 0; i < warmQueries && i < len(queries); i++ {
		status, _, err := cl.do(queries[i].request)
		if err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up query %d: status %d", i, status)
		}
	}
	return nil
}

// close drains and stops the servers, closes the index (Shutdown closes
// the backend last) and waits for the serving goroutines. Closing twice
// returns the first outcome.
func (e *env) close() error {
	e.closeOnce.Do(func() { e.closeErr = e.shutdown() })
	return e.closeErr
}

func (e *env) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	if e.tracedSrv != nil {
		if err := e.tracedSrv.Shutdown(ctx); err != nil {
			first = err
		}
		<-e.tracedCh
	}
	if err := e.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	if err := <-e.serveCh; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
		first = err
	}
	return first
}

// segmentPages sums the pages of the segment files under dir and
// reports the largest file's pages and the number of files.
func segmentPages(dir string) (total, largest, segments int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != index.SegmentFile {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		pages := int(info.Size() / storage.PageSize)
		total += pages
		largest = max(largest, pages)
		segments++
		return nil
	})
	if err == nil && segments == 0 {
		err = fmt.Errorf("no segment files under %s", dir)
	}
	return total, largest, segments, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a retired segment's file went away under the walk
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	const key = "VmHWM:"
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
