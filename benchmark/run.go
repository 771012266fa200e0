package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often an end-to-end run sets the index up; the
// reported setup_s is the median, the last one is the one served.
const setupRepeats = 3

// options are the settings of one run that do not name the workload.
type options struct {
	seed    uint64
	seconds float64 // length of the timed window
	trace   bool    // the traced, per-layer pass instead of the end-to-end one
	quick   bool    // small corpus; numbers not comparable
	workdir string  // where index directories are made
	spans   string  // file the traced pass writes its spans to ("" = none)
}

func (o options) scale() scale {
	if o.quick {
		return quickScale
	}
	return fullScale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports. Metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one, by the names BENCHMARK.json lists.
type runResult struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int    `json:"samples"`    // sample count behind a metric
	Notes      []string          `json:"notes"`      // how to read this run
	Traced     bool              `json:"traced"`     // Metrics are the per-layer ones
	Comparable bool              `json:"comparable"` // false under -quick
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Clients    int               `json:"clients"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
}

func (r *runResult) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// session is the state one run builds up: the seeded inputs, the served
// index, and the answers it must give.
type session struct {
	o       options
	wl      workload
	c       *corpus
	queries []query
	clients int
	env     *env
	ref     *reference // one-shot build over the documents the set-up ingested
	tr      *tracer
	res     *runResult
}

// runWorkload performs one run of wl and removes what it put on disk.
func runWorkload(o options, wl workload) (*runResult, error) {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	s := &session{o: o, wl: wl, clients: min(procs, 2)}
	s.res = &runResult{
		Workload: wl.name, Metrics: map[string]metric{}, Samples: map[string]int{},
		Traced: o.trace, Comparable: !o.quick, Seed: o.seed, Seconds: o.seconds,
		Clients: s.clients, GoMaxProcs: procs, GoVersion: runtime.Version(),
	}
	if o.trace {
		s.tr = newTracer()
	}
	var err error
	if s.c, err = newCorpus(o.scale(), o.seed); err != nil {
		return nil, err
	}
	if s.queries, err = s.c.makeQueries(wl.shape, o.seed+1); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	repeats := setupRepeats
	if o.trace {
		repeats = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		idxDir := fmt.Sprintf("%s/index-%d", dir, k)
		if err := os.Mkdir(idxDir, 0o755); err != nil {
			return nil, err
		}
		e, err := setUp(s.c, wl, s.queries, idxDir, s.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, e.setup.total().Seconds())
		if k < repeats-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(idxDir); err != nil {
				return nil, err
			}
			continue
		}
		s.env = e
	}
	defer s.env.close()

	if o.trace {
		err = s.tracedPass()
	} else {
		err = s.endToEndPass(setups)
	}
	if err != nil {
		return nil, err
	}
	if err := s.env.close(); err != nil {
		return nil, fmt.Errorf("shutting the server down: %w", err)
	}
	if o.trace && o.spans != "" {
		if err := s.tr.writeFile(o.spans); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// prepareChecks pre-checks the served index three ways and returns the
// checker the timed window uses. For a read-only workload that is exact
// comparison with precomputed answers; with writes running it is the
// shape check, and the content is verified after quiesce.
func (s *session) prepareChecks(st *writerState) (checker, error) {
	var err error
	if !s.wl.writes {
		if s.ref, err = newReference(s.c.col, nil); err != nil {
			return nil, err
		}
		if err := precheck(s.env.addr, s.env.w, s.queries, s.ref); err != nil {
			return nil, err
		}
		ex, err := expectAll(s.env.w, s.queries)
		if err != nil {
			return nil, err
		}
		return ex.exactChecker(), nil
	}
	if s.ref, err = s.checkSurvivors(st); err != nil {
		return nil, err
	}
	return shapeChecker, nil
}

// checkSurvivors holds the served index to a one-shot build over the
// documents alive according to st, and returns that build.
func (s *session) checkSurvivors(st *writerState) (*reference, error) {
	ids := st.sortedAlive()
	sub, err := survivors(s.c, ids, st.content)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(sub, ids)
	if err != nil {
		return nil, err
	}
	return ref, precheck(s.env.addr, s.env.w, s.queries, ref)
}

// window is one timed closed-loop window over the served index, with
// the ingest-mix writer beside it when the workload has one.
type window struct {
	load     loadResult
	write    writeResult // zero without writes
	slices   []sliceStats
	tailUsed float64 // the percentile tailMS reports
	parts    int     // bestOf's parts: 1, or writeParts with the writer running
}

// writeParts is the number of parts the slices of a window with the
// writer running are judged in.
const writeParts = 4

// The reported numbers of a window: those of its least disturbed slices.
func (w window) p50MS() float64 {
	return bestOf(w.slices, func(x sliceStats) float64 { return x.p50 }, false, w.parts)
}
func (w window) tailMS() float64 {
	return bestOf(w.slices, func(x sliceStats) float64 { return x.tail }, false, w.parts)
}
func (w window) qps() float64 {
	return bestOf(w.slices, func(x sliceStats) float64 { return x.perSecond }, true, w.parts)
}

// cut slices the window's samples once the load has run.
func (w *window) cut() {
	seconds := w.load.elapsed.Seconds()
	w.slices, w.tailUsed = sliceWindow(w.load.latMS, w.load.doneS, seconds, sliceCount(len(w.load.latMS), seconds))
}

// runWindow forces a GC, then runs one window of seconds. With a writer
// state, the ingest-mix writer runs beside the reader, and the reader
// runs until the writer's fixed script (sized to take seconds at
// writeRate) has finished and merges are idle.
func (s *session) runWindow(addr string, seconds float64, check checker, st *writerState, tr *tracer) (window, error) {
	win := window{parts: 1}
	spec := loadSpec{
		addr: addr, queries: s.queries, shape: s.wl.shape, clients: s.clients,
		seed: s.o.seed + 2, warm: time.Duration(min(seconds/10, 1) * float64(time.Second)),
		window: time.Duration(seconds * float64(time.Second)), check: check, tr: tr,
	}
	runtime.GC()
	if st == nil {
		var err error
		win.load, err = runLoad(spec)
		win.cut()
		return win, err
	}

	script := makeWriteScript(s.env.ingestedDocs, len(s.c.docs), scriptAdds(seconds*writeRate), len(st.aliveIDs), s.o.seed+3)
	win.parts = writeParts
	done := make(chan struct{})
	spec.stop = done
	spec.window *= 4 // a ceiling only: the writer ends the window
	var werr error
	go func() {
		defer close(done)
		time.Sleep(spec.warm)
		win.write, werr = runWriter(s.env.w, s.c, st, script, tr)
	}()
	var err error
	win.load, err = runLoad(spec)
	<-done
	if err == nil {
		err = werr
	}
	win.cut()
	return win, err
}

// endToEndPass is the untraced run: pre-check, one timed window, the
// post-quiesce check, and the end-to-end numbers.
func (s *session) endToEndPass(setups []float64) error {
	var st *writerState
	if s.wl.writes {
		st = newWriterState(s.env.ingestedDocs)
	}
	check, err := s.prepareChecks(st)
	if err != nil {
		return fmt.Errorf("pre-check: %w", err)
	}
	win, err := s.runWindow(s.env.addr, s.o.seconds, check, st, nil)
	if err != nil {
		return err
	}
	r := s.res
	r.Attempted, r.Failed = win.load.attempted, win.load.failed
	if win.load.failed > 0 {
		r.Notes = append(r.Notes, "first failure: "+win.load.firstFailure)
	}
	alivePostings := s.env.alivePostings
	maint := s.env.ingestMaint
	if s.wl.writes {
		if _, err := s.checkSurvivors(st); err != nil {
			return fmt.Errorf("after quiesce: %w", err)
		}
		alivePostings = st.alivePostings(s.c)
		maint = s.env.w.MaintStats()
		r.Notes = append(r.Notes, fmt.Sprintf(
			"writer: %d operations (%d add %.0f us, %d delete %.0f us, %d update %.0f us) paced at %d/s, busy %.2fs of %.2fs (%.0f operations/s of busy time), finished %.0f ms behind its pace; closing flush %.0f ms, merge quiesce %.0f ms, slowest Add %.1f ms",
			win.write.ops, win.write.perKind[opAdd].n, win.write.meanUS(opAdd), win.write.perKind[opDelete].n, win.write.meanUS(opDelete),
			win.write.perKind[opUpdate].n, win.write.meanUS(opUpdate), writeRate, win.write.busy.Seconds(), win.write.wall.Seconds(), float64(win.write.ops)/win.write.busy.Seconds(),
			ms(win.write.lateness), ms(win.write.flush), ms(win.write.quiesce), ms(win.write.maxStall)))
	}
	if shed := s.env.srv.Metrics().Snapshot().Shed; shed > 0 {
		return fmt.Errorf("the server shed %d requests: the run is invalid", shed)
	}
	bytesOnDisk, err := dirBytes(s.env.dir)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	n := len(win.load.latMS)
	r.set("setup_s", median(setups), "s")
	r.set("search_qps", win.qps(), "1/s")
	r.set("search_p50_ms", win.p50MS(), "ms")
	r.set("search_p99_ms", win.tailMS(), "ms")
	r.set("write_amp", float64(maint.SealPagesWritten+maint.MergePagesWritten)/float64(maint.SealPagesWritten), "ratio")
	r.set("disk_bytes_per_posting", float64(bytesOnDisk)/float64(alivePostings), "B")
	r.set("peak_rss_mb", rss, "MB")
	for _, name := range []string{"search_qps", "search_p50_ms", "search_p99_ms"} {
		r.Samples[name] = n
	}
	r.Samples["setup_s"] = len(setups)
	r.Notes = append(r.Notes,
		fmt.Sprintf("search_fail_frac %d/%d; window %.2fs in %d slices; the reported search numbers are the mean over %d part(s) of the window of each part's slice ranked %d; search_p99_ms is the p%.0f of a slice",
			r.Failed, r.Attempted, win.load.elapsed.Seconds(), len(win.slices), win.parts, (len(win.slices)/win.parts+19)/20, 100*win.tailUsed),
		wholeWindowNote(win),
		fmt.Sprintf("set-up: ingest %.2fs, reopen+listen %.3fs, warm-up %.3fs (last of %d); %d segment pages, pool %d pages per segment",
			s.env.setup.ingest.Seconds(), s.env.setup.open.Seconds(), s.env.setup.warm.Seconds(), len(setups),
			s.env.segmentPages, s.env.poolPages),
		"latency through the pool is the sandbox's (segment files sit in the OS page cache), not a device's")
	r.Notes = append(r.Notes, sliceNote(win.slices))
	r.Correct = r.Failed == 0
	return nil
}

// wholeWindowNote gives the same three numbers over every sample of
// the window, disturbed slices included: what a client saw on this
// machine at this hour, which does not repeat and is not gated.
func wholeWindowNote(win window) string {
	lat := append([]float64(nil), win.load.latMS...)
	if len(lat) == 0 {
		return "whole window: no answers"
	}
	sort.Float64s(lat)
	return fmt.Sprintf("whole window, disturbed slices included (not gated): p50 %.4f ms, p%.0f %.4f ms, %.0f answers/s",
		percentile(lat, 0.50), 100*win.tailUsed, percentile(lat, win.tailUsed), float64(len(lat))/win.load.elapsed.Seconds())
}

// sliceNote lists every slice's p50, tail and rate, so that the
// disturbed slices (and how far the reported slice is from them) can be
// seen in the output.
func sliceNote(ss []sliceStats) string {
	note := "per slice (p50/tail ms @ answers/s):"
	for _, x := range ss {
		note += fmt.Sprintf(" %.4f/%.3f@%.0f", x.p50, x.tail, x.perSecond)
	}
	return note
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
