package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/server"
)

// RunLoad (experiment LOAD) measures the serving layer end to end: the
// workload's collection is ingested into a live index, topnserve's
// server package is mounted on a real localhost listener, and an
// open-loop client fires the query workload at a fixed arrival rate —
// requests launch on schedule whether or not earlier ones finished, the
// arrival process a network front end actually faces. A deliberate
// overload burst (far more simultaneous requests than MaxInFlight +
// QueueDepth admits) then exercises the shed path.
//
// Two classes of numbers come out. The served/shed/timeout splits
// depend on scheduling: they are reported for inspection but exempt
// from the regression gate's exact comparison (the load_ metric prefix
// marks them); time is benchmark/'s to measure, not this experiment's.
// The deterministic ones are the gate's contract: every request is
// answered (no transport errors), and a final unloaded pass verifies
// every query's HTTP answer is exactly the in-process live.Searcher
// answer — same documents, same float64 scores, same order (equiv). The
// serving layer schedules; it must never change an answer.
func RunLoad(s Scale, seed uint64, loadRate float64, loadRequests int) (*Table, error) {
	w, err := NewWorkload(s, seed)
	if err != nil {
		return nil, err
	}
	if loadRate <= 0 {
		loadRate = 500
	}
	if loadRequests <= 0 {
		loadRequests = 200
		if s == ScaleFull {
			loadRequests = 1000
		}
	}
	const n = 10
	const maxInFlight = 2
	const queueDepth = 4
	// serviceFloor is a synthetic minimum per-query service time the
	// bench backend adds (ctx-aware, before delegating — results are
	// untouched). The small-scale corpus answers in ~100µs, faster than
	// the HTTP accept path can even deliver arrivals, so without a floor
	// no offered load would ever fill admission and the shed path would
	// go unexercised; the floor models the multi-millisecond queries of a
	// realistically sized corpus. Capacity = maxInFlight/serviceFloor =
	// 1000/s, so the 500/s open loop mostly serves while the burst is
	// far beyond what the queue absorbs.
	const serviceFloor = 2 * time.Millisecond
	burst := 50 * (maxInFlight + queueDepth)

	names := w.QueryNames()

	dir, err := os.MkdirTemp("", "topn-load-*")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	lw, err := live.Open(live.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			lw.Close()
		}
	}()
	for i := range w.Col.Docs {
		if _, err := lw.Add(live.DocTerms(w.Col.Lex, w.Col.Docs[i])); err != nil {
			return nil, fmt.Errorf("bench: LOAD ingest doc %d: %w", i, err)
		}
	}
	if err := lw.Flush(); err != nil {
		return nil, err
	}
	if err := lw.MergeAll(); err != nil {
		return nil, err
	}

	srv, err := server.New(pausedBackend{server.NewLiveBackend(lw), serviceFloor}, server.Config{
		MaxInFlight: maxInFlight,
		QueueDepth:  queueDepth,
		// Generous deadline: on a slow CI box a queued request must get
		// served (or shed), not converted into a 504 the gate would see.
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{}

	t := &Table{
		ID: "LOAD",
		Title: fmt.Sprintf("serving layer: open-loop load over HTTP (%d docs, rate=%g/s, %d requests, inflight=%d, queue=%d)",
			len(w.Col.Docs), loadRate, loadRequests, maxInFlight, queueDepth),
		Columns: []string{"phase", "requests", "served", "shed", "timeout", "failed"},
		Metrics: map[string]float64{},
	}

	// Phase 1: open-loop arrivals at the target rate.
	openLoop := fireLoad(client, base, names, n, loadRequests, time.Duration(float64(time.Second)/loadRate))
	t.AddRow("open-loop", openLoop.requests, openLoop.served, openLoop.shed, openLoop.timeout, openLoop.failed)

	// Phase 2: overload burst — everything at once, far beyond what
	// admission accepts, so the shed path (429 + Retry-After) carries
	// most of the weight.
	burstRes := fireLoad(client, base, names, n, burst, 0)
	t.AddRow("burst", burstRes.requests, burstRes.served, burstRes.shed, burstRes.timeout, burstRes.failed)

	// Phase 3: unloaded equivalence sweep — one request per query, each
	// answer compared exactly against the in-process searcher.
	searcher := lw.Searcher()
	var equivFailed int
	for i := range names {
		resp, status, err := postSearch(client, base, names[i], n)
		if err != nil || status != http.StatusOK {
			equivFailed++
			continue
		}
		want, err := searcher.Search(names[i], n)
		if err != nil {
			return nil, fmt.Errorf("bench: LOAD in-process query %d: %w", i, err)
		}
		if !server.ResultEqual(resp, want) {
			return nil, fmt.Errorf("bench: LOAD HTTP answer for query %d differs from in-process live.Searcher", i)
		}
	}
	if equivFailed > 0 {
		return nil, fmt.Errorf("bench: LOAD equivalence sweep: %d/%d unloaded requests failed", equivFailed, len(names))
	}
	t.AddRow("equivalence", len(names), len(names), 0, 0, 0)

	// Graceful shutdown: drain, close the index, and confirm the
	// listener really stopped.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("bench: LOAD shutdown: %w", err)
	}
	closed = true
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return nil, fmt.Errorf("bench: LOAD serve: %w", err)
	}

	totalReq := openLoop.requests + burstRes.requests
	answered := openLoop.served + openLoop.shed + openLoop.timeout +
		burstRes.served + burstRes.shed + burstRes.timeout
	// Deterministic contract: every request drew an HTTP answer — served,
	// shed, or deadline-expired, never a transport error or a crash.
	t.Metrics["requests"] = float64(totalReq + len(names))
	t.Metrics["queries"] = float64(len(names))
	t.Metrics["http_failures"] = float64(openLoop.failed + burstRes.failed)
	t.Metrics["all_answered"] = boolMetric(answered+openLoop.failed+burstRes.failed == totalReq)
	t.Metrics["equiv"] = 1 // the sweep above hard-fails on divergence
	// Scheduling-dependent, gate-exempt by the load_ prefix convention.
	t.Metrics["load_served"] = float64(openLoop.served + burstRes.served)
	t.Metrics["load_shed"] = float64(openLoop.shed + burstRes.shed)
	t.Metrics["load_timeout"] = float64(openLoop.timeout + burstRes.timeout)

	t.Notes = append(t.Notes,
		"open-loop arrivals: requests fire on schedule regardless of completions, so queueing",
		"delay never throttles the offered load;",
		fmt.Sprintf("the backend adds a %v service floor per query (answers untouched) to model a", serviceFloor),
		fmt.Sprintf("realistically sized corpus: capacity = inflight/floor = %d/s against %g/s offered;",
			int(float64(maxInFlight)/serviceFloor.Seconds()), loadRate),
		fmt.Sprintf("burst of %d simultaneous requests against inflight=%d queue=%d exercises shedding (429+Retry-After)",
			burst, maxInFlight, queueDepth),
		"served/shed splits depend on scheduling and are exempt from the gate;",
		"the gated facts: every request answered, and every unloaded HTTP answer byte-identical",
		"to the in-process live.Searcher (same docs, same float64 scores, same order)")
	return t, nil
}

// pausedBackend imposes a minimum service time per query (ctx-aware)
// and then delegates, so the load phases face realistic query costs
// while answers stay exactly the live backend's.
type pausedBackend struct {
	server.Backend
	pause time.Duration
}

func (b pausedBackend) SearchContext(ctx context.Context, terms []string, n int) (live.Result, error) {
	t := time.NewTimer(b.pause)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return live.Result{}, ctx.Err()
	}
	return b.Backend.SearchContext(ctx, terms, n)
}

// loadResult aggregates one load phase.
type loadResult struct {
	requests, served, shed, timeout, failed int
}

// fireLoad sends count requests with the given inter-arrival gap (0 =
// all at once), cycling through the query workload, and aggregates the
// outcomes. Open loop: the sender never waits for responses.
func fireLoad(client *http.Client, base string, names [][]string, n, count int, gap time.Duration) loadResult {
	type outcome struct {
		status int
		err    error
	}
	outcomes := make([]outcome, count)
	var wg sync.WaitGroup
	// With no gap this is a true simultaneous burst: every goroutine
	// parks on the barrier before any request fires, so arrivals are not
	// serialized by goroutine launch skew (sub-millisecond queries would
	// otherwise drain between launches and nothing would ever shed).
	barrier := make(chan struct{})
	start := time.Now()
	for i := 0; i < count; i++ {
		if gap > 0 {
			// Fire at the schedule, not gap after the previous launch:
			// lateness must not thin the offered load.
			time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if gap == 0 {
				<-barrier
			}
			_, status, err := postSearch(client, base, names[i%len(names)], n)
			outcomes[i] = outcome{status: status, err: err}
		}(i)
	}
	close(barrier)
	wg.Wait()
	res := loadResult{requests: count}
	for _, o := range outcomes {
		switch {
		case o.err != nil:
			res.failed++
		case o.status == http.StatusOK:
			res.served++
		case o.status == http.StatusTooManyRequests:
			res.shed++
		case o.status == http.StatusGatewayTimeout:
			res.timeout++
		default:
			res.failed++
		}
	}
	return res
}

// postSearch sends one /search request and decodes the 200 answer.
func postSearch(client *http.Client, base string, terms []string, n int) (server.SearchResponse, int, error) {
	body, err := json.Marshal(map[string]interface{}{"terms": terms, "n": n})
	if err != nil {
		return server.SearchResponse{}, 0, err
	}
	resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return server.SearchResponse{}, 0, err
	}
	defer resp.Body.Close()
	var out server.SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return server.SearchResponse{}, resp.StatusCode, err
		}
	}
	return out, resp.StatusCode, nil
}
