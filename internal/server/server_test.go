package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/topk"
	"repro/internal/tune"
)

// stubBackend is a scriptable Backend: handler tests make it answer,
// block, fail, or panic on command without any index machinery.
type stubBackend struct {
	search func(ctx context.Context, terms []string, n int) (live.Result, error)
	faults live.FaultStats
	caches live.CacheStats
}

func (b *stubBackend) SearchContext(ctx context.Context, terms []string, n int) (live.Result, error) {
	if b.search != nil {
		return b.search(ctx, terms, n)
	}
	return live.Result{
		Generation: 1, Segments: 1, Exact: true,
		Top: []rank.DocScore{{DocID: 7, Score: 3.5}},
	}, nil
}

func (b *stubBackend) Stats() live.WriterStats                   { return live.WriterStats{} }
func (b *stubBackend) Counters() (decoded, skips, faulted int64) { return 0, 0, 0 }
func (b *stubBackend) FaultStats() live.FaultStats               { return b.faults }
func (b *stubBackend) CacheStats() live.CacheStats               { return b.caches }
func (b *stubBackend) Close() error                              { return nil }

func newTestServer(t *testing.T, backend Backend, cfg Config) *Server {
	t.Helper()
	s, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestSearchHappyPath: a valid request returns the backend's answer
// verbatim and counts as served.
func TestSearchHappyPath(t *testing.T) {
	s := newTestServer(t, &stubBackend{}, Config{})
	w := postJSON(s.Handler(), `{"terms": ["t1", "t2"], "n": 5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Doc != 7 || resp.Results[0].Score != 3.5 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !ResultEqual(resp, live.Result{Top: []rank.DocScore{{DocID: 7, Score: 3.5}}}) {
		t.Fatal("ResultEqual rejected the round-tripped answer")
	}
	if m := s.Metrics().Snapshot(); m.Served != 1 || m.Requests != 1 {
		t.Fatalf("metrics = %+v, want 1 request 1 served", m)
	}
}

// TestSearchMalformedRequests: every malformed shape answers 400 (or
// 405 for the wrong method) before any backend work — the backend here
// fails the test if it is ever reached.
func TestSearchMalformedRequests(t *testing.T) {
	backend := &stubBackend{search: func(context.Context, []string, int) (live.Result, error) {
		t.Error("backend reached by a malformed request")
		return live.Result{}, nil
	}}
	s := newTestServer(t, backend, Config{MaxN: 100})
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"wrong type", `{"terms": "t1", "n": 5}`, http.StatusBadRequest},
		{"unknown field", `{"terms": ["t1"], "n": 5, "bogus": 1}`, http.StatusBadRequest},
		{"no terms", `{"n": 5}`, http.StatusBadRequest},
		{"empty terms", `{"terms": [], "n": 5}`, http.StatusBadRequest},
		{"blank term", `{"terms": ["t1", ""], "n": 5}`, http.StatusBadRequest},
		{"too many terms", `{"terms": ["t` + strings.Repeat(`","t`, 32) + `"], "n": 5}`, http.StatusBadRequest},
		{"zero n", `{"terms": ["t1"], "n": 0}`, http.StatusBadRequest},
		{"negative n", `{"terms": ["t1"], "n": -3}`, http.StatusBadRequest},
		{"huge n", `{"terms": ["t1"], "n": 101}`, http.StatusBadRequest},
		{"negative timeout", `{"terms": ["t1"], "n": 5, "timeout_ms": -1}`, http.StatusBadRequest},
		{"trailing garbage", `{"terms": ["t1"], "n": 5}{"again": true}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postJSON(s.Handler(), c.body)
			if w.Code != c.want {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.want, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON with a message: %s", w.Body)
			}
		})
	}
	t.Run("wrong method", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/search", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", w.Code)
		}
	})
	// Malformed requests are refused before accounting: only well-formed
	// traffic reaches the request counter.
	if m := s.Metrics().Snapshot(); m.Requests != 0 {
		t.Fatalf("requests_total = %d after malformed-only traffic, want 0", m.Requests)
	}
}

// TestAdmissionShedsNotBlocks: with the slot and the queue both
// occupied by blocked queries, the next request is rejected 429
// immediately — it must not wait for capacity.
func TestAdmissionShedsNotBlocks(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	backend := &stubBackend{search: func(ctx context.Context, _ []string, _ int) (live.Result, error) {
		entered <- struct{}{}
		select {
		case <-release:
			return live.Result{}, nil
		case <-ctx.Done():
			return live.Result{}, ctx.Err()
		}
	}}
	s := newTestServer(t, backend, Config{MaxInFlight: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	wg.Add(2)
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`).Code
		}(i)
	}
	<-entered // the slot-holder is executing; the second waits in queue
	// Give the second request time to take the queue position.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	w := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`)
	elapsed := time.Since(start)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v — it blocked instead of rejecting", elapsed)
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want %q", w.Header().Get("Retry-After"), "1")
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("blocked request %d finished %d, want 200", i, code)
		}
	}
	if m := s.Metrics().Snapshot(); m.Shed != 1 || m.Served != 2 {
		t.Fatalf("metrics = %+v, want served=2 shed=1", m)
	}
}

// TestSearchDeadline: a request whose deadline expires mid-query
// answers 504.
func TestSearchDeadline(t *testing.T) {
	backend := &stubBackend{search: func(ctx context.Context, _ []string, _ int) (live.Result, error) {
		<-ctx.Done()
		return live.Result{}, ctx.Err()
	}}
	s := newTestServer(t, backend, Config{})
	w := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5, "timeout_ms": 20}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body)
	}
}

// TestPanicRecovery: a panicking backend answers 500, the panic is
// counted, and the server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	boom := true
	backend := &stubBackend{search: func(context.Context, []string, int) (live.Result, error) {
		if boom {
			panic("synthetic backend panic")
		}
		return live.Result{}, nil
	}}
	s := newTestServer(t, backend, Config{})
	if w := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	boom = false
	if w := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`); w.Code != http.StatusOK {
		t.Fatalf("server dead after panic: status = %d", w.Code)
	}
	if m := s.Metrics().Snapshot(); m.Panics != 1 {
		t.Fatalf("panics_total = %d, want 1", m.Panics)
	}
}

// TestHealthzDraining: /healthz flips to 503 once shutdown begins.
func TestHealthzDraining(t *testing.T) {
	s := newTestServer(t, &stubBackend{}, Config{})
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthy: status = %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := get("/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status = %d, want 503", w.Code)
	}
}

// TestMetricsEndpoint: /metrics is JSON carrying both serving and index
// fields.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, &stubBackend{}, Config{})
	postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests_total", "served_total", "shed_total", "latency_p99_ms", "generation", "segments", "postings_decoded"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics payload missing %q (got %s)", key, w.Body)
		}
	}
	if m["served_total"].(float64) != 1 {
		t.Fatalf("served_total = %v, want 1", m["served_total"])
	}
}

// TestDegradedSearchResponse: a degraded live result crosses the wire
// with its certificate intact — 200, Degraded set, Exact dropped, the
// skipped segments named — never a silent partial answer.
func TestDegradedSearchResponse(t *testing.T) {
	backend := &stubBackend{search: func(context.Context, []string, int) (live.Result, error) {
		return live.Result{
			Generation: 3, Segments: 4, Exact: false, Degraded: true,
			Cert: topk.Certificate{Degraded: true, ShardsServed: 3, ShardsTotal: 4, Skipped: []string{"seg-000002"}},
			Top:  []rank.DocScore{{DocID: 9, Score: 1.25}},
		}, nil
	}}
	s := newTestServer(t, backend, Config{})
	w := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: degradation is not a request failure", w.Code)
	}
	var resp SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Exact {
		t.Fatalf("response = %+v, want degraded and not exact", resp)
	}
	if resp.SegmentsServed != 3 || resp.Segments != 4 {
		t.Fatalf("coverage = %d of %d, want 3 of 4", resp.SegmentsServed, resp.Segments)
	}
	if len(resp.SegmentsSkipped) != 1 || resp.SegmentsSkipped[0] != "seg-000002" {
		t.Fatalf("skipped = %v, want the quarantined segment named", resp.SegmentsSkipped)
	}
}

// TestHealthzDegraded: a quarantined segment turns /healthz into
// 200-with-degraded-status — the replica is still serving labeled
// answers, so a load balancer must not drain it — while the body says
// exactly what is wrong.
func TestHealthzDegraded(t *testing.T) {
	backend := &stubBackend{faults: live.FaultStats{QuarantinedSegments: 2}}
	s := newTestServer(t, backend, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: degraded is serving, not dead", w.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.QuarantinedSegments != 2 {
		t.Fatalf("health = %+v, want degraded with 2 quarantined", h)
	}
}

// TestMetricsFaultFields: /metrics surfaces the backend's fault account.
func TestMetricsFaultFields(t *testing.T) {
	backend := &stubBackend{faults: live.FaultStats{
		QuarantinedSegments: 1, Quarantines: 2, Recovered: 1,
		DegradedQueries: 5, ReadRetries: 7, ReadFaults: 3,
	}}
	s := newTestServer(t, backend, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"quarantined_segments": 1, "quarantines_total": 2, "recovered_total": 1,
		"degraded_queries_total": 5, "read_retries_total": 7, "read_faults_total": 3,
	}
	for key, v := range want {
		if got, ok := m[key].(float64); !ok || got != v {
			t.Errorf("metrics[%q] = %v, want %v", key, m[key], v)
		}
	}
	if deg, ok := m["degraded"].(bool); !ok || !deg {
		t.Errorf("metrics[degraded] = %v, want true", m["degraded"])
	}
}

// TestMetricsCacheFields: /metrics surfaces the backend's cache
// account — result cache, singleflight, block cache.
func TestMetricsCacheFields(t *testing.T) {
	backend := &stubBackend{caches: live.CacheStats{
		ResultHits: 10, ResultMisses: 4, ResultBytes: 2048, ResultEntries: 3,
		SingleflightShared: 2,
		BlockHits:          20, BlockMisses: 6, BlockAdmits: 5, BlockEvicts: 1, BlockBytes: 4096,
	}}
	s := newTestServer(t, backend, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache_hits": 10, "cache_misses": 4, "cache_bytes": 2048, "cache_entries": 3,
		"singleflight_shared": 2,
		"block_cache_hits":    20, "block_cache_misses": 6, "block_cache_admits": 5,
		"block_cache_evicts": 1, "block_cache_bytes": 4096,
	}
	for key, v := range want {
		if got, ok := m[key].(float64); !ok || got != v {
			t.Errorf("metrics[%q] = %v, want %v", key, m[key], v)
		}
	}
}

// TestRateLimitSheds: beyond the per-client burst, requests answer 429
// without touching the backend.
func TestRateLimitSheds(t *testing.T) {
	reached := 0
	backend := &stubBackend{search: func(context.Context, []string, int) (live.Result, error) {
		reached++
		return live.Result{}, nil
	}}
	clock := time.Unix(1000, 0)
	s := newTestServer(t, backend, Config{RatePerClient: 1, Burst: 2, now: func() time.Time { return clock }})
	codes := make([]int, 4)
	for i := range codes {
		codes[i] = postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`).Code
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 || codes[3] != 429 {
		t.Fatalf("codes = %v, want [200 200 429 429]", codes)
	}
	if reached != 2 {
		t.Fatalf("backend reached %d times, want 2", reached)
	}
	// A second of accrual buys exactly one more request.
	clock = clock.Add(time.Second)
	if code := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`).Code; code != 200 {
		t.Fatalf("after refill: %d, want 200", code)
	}
	if code := postJSON(s.Handler(), `{"terms": ["t1"], "n": 5}`).Code; code != 429 {
		t.Fatalf("burst exceeded again: %d, want 429", code)
	}
}

// FuzzSearchHandler hammers the search endpoint with arbitrary bodies:
// whatever arrives, the handler must answer an HTTP status (never
// panic) and only ever hand validated input to the backend.
func FuzzSearchHandler(f *testing.F) {
	f.Add(`{"terms": ["t1"], "n": 5}`)
	f.Add(`{"terms": [], "n": 0}`)
	f.Add(`{"terms": ["a", ""], "n": -1, "timeout_ms": -5}`)
	f.Add(`{"terms": "x"}`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`{"terms": ["` + strings.Repeat("x", 4096) + `"], "n": 1}`)

	backend := &stubBackend{search: func(_ context.Context, terms []string, n int) (live.Result, error) {
		if len(terms) == 0 || n <= 0 {
			return live.Result{}, fmt.Errorf("invalid input reached the backend: terms=%v n=%d", terms, n)
		}
		for _, term := range terms {
			if term == "" {
				return live.Result{}, fmt.Errorf("empty term reached the backend")
			}
		}
		return live.Result{}, nil
	}}
	s, err := New(backend, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest:
		case http.StatusInternalServerError:
			t.Fatalf("500 on body %q: %s", body, w.Body)
		default:
			t.Fatalf("unexpected status %d on body %q", w.Code, body)
		}
	})
}

// TestTuneEndpoint: /tune serves the installed reporter's full state
// (decision log included); without a reporter it answers a disabled
// tuner. /metrics carries the same account minus the log, and omits it
// entirely when the tuner is disabled.
func TestTuneEndpoint(t *testing.T) {
	get := func(s *Server, path string) map[string]interface{} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		var m map[string]interface{}
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return m
	}

	bare := newTestServer(t, &stubBackend{}, Config{})
	if m := get(bare, "/tune"); m["enabled"] != false {
		t.Fatalf("no reporter: /tune enabled = %v, want false", m["enabled"])
	}
	if m := get(bare, "/metrics"); m["tune"] != nil {
		t.Fatalf("no reporter: /metrics carries tune block %v", m["tune"])
	}

	tn := tune.New(tune.Config{
		SpanModel: &tune.SpanModel{DecodeCost: 100 * time.Nanosecond, FaultCost: 100 * time.Microsecond},
		SealDocs:  tune.Bounds{Min: 50, Max: 400},
	})
	for i := 0; i < 20; i++ {
		// Vary both counters so the regression identifies both axes.
		tn.ObserveQuery(3, int64(500+137*i), int64(i%7), tn.StartSpan())
		tn.ObserveWrite()
		tn.SealDocs(100)
	}
	s := newTestServer(t, &stubBackend{}, Config{})
	s.SetTuneStats(tn.Stats)

	tm := get(s, "/tune")
	if tm["enabled"] != true {
		t.Fatalf("/tune enabled = %v, want true", tm["enabled"])
	}
	if pw := tm["page_weight"].(float64); math.Abs(pw-1000) > 1e-6 {
		t.Fatalf("/tune page_weight = %v, want the planted 1000", pw)
	}
	if _, ok := tm["recent_decisions"]; !ok {
		t.Fatalf("/tune payload has no decision log: %v", tm)
	}

	mm := get(s, "/metrics")
	tb, ok := mm["tune"].(map[string]interface{})
	if !ok {
		t.Fatalf("/metrics has no tune block: %v", mm["tune"])
	}
	if tb["queries_observed"].(float64) != 20 || tb["writes_observed"].(float64) != 20 {
		t.Fatalf("tune block counters wrong: %v", tb)
	}
	if _, ok := tb["recent_decisions"]; ok {
		t.Fatal("/metrics tune block must not carry the decision log")
	}
}
