// Package server is the network front end of the live index: an
// HTTP/JSON facade over live.Open that adds the operational hardening
// the in-process API deliberately leaves out — per-request deadlines
// threaded down to postings-block granularity, bounded admission with
// load shedding instead of unbounded queue growth, per-client rate
// limiting, ops endpoints, and graceful drain on shutdown.
//
// The serving layer never re-ranks: a request admitted here produces
// exactly the bytes the in-process live.Searcher would produce for the
// same query against the same snapshot (the LOAD benchmark's
// equivalence gate holds the layer to that), so everything in this
// package is scheduling, not scoring.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/tune"
)

// ErrUnavailable marks a backend that currently has nothing to serve
// from — e.g. a coordinator whose every replica is unreachable. The
// search handler maps it to 503 (retryable) instead of 500.
var ErrUnavailable = errors.New("server: backend unavailable")

// Backend is the slice of the live layer the server drives. It is an
// interface so handler tests can stand in a stub that blocks, fails, or
// panics on command.
type Backend interface {
	// SearchContext evaluates one query against a fresh snapshot,
	// observing ctx at postings-block granularity.
	SearchContext(ctx context.Context, terms []string, n int) (live.Result, error)
	// Stats reports the writer's point-in-time accounting (generation,
	// segment count, document counts).
	Stats() live.WriterStats
	// Counters sums the decode/skip/fault counters across the current
	// snapshot's segments.
	Counters() (decoded, skips, faulted int64)
	// FaultStats reports the fault account of the live index: quarantined
	// segments, retry/fault totals, degraded-query count.
	FaultStats() live.FaultStats
	// CacheStats reports the query-path cache layers' counters: result
	// cache and hot-block cache.
	CacheStats() live.CacheStats
	// Close releases the backend. The server calls it at the end of
	// Shutdown, after in-flight queries drain.
	Close() error
}

// liveBackend adapts *live.Writer to Backend.
type liveBackend struct {
	w *live.Writer
	s *live.Searcher
}

// NewLiveBackend wraps a live writer as the server's backend.
func NewLiveBackend(w *live.Writer) Backend {
	return &liveBackend{w: w, s: w.Searcher()}
}

func (b *liveBackend) SearchContext(ctx context.Context, terms []string, n int) (live.Result, error) {
	return b.s.SearchContext(ctx, terms, n)
}

func (b *liveBackend) Stats() live.WriterStats { return b.w.Stats() }

func (b *liveBackend) Counters() (decoded, skips, faulted int64) {
	snap, err := b.w.Acquire()
	if err != nil {
		return 0, 0, 0
	}
	defer snap.Close()
	return snap.Counters()
}

func (b *liveBackend) FaultStats() live.FaultStats { return b.w.FaultStats() }

func (b *liveBackend) CacheStats() live.CacheStats { return b.w.CacheStats() }

func (b *liveBackend) Close() error { return b.w.Close() }

const (
	// maxTerms caps the term count of one query.
	maxTerms = 32
	// retryAfter is the Retry-After hint on responses shed by admission.
	retryAfter = time.Second
)

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing searches. Default 16.
	MaxInFlight int
	// QueueDepth bounds searches waiting for an execution slot; beyond
	// it requests are shed with 429. Default 64.
	QueueDepth int
	// DefaultTimeout is the per-query deadline when the request carries
	// none. Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for. Default 30s.
	MaxTimeout time.Duration
	// MaxN caps the result count a request may ask for. Default 1000.
	MaxN int
	// RatePerClient is the sustained per-client request rate
	// (requests/second); 0 disables rate limiting.
	RatePerClient float64
	// Burst is the per-client burst allowance when rate limiting is on.
	// Default 2×RatePerClient (floor 1).
	Burst float64
	// now is the injectable clock (tests); nil means time.Now.
	now func() time.Time
}

func (c *Config) fillDefaults() {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxN == 0 {
		c.MaxN = 1000
	}
	if c.Burst == 0 {
		c.Burst = 2 * c.RatePerClient
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server serves the live index over HTTP. Create with New, attach to a
// listener with Serve (or use Handler for tests), stop with Shutdown.
type Server struct {
	cfg     Config
	backend Backend
	metrics *Metrics
	admit   *admission
	limiter *rateLimiter
	mux     *http.ServeMux
	http    *http.Server

	// replStats, when set, adds the replication role's account to
	// /metrics. See SetReplStats.
	replStats func() ReplicationStats
	// tuneStats, when set, adds the self-tuning account to /metrics and
	// serves it on /tune. See SetTuneStats.
	tuneStats func() tune.Stats

	draining atomic.Bool
}

// New builds a server over backend.
func New(backend Backend, cfg Config) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("server: nil backend")
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		backend: backend,
		metrics: newMetrics(cfg.now),
		admit:   newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		limiter: newRateLimiter(cfg.RatePerClient, cfg.Burst, cfg.now),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.recovered(s.handleSearch))
	s.mux.HandleFunc("/healthz", s.recovered(s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.recovered(s.handleMetrics))
	s.mux.HandleFunc("/tune", s.recovered(s.handleTune))
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler exposes the routing for in-process tests (httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Mount registers an additional handler subtree (e.g. the replication
// pull endpoints under "/repl/") behind the server's panic guard. Call
// it after New and before Serve — the mux is not safe to mutate while
// serving.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mux.HandleFunc(pattern, s.recovered(h.ServeHTTP))
}

// ReplicationStats is the replication role's account on /metrics. Role
// says which shape this process serves ("leader", "follower", or
// "coordinator"); Ordinal is the manifest generation it is at (for a
// coordinator: the newest generation observed across the fleet). The
// remaining counters are role-specific and omitted when zero.
type ReplicationStats struct {
	Role    string `json:"repl_role"`
	Ordinal uint64 `json:"repl_ordinal"`
	// Leader side: pull traffic served to followers.
	ManifestsServed int64 `json:"repl_manifests_served,omitempty"`
	FilesServed     int64 `json:"repl_files_served,omitempty"`
	BytesServed     int64 `json:"repl_bytes_served,omitempty"`
	// Follower side: sync progress against the leader. LagGenerations is
	// leader ordinal minus local ordinal as of the last manifest fetch —
	// 0 means caught up.
	Syncs          int64  `json:"repl_syncs,omitempty"`
	SyncFailures   int64  `json:"repl_sync_failures,omitempty"`
	SegmentsPulled int64  `json:"repl_segments_pulled,omitempty"`
	FilesPulled    int64  `json:"repl_files_pulled,omitempty"`
	BytesPulled    int64  `json:"repl_bytes_pulled,omitempty"`
	CRCRetries     int64  `json:"repl_crc_retries,omitempty"`
	LagGenerations uint64 `json:"repl_lag_generations,omitempty"`
	// Coordinator side: scatter/gather accounting.
	Replicas       int   `json:"repl_replicas,omitempty"`
	Fanouts        int64 `json:"repl_fanouts,omitempty"`
	DegradedMerges int64 `json:"repl_degraded_merges,omitempty"`
}

// SetReplStats installs the replication reporter sampled by /metrics.
// Call it after New and before Serve; nil leaves replication fields off
// the payload (the default for a standalone node).
func (s *Server) SetReplStats(fn func() ReplicationStats) { s.replStats = fn }

// SetTuneStats installs the self-tuning reporter sampled by /metrics
// and served in full (decision log included) on /tune. Call it after
// New and before Serve; nil (the default) answers /tune with a disabled
// tuner and leaves the tune block off /metrics. live.Writer.TuneStats
// is the intended reporter — it is nil-safe, so a statically configured
// node can install it unconditionally.
func (s *Server) SetTuneStats(fn func() tune.Stats) { s.tuneStats = fn }

// handleTune serves the tuner's full observable state: calibrated
// coefficients, knob recommendations, and the recent decision log with
// its running digest — the audit trail behind every adaptive choice.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var st tune.Stats
	if s.tuneStats != nil {
		st = s.tuneStats()
	}
	writeJSON(w, http.StatusOK, st)
}

// Metrics exposes the server's counters (the LOAD benchmark reads them
// directly instead of scraping its own endpoint).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// Shutdown gracefully stops the server: new connections are refused,
// in-flight queries drain (bounded by ctx), and the backend — the live
// index — is closed last, so no query ever observes a closing index.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	if cerr := s.backend.Close(); err == nil {
		err = cerr
	}
	return err
}

// recovered wraps a handler with the panic guard: a panicking handler
// answers 500 and the process keeps serving. The guard is the backstop
// behind the panic-proofing of the library layers — defense in depth,
// not the primary mechanism.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.recoveredPanic()
				debug.PrintStack()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

// searchRequest is the POST /search body.
type searchRequest struct {
	Terms []string `json:"terms"`
	N     int      `json:"n"`
	// TimeoutMS overrides the server's default per-query deadline
	// (capped at MaxTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SearchResponse is the POST /search answer. The degraded fields carry
// the live layer's coverage certificate to the wire: a query that lost
// segments to quarantine still answers 200, but says so explicitly —
// Degraded set, Exact dropped, SegmentsServed < Segments, and the
// skipped segment names listed — never a silent partial answer.
type SearchResponse struct {
	Generation uint64 `json:"generation"`
	Segments   int    `json:"segments"`
	Exact      bool   `json:"exact"`
	// Degraded reports that quarantined segments were skipped and the
	// results cover only SegmentsServed of Segments.
	Degraded bool `json:"degraded,omitempty"`
	// SegmentsServed is how many segments the answer covers; equals
	// Segments unless Degraded.
	SegmentsServed int `json:"segments_served"`
	// SegmentsSkipped names the quarantined segments excluded from this
	// answer; empty unless Degraded.
	SegmentsSkipped []string    `json:"segments_skipped,omitempty"`
	Results         []DocResult `json:"results"`
}

type DocResult struct {
	Doc   uint32  `json:"doc"`
	Score float64 `json:"score"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection owns delivery failures
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// parseSearch validates the request body into a searchRequest. Every
// malformed shape — bad JSON, missing terms, empty term strings,
// non-positive or oversized n, absurd timeouts — is a 400 here, before
// any index machinery runs.
func (s *Server) parseSearch(r *http.Request) (searchRequest, error) {
	var req searchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("malformed body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("trailing data after the request object")
	}
	if len(req.Terms) == 0 {
		return req, fmt.Errorf("terms must be non-empty")
	}
	if len(req.Terms) > maxTerms {
		return req, fmt.Errorf("%d terms exceeds limit %d", len(req.Terms), maxTerms)
	}
	for i, t := range req.Terms {
		if t == "" {
			return req, fmt.Errorf("term %d is empty", i)
		}
	}
	if req.N <= 0 {
		return req, fmt.Errorf("n = %d must be positive", req.N)
	}
	if req.N > s.cfg.MaxN {
		return req, fmt.Errorf("n = %d exceeds limit %d", req.N, s.cfg.MaxN)
	}
	if req.TimeoutMS < 0 {
		return req, fmt.Errorf("timeout_ms = %d must be non-negative", req.TimeoutMS)
	}
	return req, nil
}

// clientKey identifies the client for rate limiting: the remote host
// without the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, err := s.parseSearch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.request()
	if ok, retry := s.limiter.allow(clientKey(r)); !ok {
		s.metrics.doneShed()
		s.shed(w, retry)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release, err := s.admit.acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrShed) {
			s.metrics.doneShed()
			s.shed(w, retryAfter)
			return
		}
		// The context fired while queued: deadline exhausted in line.
		s.metrics.doneFailed()
		writeError(w, http.StatusGatewayTimeout, "queued past deadline")
		return
	}
	defer release()

	start := s.cfg.now()
	res, err := s.backend.SearchContext(ctx, req.Terms, req.N)
	if err != nil {
		s.metrics.doneFailed()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "query deadline exceeded")
		case errors.Is(err, context.Canceled):
			// The client went away; the status is written into a dead
			// connection, but the accounting still records the abort.
			writeError(w, http.StatusServiceUnavailable, "query cancelled")
		case errors.Is(err, live.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "index closed")
		case errors.Is(err, ErrUnavailable):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.metrics.doneServed(s.cfg.now().Sub(start))
	writeJSON(w, http.StatusOK, toResponse(res))
}

func toResponse(res live.Result) SearchResponse {
	out := SearchResponse{
		Generation:      res.Generation,
		Segments:        res.Segments,
		Exact:           res.Exact,
		Degraded:        res.Degraded,
		SegmentsServed:  res.Cert.ShardsServed,
		SegmentsSkipped: res.Cert.Skipped,
		Results:         make([]DocResult, len(res.Top)),
	}
	for i, ds := range res.Top {
		out.Results[i] = DocResult{Doc: ds.DocID, Score: ds.Score}
	}
	return out
}

// ResultEqual reports whether an HTTP answer matches an in-process
// live.Result exactly — same documents, same float64 scores, same
// order. The LOAD benchmark's equivalence gate is built on it.
func ResultEqual(resp SearchResponse, res live.Result) bool {
	if len(resp.Results) != len(res.Top) {
		return false
	}
	for i, d := range resp.Results {
		if res.Top[i] != (rank.DocScore{DocID: d.Doc, Score: d.Score}) {
			return false
		}
	}
	return true
}

func (s *Server) shed(w http.ResponseWriter, retry time.Duration) {
	secs := int(retry / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, "overloaded, retry later")
}

// healthResponse is the GET /healthz body. Degraded is NOT a failure
// state: the index is still answering (with explicit certificates), so
// the status stays 200 — flipping to 503 would tell a load balancer to
// drain a replica that is serving correct, labeled answers. The body
// says what is degraded so operators (and probes that care) can see it.
type healthResponse struct {
	Status              string `json:"status"` // "ok", "degraded", or "draining"
	QuarantinedSegments int    `json:"quarantined_segments,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	fs := s.backend.FaultStats()
	if fs.QuarantinedSegments > 0 {
		writeJSON(w, http.StatusOK, healthResponse{
			Status:              "degraded",
			QuarantinedSegments: fs.QuarantinedSegments,
		})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

// fullMetrics is the complete /metrics payload: serving counters plus
// the index-side gauges.
type fullMetrics struct {
	MetricsSnapshot
	Generation   uint64 `json:"generation"`
	Segments     int    `json:"segments"`
	DocsAlive    int64  `json:"docs_alive"`
	DocsAdded    int64  `json:"docs_added"`
	DocsDeleted  int64  `json:"docs_deleted"`
	Decodes      int64  `json:"postings_decoded"`
	Skips        int64  `json:"skips_taken"`
	BlocksFaults int64  `json:"blocks_faulted"`
	// Fault account: degraded serving is visible here before any query
	// notices (Degraded mirrors quarantined_segments > 0).
	Degraded            bool  `json:"degraded"`
	QuarantinedSegments int   `json:"quarantined_segments"`
	Quarantines         int64 `json:"quarantines_total"`
	Recovered           int64 `json:"recovered_total"`
	DegradedQueries     int64 `json:"degraded_queries_total"`
	ReadRetries         int64 `json:"read_retries_total"`
	ReadFaults          int64 `json:"read_faults_total"`
	// Cache account: the two query-path cache layers. All zero when
	// the caches are disabled.
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	CacheBytes         int64 `json:"cache_bytes"`
	CacheEntries       int64 `json:"cache_entries"`
	SingleflightShared int64 `json:"singleflight_shared"`
	BlockCacheHits     int64 `json:"block_cache_hits"`
	BlockCacheMisses   int64 `json:"block_cache_misses"`
	BlockCacheAdmits   int64 `json:"block_cache_admits"`
	BlockCacheEvicts   int64 `json:"block_cache_evicts"`
	BlockCacheBytes    int64 `json:"block_cache_bytes"`
	// Replication account (leader/follower/coordinator roles); absent on
	// a standalone node.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Self-tuning account (calibrated coefficients and knob state);
	// absent when no tuner reporter is installed or the node runs the
	// static policy. /tune serves the same state with the decision log.
	Tune *tune.Stats `json:"tune,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.backend.Stats()
	decoded, skips, faulted := s.backend.Counters()
	fs := s.backend.FaultStats()
	cs := s.backend.CacheStats()
	var repl *ReplicationStats
	if s.replStats != nil {
		r := s.replStats()
		repl = &r
	}
	var ts *tune.Stats
	if s.tuneStats != nil {
		if t := s.tuneStats(); t.Enabled {
			t.Recent = nil // the decision log lives on /tune, not /metrics
			ts = &t
		}
	}
	writeJSON(w, http.StatusOK, fullMetrics{
		Replication:         repl,
		Tune:                ts,
		MetricsSnapshot:     s.metrics.Snapshot(),
		Generation:          stats.Generation,
		Segments:            stats.Segments,
		DocsAlive:           stats.DocsAlive,
		DocsAdded:           stats.DocsAdded,
		DocsDeleted:         stats.DocsDeleted,
		Decodes:             decoded,
		Skips:               skips,
		BlocksFaults:        faulted,
		Degraded:            fs.QuarantinedSegments > 0,
		QuarantinedSegments: fs.QuarantinedSegments,
		Quarantines:         fs.Quarantines,
		Recovered:           fs.Recovered,
		DegradedQueries:     fs.DegradedQueries,
		ReadRetries:         fs.ReadRetries,
		ReadFaults:          fs.ReadFaults,
		CacheHits:           cs.ResultHits,
		CacheMisses:         cs.ResultMisses,
		CacheBytes:          cs.ResultBytes,
		CacheEntries:        cs.ResultEntries,
		SingleflightShared:  cs.SingleflightShared,
		BlockCacheHits:      cs.BlockHits,
		BlockCacheMisses:    cs.BlockMisses,
		BlockCacheAdmits:    cs.BlockAdmits,
		BlockCacheEvicts:    cs.BlockEvicts,
		BlockCacheBytes:     cs.BlockBytes,
	})
}
