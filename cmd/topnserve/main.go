// Command topnserve serves a live top-N index over HTTP: the network
// front end of the reproduction's live layer (internal/server over
// internal/live).
//
// Usage:
//
//	topnserve [-addr :8080] [-dir DIR]
//	          [-seed-docs N] [-seed-vocab V] [-seed-mean-len L] [-seed N]
//	          [-follow URL] [-sync-every D]
//	          [-replicas host1:port,host2:port,...]
//	          [-max-inflight K] [-queue-depth Q]
//	          [-rate R] [-burst B]
//	          [-timeout D] [-max-timeout D] [-max-n N]
//	          [-drain-timeout D] [-reverify D]
//	          [-result-cache-bytes B] [-block-cache-bytes B]
//	          [-tune] [-pprof-addr ADDR]
//
// -dir is the live index directory; a temporary directory is used (and
// removed on exit) when omitted. -seed-docs > 0 ingests a synthetic
// Zipf collection at startup so the server answers real queries out of
// the box; with 0 the index starts empty.
//
// Endpoints:
//
//	POST /search          {"terms": ["t12", "t34"], "n": 10, "timeout_ms": 500}
//	GET  /healthz         liveness (503 while draining)
//	GET  /metrics         serving + index + replication + tuner counters, JSON
//	GET  /tune            self-tuner state: calibrated coefficients, knobs, decision log
//	GET  /repl/manifest   replication wire manifest (any node with an index)
//	GET  /repl/segment/…  immutable segment files, Range-resumable
//
// Replication roles:
//
//   - Default: the node is a leader. Its committed segments are served
//     under /repl/ for followers to pull.
//   - -follow URL: the node is a follower. Its index opens read-only,
//     a background loop polls the leader's manifest ordinal every
//     -sync-every and pulls+installs what changed; searches serve the
//     locally installed generation. Seeding flags are rejected. The
//     /repl/ subtree is still served, so followers can be chained.
//   - -replicas a,b,c: the node is a coordinator. It owns no index;
//     each search scatters to every replica's /search and gathers
//     through a certificate-preserving merge — a lagging or
//     unreachable replica yields "degraded": true with the replica
//     named in the certificate, never a silently stale exact answer.
//
// Overload is shed, not queued: beyond -max-inflight executing and
// -queue-depth waiting requests, /search answers 429 with Retry-After.
// -rate/-burst add a per-client token bucket. SIGINT/SIGTERM trigger a
// graceful drain: in-flight queries finish (bounded by -drain-timeout),
// then the index closes.
//
// Damaged segments degrade, they do not kill: a segment whose pages
// fail past the retry budget is quarantined, searches answer over the
// survivors with "degraded": true and the skipped segments named, and
// a background loop re-verifies quarantined segments every -reverify,
// returning them to service once their media reads clean. /healthz
// reports "degraded" in a 200 body (the replica still serves correct,
// labeled answers); /metrics carries the full fault account.
//
// The query path is cache-amortized: -result-cache-bytes bounds a
// whole-answer cache (invalidated wholesale at every commit, degraded
// answers never cached, concurrent identical queries singleflighted)
// and -block-cache-bytes a TinyLFU hot-block cache shared by every
// segment. Either set to 0 disables that layer; /metrics carries the
// hit/miss/byte account of both.
//
// -tune closes the loop of the paper's cost model on the live server:
// a self-tuner (internal/tune) calibrates the page-weight and
// terms-per-query coefficients from the server's own counters and
// adapts the seal threshold, the merge horizon and run lengths, and the
// buffer-pool size within fixed bounds. Maintenance timing changes; answers never do. GET
// /tune reports the calibrated coefficients, current knob
// recommendations, and the recent decision log.
//
// -pprof-addr exposes net/http/pprof on its own listener and mux —
// never on the serving address, so profiling endpoints are not
// reachable from the query port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/collection"
	"repro/internal/live"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/tune"
)

// options carries every parsed flag into run.
type options struct {
	addr, dir                         string
	seedDocs, seedVocab, seedMean     int
	seed                              uint64
	sealDocs                          int
	follow                            string
	syncEvery                         time.Duration
	replicas                          string
	maxInFlight, queueDepth           int
	rate, burst                       float64
	timeout, maxTimeout               time.Duration
	maxN                              int
	drainTimeout, reverify            time.Duration
	resultCacheBytes, blockCacheBytes int64
	pprofAddr                         string
	tuneOn                            bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.dir, "dir", "", "live index directory (default: fresh temp dir, removed on exit)")
	flag.IntVar(&o.seedDocs, "seed-docs", 0, "ingest a synthetic collection of this many documents at startup")
	flag.IntVar(&o.seedVocab, "seed-vocab", 5000, "vocabulary size of the seeded collection")
	flag.IntVar(&o.seedMean, "seed-mean-len", 80, "mean document length of the seeded collection")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of the synthetic collection")
	flag.IntVar(&o.sealDocs, "seal-docs", 0, "live index seal threshold in documents (0 = default)")
	flag.StringVar(&o.follow, "follow", "", "run as a follower of the leader at this base URL (e.g. http://leader:8080)")
	flag.DurationVar(&o.syncEvery, "sync-every", time.Second, "follower manifest poll interval")
	flag.StringVar(&o.replicas, "replicas", "", "run as a coordinator over these comma-separated replica base URLs (no local index)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 16, "maximum concurrently executing searches")
	flag.IntVar(&o.queueDepth, "queue-depth", 64, "maximum searches queued for a slot before shedding")
	flag.Float64Var(&o.rate, "rate", 0, "per-client sustained requests/second (0 = unlimited)")
	flag.Float64Var(&o.burst, "burst", 0, "per-client burst allowance (default 2×rate)")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Second, "default per-query deadline")
	flag.DurationVar(&o.maxTimeout, "max-timeout", 30*time.Second, "cap on the per-query deadline a request may ask for")
	flag.IntVar(&o.maxN, "max-n", 1000, "cap on the result count a request may ask for")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown drain bound")
	flag.DurationVar(&o.reverify, "reverify", 30*time.Second, "quarantined-segment re-verification interval (0 disables)")
	flag.Int64Var(&o.resultCacheBytes, "result-cache-bytes", 64<<20, "query result cache capacity (0 disables)")
	flag.Int64Var(&o.blockCacheBytes, "block-cache-bytes", 32<<20, "hot postings-block cache capacity (0 disables)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	flag.BoolVar(&o.tuneOn, "tune", false, "self-tune maintenance (seal size, merge run lengths, pool size) from live counters; state on /tune")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "topnserve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.replicas != "" && o.follow != "" {
		return fmt.Errorf("-replicas and -follow are mutually exclusive: a node coordinates or follows, not both")
	}

	// Build the backend for the chosen role. In the two local-index
	// roles w is the index writer; a coordinator owns no index and w
	// stays nil.
	var (
		backend  server.Backend
		w        *live.Writer
		follower *replica.Follower
	)
	switch {
	case o.replicas != "":
		if o.seedDocs > 0 {
			return fmt.Errorf("-seed-docs needs a local index; a coordinator owns none")
		}
		if o.tuneOn {
			return fmt.Errorf("-tune adapts local index maintenance; a coordinator owns no index")
		}
		coord, err := replica.NewCoordinator(strings.Split(o.replicas, ","), nil)
		if err != nil {
			return err
		}
		backend = coord
	default:
		if o.follow != "" && o.seedDocs > 0 {
			return fmt.Errorf("-seed-docs writes, and a follower's index is read-only; seed the leader instead")
		}
		if o.dir == "" {
			tmp, err := os.MkdirTemp("", "topnserve-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			o.dir = tmp
		}
		// -tune attaches the self-tuner: calibration runs on wall-clock
		// spans (no SpanModel), and the knobs move inside fixed bounds so
		// a miscalibrated coefficient can never push the index somewhere
		// unreasonable.
		var tn *tune.Tuner
		if o.tuneOn {
			tn = tune.New(tune.Config{
				SealDocs:   tune.Bounds{Min: 256, Max: 2048},
				MergeFanIn: tune.Bounds{Min: 2, Max: 6},
				PoolPages:  tune.Bounds{Min: 64, Max: 256},
			})
		}
		var err error
		w, err = live.Open(live.Config{
			Dir: o.dir, SealDocs: o.sealDocs, ReverifyEvery: o.reverify,
			ResultCacheBytes: o.resultCacheBytes,
			BlockCacheBytes:  o.blockCacheBytes,
			Follower:         o.follow != "",
			Tune:             tn,
		})
		if err != nil {
			return err
		}
		if o.seedDocs > 0 {
			if err := ingest(w, o.seedDocs, o.seedVocab, o.seedMean, o.seed); err != nil {
				w.Close()
				return err
			}
		}
		backend = server.NewLiveBackend(w)
	}
	// From here on the backend's lifecycle belongs to the server:
	// Shutdown closes it after the drain.

	srv, err := server.New(backend, server.Config{
		MaxInFlight:    o.maxInFlight,
		QueueDepth:     o.queueDepth,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		MaxN:           o.maxN,
		RatePerClient:  o.rate,
		Burst:          o.burst,
	})
	if err != nil {
		backend.Close()
		return err
	}
	if w != nil && o.tuneOn {
		srv.SetTuneStats(w.TuneStats)
	}

	// Replication wiring. Every node with an index — leader or follower
	// — serves the /repl/ pull subtree, which is what makes chained
	// replication possible; a follower additionally runs the background
	// sync loop. /metrics reports the role's replication account.
	var syncCancel context.CancelFunc
	syncDone := make(chan struct{})
	switch {
	case o.replicas != "":
		coord := backend.(*replica.Coordinator)
		srv.SetReplStats(coord.ReplStats)
		close(syncDone)
	case o.follow != "":
		leader := replica.NewLeader(w, replica.LeaderConfig{})
		srv.Mount(replica.Prefix+"/", leader)
		follower, err = replica.NewFollower(w, o.follow, replica.FollowerConfig{})
		if err != nil {
			backend.Close()
			return err
		}
		srv.SetReplStats(func() server.ReplicationStats {
			// A follower is also a (chain) leader: merge the pull and
			// serve sides of its account.
			st := follower.Stats()
			ls := leader.Stats()
			st.ManifestsServed = ls.ManifestsServed
			st.FilesServed = ls.FilesServed
			st.BytesServed = ls.BytesServed
			return st
		})
		var syncCtx context.Context
		syncCtx, syncCancel = context.WithCancel(context.Background())
		go func() {
			defer close(syncDone)
			follower.Run(syncCtx, o.syncEvery)
		}()
	default:
		leader := replica.NewLeader(w, replica.LeaderConfig{})
		srv.Mount(replica.Prefix+"/", leader)
		srv.SetReplStats(leader.Stats)
		close(syncDone)
	}
	// stopSync halts the follower loop (and waits it out) before the
	// index starts closing, so no install races the drain.
	stopSync := func() {
		if syncCancel != nil {
			syncCancel()
		}
		<-syncDone
	}

	if o.pprofAddr != "" {
		pl, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			stopSync()
			backend.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		// A dedicated mux with explicit registrations: importing
		// net/http/pprof also registers on http.DefaultServeMux, which
		// this program never serves — the profiler is reachable only
		// here, never on the query port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go psrv.Serve(pl)
		defer psrv.Close()
		fmt.Printf("topnserve: pprof on %s\n", pl.Addr())
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		stopSync()
		backend.Close()
		return err
	}
	switch {
	case o.replicas != "":
		fmt.Printf("topnserve: coordinator listening on %s (%d replicas)\n",
			l.Addr(), len(strings.Split(o.replicas, ",")))
	case o.follow != "":
		stats := w.Stats()
		fmt.Printf("topnserve: follower of %s listening on %s (%d docs alive, generation %d, %d segments)\n",
			o.follow, l.Addr(), stats.DocsAlive, stats.Generation, stats.Segments)
	default:
		stats := w.Stats()
		fmt.Printf("topnserve: listening on %s (%d docs alive, generation %d, %d segments)\n",
			l.Addr(), stats.DocsAlive, stats.Generation, stats.Segments)
	}

	// Serve until a signal arrives, then drain.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("topnserve: %v, draining (bound %v)\n", sig, o.drainTimeout)
		stopSync()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			return err
		}
		fmt.Println("topnserve: drained, index closed")
		return nil
	case err := <-errc:
		stopSync()
		backend.Close()
		return err
	}
}

// ingest seeds the live index with a synthetic Zipf collection — the
// same generator the benchmarks use, so term names ("t0", "t1", ...)
// and score distributions match the rest of the reproduction.
func ingest(w *live.Writer, docs, vocab, meanLen int, seed uint64) error {
	col, err := collection.Generate(collection.Config{
		NumDocs: docs, VocabSize: vocab, MeanDocLen: meanLen, Seed: seed,
	})
	if err != nil {
		return err
	}
	for i := range col.Docs {
		if _, err := w.Add(live.DocTerms(col.Lex, col.Docs[i])); err != nil {
			return fmt.Errorf("ingest doc %d: %w", i, err)
		}
	}
	return w.Flush()
}
