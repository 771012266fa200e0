package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/server"
)

// traceHeader carries the request id and the client's span id to the
// traced pass's middleware, so the spans of one request share the id
// and the handler span finds its parent.
const traceHeader = "X-Bench-Req"

// client is one keep-alive connection. It writes ready-made request
// bytes and reads the answer with net/http's response parser: the load
// generator shares the cores with the server, so it does as little as
// it can per request.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the status and body. The body slice
// is valid until the next call.
func (c *client) do(request []byte) (int, []byte, error) {
	if _, err := c.conn.Write(request); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// checker decides whether the answer to query idx is right.
type checker func(idx int, status int, body []byte) bool

// loadSpec is one closed-loop window.
type loadSpec struct {
	addr    string
	queries []query
	shape   queryShape
	clients int
	seed    uint64
	warm    time.Duration // requests sent before warm has passed are not counted
	window  time.Duration
	check   checker
	// tr, when set, makes every counted request a root span
	// ("client.request") and sends its id in traceHeader.
	tr *tracer
	// stop, when set, ends the window early once it is closed (the
	// ingest-mix reader runs until the writer has finished).
	stop <-chan struct{}
}

// loadResult holds every counted request of a window: its latency in
// milliseconds and its completion time in seconds from the window's
// start. attempted counts requests sent inside the window, failed those
// of them that got a transport error, a non-200 or a wrong answer.
type loadResult struct {
	latMS, doneS      []float64
	attempted, failed int
	firstFailure      string
	elapsed           time.Duration // the window as it actually ran
}

// runLoad drives spec.clients closed-loop clients: each holds one
// connection and sends its next request when the previous answer has
// been checked. Closed, because the callers of this tier (a
// coordinator, an application server) each wait for their reply.
func runLoad(spec loadSpec) (loadResult, error) {
	type perClient struct {
		res loadResult
		err error
	}
	out := make([]perClient, spec.clients)
	begin := time.Now().Add(spec.warm)
	end := begin.Add(spec.window)
	var wg sync.WaitGroup
	for ci := 0; ci < spec.clients; ci++ {
		dr, err := newDrawer(spec.shape, len(spec.queries), spec.seed+uint64(ci)*7919)
		if err != nil {
			return loadResult{}, err
		}
		cl, err := dial(spec.addr)
		if err != nil {
			return loadResult{}, err
		}
		wg.Add(1)
		go func(ci int, cl *client, dr *drawer) {
			defer wg.Done()
			defer cl.close()
			pc := &out[ci]
			var reqID int64
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				if spec.stop != nil {
					select {
					case <-spec.stop:
						return
					default:
					}
				}
				counted := !t0.Before(begin)
				idx := dr.next()
				request := spec.queries[idx].request
				var root int32
				if spec.tr != nil && counted {
					reqID++
					id := int64(ci+1)<<40 | reqID
					root = spec.tr.start("client.request", 0, id)
					request = httpRequest(spec.queries[idx].body, fmt.Sprintf("%d/%d", id, root))
				}
				status, body, err := cl.do(request)
				t1 := time.Now()
				spec.tr.end(root)
				ok := err == nil && spec.check(idx, status, body)
				if counted {
					pc.res.attempted++
					if ok {
						pc.res.latMS = append(pc.res.latMS, float64(t1.Sub(t0))/1e6)
						pc.res.doneS = append(pc.res.doneS, t1.Sub(begin).Seconds())
					} else {
						pc.res.failed++
						if pc.res.firstFailure == "" {
							pc.res.firstFailure = fmt.Sprintf("query %d: status %d, err %v, body %.200q", idx, status, err, body)
						}
					}
				}
				if err != nil {
					// The connection is in an unknown state: replace it.
					cl.close()
					if cl, err = dial(spec.addr); err != nil {
						pc.err = err
						return
					}
				}
			}
		}(ci, cl, dr)
	}
	wg.Wait()
	var total loadResult
	total.elapsed = min(time.Since(begin), spec.window)
	for _, pc := range out {
		if pc.err != nil {
			return loadResult{}, pc.err
		}
		total.latMS = append(total.latMS, pc.res.latMS...)
		total.doneS = append(total.doneS, pc.res.doneS...)
		total.attempted += pc.res.attempted
		total.failed += pc.res.failed
		if total.firstFailure == "" {
			total.firstFailure = pc.res.firstFailure
		}
	}
	return total, nil
}

// tracedBackend wraps the server's backend in the traced run: a search
// whose context carries a span reference (put there by traceMiddleware
// or by the in-process handler pass) becomes a "live.search" span under
// it. It is how the benchmark sees the boundary between server and live
// without a line of tracing inside either.
type tracedBackend struct{ server.Backend }

func (b tracedBackend) SearchContext(ctx context.Context, terms []string, n int) (live.Result, error) {
	ref := spanFrom(ctx)
	id := ref.t.start("live.search", ref.parent, ref.req)
	res, err := b.Backend.SearchContext(ctx, terms, n)
	ref.t.end(id)
	return res, err
}

// traceMiddleware opens a "server.handler" span per request that
// carries traceHeader ("<request id>/<client span id>"), as a child of
// the client's root span.
func traceMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqStr, parentStr, _ := strings.Cut(r.Header.Get(traceHeader), "/")
		req, err1 := strconv.ParseInt(reqStr, 10, 64)
		parent, err2 := strconv.ParseInt(parentStr, 10, 32)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.start("server.handler", int32(parent), req)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), tr, id, req)))
		tr.end(id)
	})
}
