package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/parallel"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/topk"
)

// Coordinator is a server.Backend that owns no index: it scatters each
// query to K replica /search endpoints and gathers through
// topk.MergeReplicas, so the merged answer carries the fleet-level
// exactness/degraded certificate — Exact only when every replica
// answered exactly at one shared generation; a lagging, unreachable,
// or internally degraded replica lands in the certificate's Skipped
// list with ShardsServed < ShardsTotal. Mounted behind internal/server
// it inherits all the front-end hardening (admission, rate limits,
// deadlines) unchanged.
type Coordinator struct {
	replicas []string
	client   *http.Client

	fanouts  atomic.Int64
	degraded atomic.Int64
	lastGen  atomic.Uint64
}

// NewCoordinator builds a scatter/gather backend over the replica base
// URLs. client nil means http.DefaultClient.
func NewCoordinator(replicas []string, client *http.Client) (*Coordinator, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replica: a coordinator needs at least one replica")
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Coordinator{replicas: replicas, client: client}, nil
}

// ReplStats reports the scatter/gather account (Stats is the
// server.Backend writer-accounting method).
func (c *Coordinator) ReplStats() server.ReplicationStats {
	return server.ReplicationStats{
		Role:           "coordinator",
		Ordinal:        c.lastGen.Load(),
		Replicas:       len(c.replicas),
		Fanouts:        c.fanouts.Load(),
		DegradedMerges: c.degraded.Load(),
	}
}

// SearchContext scatters the query to every replica and merges. In the
// returned Result, Segments and the certificate's shard counts are
// *replica* counts: the unit of coverage at this tier is a whole
// replica, exactly as a single node's unit is a segment.
func (c *Coordinator) SearchContext(ctx context.Context, terms []string, n int) (live.Result, error) {
	c.fanouts.Add(1)
	answers := make([]topk.ReplicaAnswer, len(c.replicas))
	// A replica that fails is recorded in its answer and skipped by the
	// merge, so a leg never fails the gather: only the caller's ctx does.
	err := parallel.Gather(ctx, len(c.replicas), len(c.replicas), func(ctx context.Context, i int) error {
		answers[i] = c.ask(ctx, c.replicas[i], terms, n)
		return nil
	})
	if err != nil {
		return live.Result{}, err
	}
	top, cert, gen := topk.MergeReplicas(answers, n)
	if cert.ShardsServed == 0 && len(cert.Skipped) == len(c.replicas) {
		allDown := true
		for _, a := range answers {
			if a.Err == nil {
				allDown = false
				break
			}
		}
		if allDown {
			return live.Result{}, fmt.Errorf("%w: no replica answered", server.ErrUnavailable)
		}
	}
	c.lastGen.Store(gen)
	if cert.Degraded {
		c.degraded.Add(1)
	}
	return live.Result{
		Top:        top,
		Exact:      cert.Exact,
		Degraded:   cert.Degraded,
		Cert:       cert,
		Segments:   len(c.replicas),
		Generation: gen,
	}, nil
}

// ask runs one replica's leg of the scatter.
func (c *Coordinator) ask(ctx context.Context, base string, terms []string, n int) topk.ReplicaAnswer {
	ans := topk.ReplicaAnswer{Name: base}
	fail := func(err error) topk.ReplicaAnswer {
		ans.Err = err
		return ans
	}
	body, err := json.Marshal(searchBody{Terms: terms, N: n, TimeoutMS: remainingMS(ctx)})
	if err != nil {
		return fail(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/search", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fail(fmt.Errorf("replica answered %s", resp.Status))
	}
	var sr server.SearchResponse
	if err := decodeJSON(resp.Body, &sr); err != nil {
		return fail(err)
	}
	ans.Generation = sr.Generation
	ans.Top = make([]rank.DocScore, len(sr.Results))
	for i, d := range sr.Results {
		ans.Top[i] = rank.DocScore{DocID: d.Doc, Score: d.Score}
	}
	// Reconstruct the replica's single-node certificate from the wire
	// fields (segment-level coverage).
	ans.Cert = topk.Certificate{
		Exact:        sr.Exact,
		Degraded:     sr.Degraded,
		ShardsServed: sr.SegmentsServed,
		ShardsTotal:  sr.Segments,
		Skipped:      sr.SegmentsSkipped,
	}
	return ans
}

// searchBody mirrors the server's searchRequest.
type searchBody struct {
	Terms     []string `json:"terms"`
	N         int      `json:"n"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// remainingMS converts the context deadline into the per-replica
// timeout_ms hint, so a replica's own default deadline never undercuts
// the coordinator's remaining budget.
func remainingMS(ctx context.Context) int {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := int(time.Until(dl).Milliseconds())
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Stats implements server.Backend: the coordinator's "writer" account
// is the fleet view — generation is the newest observed across
// replicas, segments the replica count.
func (c *Coordinator) Stats() live.WriterStats {
	return live.WriterStats{Generation: c.lastGen.Load(), Segments: len(c.replicas)}
}

// Counters implements server.Backend; a coordinator decodes nothing.
func (c *Coordinator) Counters() (decoded, skips, faulted int64) { return 0, 0, 0 }

// FaultStats implements server.Backend: degraded merges count as
// degraded queries at this tier.
func (c *Coordinator) FaultStats() live.FaultStats {
	return live.FaultStats{DegradedQueries: c.degraded.Load()}
}

// CacheStats implements server.Backend; the coordinator caches nothing.
func (c *Coordinator) CacheStats() live.CacheStats { return live.CacheStats{} }

// Close implements server.Backend.
func (c *Coordinator) Close() error {
	c.client.CloseIdleConnections()
	return nil
}
