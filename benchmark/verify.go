package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/live"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/storage"
)

// precheckQueries is how many queries the three-way check samples.
const precheckQueries = 200

// scoreTolerance is the float addition-order noise allowed between the
// live index and a one-shot build (the LIVE experiment's rule). HTTP
// against in-process live is compared exactly.
const scoreTolerance = 1e-9

// reference is the one-shot answer: index.Build over a collection and
// one MaxScore engine over it.
type reference struct {
	col *collection.Collection
	idx *index.Index
	ms  *core.MaxScoreEngine
	// fromRef maps the reference's document ids to live ids; nil when
	// they coincide (the corpus ingested once, in order).
	fromRef []uint32
}

func newReference(col *collection.Collection, fromRef []uint32) (*reference, error) {
	pool, err := storage.NewPool(storage.NewDisk(), 1<<15)
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(col, pool)
	if err != nil {
		return nil, err
	}
	ms, err := core.NewMaxScore(idx, rank.NewBM25())
	if err != nil {
		return nil, err
	}
	return &reference{col: col, idx: idx, ms: ms, fromRef: fromRef}, nil
}

// resolve maps q's term names to the reference lexicon's ids.
func (r *reference) resolve(q query) collection.Query { return resolveTerms(r.col.Lex, q.terms) }

// resolveTerms maps term names to lex's ids, sorted as engines expect
// them; names lex has never seen match nothing.
func resolveTerms(lex *lexicon.Lexicon, names []string) collection.Query {
	var q collection.Query
	for _, name := range names {
		if id := lex.Lookup(name); id != lexicon.InvalidTerm {
			q.Terms = append(q.Terms, id)
		}
	}
	sort.Slice(q.Terms, func(a, b int) bool { return q.Terms[a] < q.Terms[b] })
	return q
}

// expected holds, per distinct query, the in-process live answer and
// the exact bytes the server must send for it.
type expected struct {
	results []live.Result
	bodies  [][]byte
}

// expectAll evaluates every query of the pool in process against one
// snapshot. Snapshot.Search is the path Searcher.SearchContext takes on
// a result-cache miss, so this neither reads nor fills the result cache
// the workload is about to exercise.
func expectAll(w *live.Writer, queries []query) (*expected, error) {
	snap, err := w.Acquire()
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	ex := &expected{results: make([]live.Result, len(queries)), bodies: make([][]byte, len(queries))}
	for i, q := range queries {
		res, err := snap.Search(q.terms, topN)
		if err != nil {
			return nil, fmt.Errorf("expected answer of query %d: %w", i, err)
		}
		ex.results[i] = res
		ex.bodies[i], err = responseBytes(res)
		if err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// responseBytes renders res the way the server's /search handler does:
// the exported SearchResponse fields, through json.Encoder.
func responseBytes(res live.Result) ([]byte, error) {
	out := server.SearchResponse{
		Generation: res.Generation, Segments: res.Segments,
		Exact: res.Exact, Degraded: res.Degraded,
		SegmentsServed: res.Cert.ShardsServed, SegmentsSkipped: res.Cert.Skipped,
		Results: make([]server.DocResult, len(res.Top)),
	}
	for i, ds := range res.Top {
		out.Results[i] = server.DocResult{Doc: ds.DocID, Score: ds.Score}
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(out); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// exactChecker accepts a 200 whose body is byte-for-byte the expected
// one, or failing that decodes to the same documents and scores (a
// formatting change in the server is not a wrong answer).
func (ex *expected) exactChecker() checker {
	return func(idx int, status int, body []byte) bool {
		if status != http.StatusOK {
			return false
		}
		if bytes.Equal(body, ex.bodies[idx]) {
			return true
		}
		var resp server.SearchResponse
		return json.Unmarshal(body, &resp) == nil && resp.Exact && !resp.Degraded &&
			server.ResultEqual(resp, ex.results[idx])
	}
}

// shapeChecker is the check that holds while writes change the answers:
// a 200 carrying an exact, non-degraded certificate and at most topN
// results in descending score order. The content is checked after the
// writer has quiesced (checkSurvivors).
func shapeChecker(idx int, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var resp server.SearchResponse
	if json.Unmarshal(body, &resp) != nil || !resp.Exact || resp.Degraded || len(resp.Results) > topN {
		return false
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score > resp.Results[i-1].Score {
			return false
		}
	}
	return true
}

// precheck compares a sample of queries three ways before anything is
// timed: the HTTP answer equals the in-process live answer exactly, and
// both equal the one-shot MaxScore answer over ref (document ids mapped
// through ref.fromRef; scores within scoreTolerance).
func precheck(addr string, w *live.Writer, queries []query, ref *reference) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	searcher := w.Searcher()
	step := max(1, len(queries)/precheckQueries)
	for i := 0; i < len(queries); i += step {
		q := queries[i]
		status, body, err := cl.do(q.request)
		if err != nil {
			return fmt.Errorf("pre-check query %d: %w", i, err)
		}
		var resp server.SearchResponse
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			return fmt.Errorf("pre-check query %d: status %d, body %.200q", i, status, body)
		}
		inproc, err := searcher.Search(q.terms, topN)
		if err != nil {
			return fmt.Errorf("pre-check query %d in process: %w", i, err)
		}
		if !server.ResultEqual(resp, inproc) {
			return fmt.Errorf("pre-check query %d: HTTP answer differs from in-process live.Searcher", i)
		}
		want, err := ref.ms.Search(ref.resolve(q), topN)
		if err != nil {
			return fmt.Errorf("pre-check query %d one-shot: %w", i, err)
		}
		if err := sameTop(inproc.Top, want, ref.fromRef); err != nil {
			return fmt.Errorf("pre-check query %d: live differs from the one-shot build: %w", i, err)
		}
	}
	return nil
}

// sameTop compares a live ranking with a reference ranking whose ids
// map to live ids through fromRef (nil: identity). The two engines add
// a document's term scores in different orders (MaxScore's order
// follows its threshold, which differs between one segment and seven),
// so scores agree only to scoreTolerance and documents whose scores tie
// within it may swap places, or swap across the cut-off at position N.
// What must hold: the score at every position agrees, and every live
// document is in the reference top with the same score or ties with the
// reference's last.
func sameTop(got, want []rank.DocScore, fromRef []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	wantScore := make(map[uint32]float64, len(want))
	for i := range want {
		id := want[i].DocID
		if fromRef != nil {
			id = fromRef[id]
		}
		wantScore[id] = want[i].Score
		if math.Abs(got[i].Score-want[i].Score) > scoreTolerance {
			return fmt.Errorf("position %d is doc %d scoring %v, want doc %d scoring %v", i, got[i].DocID, got[i].Score, id, want[i].Score)
		}
	}
	for i, g := range got {
		score, ok := wantScore[g.DocID]
		if !ok {
			score = want[len(want)-1].Score // not in the reference top: it must tie with the cut-off
		}
		if math.Abs(g.Score-score) > scoreTolerance {
			return fmt.Errorf("position %d is doc %d scoring %v; the reference has it (or its cut-off) at %v", i, g.DocID, g.Score, score)
		}
	}
	return nil
}

// survivors builds a fresh collection over the documents that are alive
// after the write script, in id (arrival) order, with a lexicon interned
// from scratch so its statistics cover exactly the survivors: what a
// churned live index must answer like. content maps a live id to the
// corpus document it carries.
func survivors(c *corpus, aliveIDs []uint32, content map[uint32]int) (*collection.Collection, error) {
	sub := &collection.Collection{Lex: lexicon.New()}
	for i, id := range aliveIDs {
		src := &c.col.Docs[content[id]]
		d := collection.Document{ID: uint32(i), Len: src.Len, Terms: make([]collection.TermFreq, len(src.Terms))}
		for j, tf := range src.Terms {
			d.Terms[j] = collection.TermFreq{Term: sub.Lex.Intern(c.names[tf.Term]), TF: tf.TF}
		}
		// Fresh interning order need not match the corpus's: restore the
		// ascending-term-id order documents carry.
		sort.Slice(d.Terms, func(a, b int) bool { return d.Terms[a].Term < d.Terms[b].Term })
		for _, tf := range d.Terms {
			if err := sub.Lex.Record(tf.Term, int(tf.TF)); err != nil {
				return nil, err
			}
		}
		sub.Docs = append(sub.Docs, d)
		sub.TotalTokens += int64(d.Len)
	}
	if len(sub.Docs) > 0 {
		sub.AvgDocLen = float64(sub.TotalTokens) / float64(len(sub.Docs))
	}
	return sub, nil
}
