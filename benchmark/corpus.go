package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/collection"
	"repro/internal/lexicon"
	"repro/internal/live"
	"repro/internal/xrand"
	"repro/internal/zipf"
)

// topN is the result count of every query the benchmark sends.
const topN = 10

// scale sizes the corpus and the query pools. The served program never
// sees these numbers, only the documents and queries made from them.
type scale struct {
	docs, vocab, meanLen int
}

var (
	// fullScale is the comparable size: about 1.25 M postings, built in
	// under two seconds, so that three set-ups and a 15 s window fit the
	// driver's time cap (see README.md, "Size").
	fullScale = scale{docs: 20000, vocab: 120000, meanLen: 200}
	// quickScale is for tests and CI only; its numbers are not comparable.
	quickScale = scale{docs: 5000, vocab: 30000, meanLen: 120}
)

// corpus is the seeded document collection in the two shapes the
// benchmark needs: the generator's own (for the one-shot reference
// index) and the live writer's term-name form (precomputed, so that
// ingest time is the writer's and not the benchmark's conversion).
type corpus struct {
	col   *collection.Collection
	names []string           // term id -> name
	docs  [][]live.TermCount // document i as Writer.Add takes it
}

func newCorpus(sc scale, seed uint64) (*corpus, error) {
	col, err := collection.Generate(collection.Config{
		NumDocs: sc.docs, VocabSize: sc.vocab, MeanDocLen: sc.meanLen, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	c := &corpus{col: col, names: make([]string, col.Lex.Size()), docs: make([][]live.TermCount, len(col.Docs))}
	for i := range c.names {
		c.names[i] = col.Lex.Name(lexicon.TermID(i))
	}
	for i := range col.Docs {
		d := &col.Docs[i]
		terms := make([]live.TermCount, len(d.Terms))
		for j, tf := range d.Terms {
			terms[j] = live.TermCount{Term: c.names[tf.Term], TF: tf.TF}
		}
		c.docs[i] = terms
	}
	return c, nil
}

// postingsOf counts the postings document i contributes.
func (c *corpus) postingsOf(i int) int64 { return int64(len(c.docs[i])) }

// query is one distinct request: the generator's form for the
// reference engines, the term names for in-process live searches, and
// the ready-made HTTP request so the client loop formats nothing.
type query struct {
	q       collection.Query
	terms   []string
	body    []byte // JSON request body
	request []byte // full HTTP/1.1 request, headers and body, without trace headers
}

// queryShape is what a workload asks of its query pool.
type queryShape struct {
	distinct           int
	minTerms, maxTerms int
	maxDocFreqFrac     float64
	zipfS              float64 // 0 draws uniformly; > 0 draws Zipf(s) over the pool
}

// makeQueries builds the pool of distinct queries of a workload.
func (c *corpus) makeQueries(shape queryShape, seed uint64) ([]query, error) {
	// A seed document whose every term is above the frequency cap yields
	// an empty query: generate some spare and keep the non-empty ones.
	qs, err := collection.GenerateQueries(c.col, collection.QueryConfig{
		NumQueries: shape.distinct + shape.distinct/4, MinTerms: shape.minTerms, MaxTerms: shape.maxTerms,
		MaxDocFreqFrac: shape.maxDocFreqFrac, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]query, 0, shape.distinct)
	for _, q := range qs {
		if len(q.Terms) == 0 || len(out) == shape.distinct {
			continue
		}
		terms := make([]string, len(q.Terms))
		for j, id := range q.Terms {
			terms[j] = c.names[id]
		}
		body, err := json.Marshal(struct {
			Terms []string `json:"terms"`
			N     int      `json:"n"`
		}{terms, topN})
		if err != nil {
			return nil, err
		}
		out = append(out, query{q: q, terms: terms, body: body, request: httpRequest(body, "")})
	}
	if len(out) < shape.distinct {
		return nil, fmt.Errorf("only %d of %d queries have a term under df cap %v", len(out), shape.distinct, shape.maxDocFreqFrac)
	}
	return out, nil
}

// httpRequest frames body as a keep-alive POST /search. A non-empty
// trace is sent as the header the traced pass's middleware reads.
func httpRequest(body []byte, trace string) []byte {
	var b bytes.Buffer
	b.WriteString("POST /search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: ")
	b.WriteString(strconv.Itoa(len(body)))
	if trace != "" {
		b.WriteString("\r\n" + traceHeader + ": " + trace)
	}
	b.WriteString("\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// drawer yields the query indices one client sends, in order. Each
// client owns one, seeded from the run seed and the client number, so
// the request stream is a function of the seed alone.
type drawer struct {
	rng  *xrand.RNG
	n    int
	dist *zipf.Dist // nil draws uniformly
}

func newDrawer(shape queryShape, pool int, seed uint64) (*drawer, error) {
	d := &drawer{rng: xrand.New(seed), n: pool}
	if shape.zipfS > 0 {
		dist, err := zipf.New(pool, shape.zipfS, 0)
		if err != nil {
			return nil, err
		}
		d.dist = dist
	}
	return d, nil
}

func (d *drawer) next() int {
	if d.dist != nil {
		return d.dist.Sample(d.rng) - 1
	}
	return d.rng.Intn(d.n)
}

// writeKind is one operation of the ingest-mix script.
type writeKind uint8

const (
	opAdd writeKind = iota
	opDelete
	opUpdate
)

// writeOp is one scripted write. For opAdd, doc is the corpus document
// to add. For opDelete and opUpdate, victim indexes the writer's list
// of alive ids at the time the operation runs (the list evolves the
// same way on every run, so the choice is reproducible without knowing
// the ids beforehand).
type writeOp struct {
	kind   writeKind
	doc    int
	victim int
}

// The ingest-mix script deletes a document after every deleteEvery-th
// add and updates one after every updateEvery-th: 300 adds to 2 deletes
// to 1 update. Deletes and updates are kept this rare because each one
// of a sealed document is an fsynced commit of 3 to 5 ms under the
// mutex every search takes, and its length is the host's load, not the
// program's: once more than one request in a few hundred meets a
// commit, the readers' p99 and rate are that length and repeat no
// better than it does (README.md, "The four workloads").
const (
	deleteEvery = 150
	updateEvery = 300
)

// scriptAdds is the number of adds in a script of about ops operations.
func scriptAdds(ops float64) int {
	return int(ops * updateEvery / (updateEvery + updateEvery/deleteEvery + 1))
}

// makeWriteScript lays out the fixed ingest-mix script: adds corpus
// documents are added in order starting at first (wrapping at total),
// and the deletes and updates among them hit a seeded choice of the
// documents alive at that point. alive0 is the number of documents
// alive before the script starts.
func makeWriteScript(first, total, adds, alive0 int, seed uint64) []writeOp {
	rng := xrand.New(seed)
	ops := make([]writeOp, 0, adds+adds/deleteEvery+adds/updateEvery)
	alive := alive0
	for n := 1; n <= adds; n++ {
		ops = append(ops, writeOp{kind: opAdd, doc: (first + n - 1) % total})
		alive++
		if n%deleteEvery == 0 {
			ops = append(ops, writeOp{kind: opDelete, victim: rng.Intn(alive)})
			alive--
		}
		if n%updateEvery == 0 {
			// An update tombstones the victim and re-adds its content
			// under a fresh id: the alive count does not change.
			ops = append(ops, writeOp{kind: opUpdate, victim: rng.Intn(alive)})
		}
	}
	return ops
}
