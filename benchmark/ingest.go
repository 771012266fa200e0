package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/live"
)

// writeRate is the pace of the ingest-mix writer in script operations
// per second. The script is fixed work (so the write-side counts
// repeat) and the pace spreads it over the window the driver asked for
// (so the run length does not depend on how fast writes are); a writer
// that cannot keep the pace falls behind and the run grows, which the
// output then says. At this pace a 20 s window adds 11 900 documents to
// the 12 000 the set-up ingested, through 23 seals and the tiered merges
// they trigger: the readers search twice as many postings at the end of
// the window as at its start.
const writeRate = 600

// writerState is the writer goroutine's view of which documents are
// alive, kept so deletes and updates hit real ids and so the survivors
// can be rebuilt one-shot afterwards.
type writerState struct {
	aliveIDs []uint32
	content  map[uint32]int // live id -> corpus document
}

// newWriterState describes an index into which corpus documents
// 0..n-1 were ingested once, in order: ids coincide with positions.
func newWriterState(n int) *writerState {
	st := &writerState{aliveIDs: make([]uint32, n), content: make(map[uint32]int, 2*n)}
	for i := range st.aliveIDs {
		st.aliveIDs[i] = uint32(i)
		st.content[uint32(i)] = i
	}
	return st
}

// sortedAlive returns the alive ids in arrival order.
func (st *writerState) sortedAlive() []uint32 {
	ids := append([]uint32(nil), st.aliveIDs...)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// alivePostings counts the postings of the alive documents.
func (st *writerState) alivePostings(c *corpus) int64 {
	var n int64
	for _, id := range st.aliveIDs {
		n += c.postingsOf(st.content[id])
	}
	return n
}

// take removes and returns the alive id at position victim.
func (st *writerState) take(victim int) uint32 {
	id := st.aliveIDs[victim]
	last := len(st.aliveIDs) - 1
	st.aliveIDs[victim] = st.aliveIDs[last]
	st.aliveIDs = st.aliveIDs[:last]
	return id
}

// writeResult is the write side of an ingest-mix run.
type writeResult struct {
	ops     int
	perKind [3]struct { // indexed by writeKind
		n    int
		busy time.Duration
	}
	busy     time.Duration // time inside Add/Delete/Update/Flush/WaitMergeIdle
	wall     time.Duration // first operation to merges idle
	maxStall time.Duration // slowest single Add
	flush    time.Duration // the closing Flush
	quiesce  time.Duration // the closing WaitMergeIdle
	lateness time.Duration // how far behind its pace the writer finished
}

// runWriter performs script against w at writeRate, then seals what is
// buffered and waits for the background merger to go idle. Every call
// into the writer is a span under one "live.ingest" root when tr is
// set.
func runWriter(w *live.Writer, c *corpus, st *writerState, script []writeOp, tr *tracer) (writeResult, error) {
	var res writeResult
	interval := time.Second / writeRate
	begin := time.Now()
	root := tr.start("live.ingest", 0, 0)
	defer tr.end(root)
	for i, op := range script {
		due := begin.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		var err error
		switch op.kind {
		case opAdd:
			sp := tr.start("live.add", root, 0)
			var id uint32
			id, err = w.Add(c.docs[op.doc])
			tr.end(sp)
			st.aliveIDs = append(st.aliveIDs, id)
			st.content[id] = op.doc
			res.maxStall = max(res.maxStall, time.Since(t0))
		case opDelete:
			id := st.take(op.victim)
			delete(st.content, id)
			sp := tr.start("live.delete", root, 0)
			err = w.Delete(id)
			tr.end(sp)
		case opUpdate:
			id := st.take(op.victim)
			doc := st.content[id]
			delete(st.content, id)
			sp := tr.start("live.update", root, 0)
			var nid uint32
			nid, err = w.Update(id, c.docs[doc])
			tr.end(sp)
			st.aliveIDs = append(st.aliveIDs, nid)
			st.content[nid] = doc
		}
		if err != nil {
			return res, fmt.Errorf("write script operation %d: %w", i, err)
		}
		d := time.Since(t0)
		res.busy += d
		res.perKind[op.kind].n++
		res.perKind[op.kind].busy += d
		res.ops++
	}
	res.lateness = max(0, time.Since(begin)-time.Duration(len(script))*interval)
	t0 := time.Now()
	sp := tr.start("live.flush", root, 0)
	err := w.Flush()
	tr.end(sp)
	if err != nil {
		return res, err
	}
	res.flush = time.Since(t0)
	t1 := time.Now()
	sp = tr.start("live.merge", root, 0)
	w.WaitMergeIdle()
	tr.end(sp)
	res.quiesce = time.Since(t1)
	res.busy += res.flush + res.quiesce
	res.wall = time.Since(begin)
	return res, w.Err()
}

// meanUS is the mean time of one operation of kind k in microseconds.
func (r writeResult) meanUS(k writeKind) float64 {
	if r.perKind[k].n == 0 {
		return 0
	}
	return float64(r.perKind[k].busy) / 1e3 / float64(r.perKind[k].n)
}
