package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestSeededGeneratorsRepeat(t *testing.T) {
	sc := scale{docs: 400, vocab: 3000, meanLen: 60}
	shape := queryShape{distinct: 50, minTerms: 2, maxTerms: 4, maxDocFreqFrac: 0.2, zipfS: 1.1}
	gen := func(seed uint64) (requests []byte, draws []int, script []writeOp) {
		c, err := newCorpus(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := c.makeQueries(shape, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			requests = append(requests, q.request...)
		}
		dr, err := newDrawer(shape, len(qs), seed+2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			draws = append(draws, dr.next())
		}
		return requests, draws, makeWriteScript(240, 400, 1500, 240, seed+3)
	}
	r1, d1, s1 := gen(42)
	r2, d2, s2 := gen(42)
	if !bytes.Equal(r1, r2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed gave different queries, draws or write script")
	}
	r3, d3, s3 := gen(7)
	if bytes.Equal(r1, r3) || reflect.DeepEqual(d1, d3) || reflect.DeepEqual(s1, s3) {
		t.Fatal("another seed gave the same inputs")
	}
	for _, i := range d1 {
		if i < 0 || i >= shape.distinct {
			t.Fatalf("draw %d outside the pool", i)
		}
	}
}

func TestWriteScriptMixAndVictims(t *testing.T) {
	script := makeWriteScript(60, 100, 600, 60, 1)
	var n [3]int
	alive := 60
	for _, op := range script {
		n[op.kind]++
		switch op.kind {
		case opAdd:
			if op.doc < 0 || op.doc >= 100 {
				t.Fatalf("add of document %d outside the corpus", op.doc)
			}
			alive++
		case opDelete:
			if op.victim < 0 || op.victim >= alive {
				t.Fatalf("delete victim %d of %d alive", op.victim, alive)
			}
			alive--
		case opUpdate:
			if op.victim < 0 || op.victim >= alive {
				t.Fatalf("update victim %d of %d alive", op.victim, alive)
			}
		}
	}
	if n != [3]int{600, 4, 2} {
		t.Fatalf("mix add/delete/update = %v, want 600/4/2 (300:2:1)", n)
	}
	if got := scriptAdds(606); got != 600 {
		t.Fatalf("scriptAdds(606) = %d, want 600", got)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}
