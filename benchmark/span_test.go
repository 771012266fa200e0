package main

import "testing"

func TestSelfTimeSubtractsNestedChildrenOnce(t *testing.T) {
	// root [0,100] -> a [10,60] -> b [20,30]; root also -> c [70,90].
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 100 - 50 - 20, 2: 50 - 10, 3: 10, 4: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenByTheirUnion(t *testing.T) {
	// Parallel legs under one parent: [10,50] and [30,80] cover [10,80];
	// a third, [40,45], lies inside both. A child sticking out of the
	// parent ([90,130]) is clipped to it.
	spans := []span{
		{ID: 1, Name: "fanout", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "leg", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "leg", Start: 30, End: 80},
		{ID: 4, Parent: 1, Name: "leg", Start: 40, End: 45},
		{ID: 5, Parent: 1, Name: "leg", Start: 90, End: 130},
	}
	if got, want := selfTimes(spans)[1], int64(100-70-10); got != want {
		t.Errorf("self time under overlapping children = %d, want %d", got, want)
	}
	sum := summarize(spans)
	if s := sum["leg"]; s == nil || s.count != 4 || s.totalNS != 40+50+5+40 || s.maxNS != 50 {
		t.Errorf("summary of legs = %+v", sum["leg"])
	}
	if s := sum["fanout"]; s == nil || s.selfNS != 20 {
		t.Errorf("summary of fanout = %+v", sum["fanout"])
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("a nil tracer recorded something")
	}
	on := newTracer()
	a := on.start("a", 0, 7)
	b := on.start("b", a, 7)
	on.end(b)
	on.end(a)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}
