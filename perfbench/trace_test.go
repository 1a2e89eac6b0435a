package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (40 + 10), // [10,50) ∪ [90,100)
		2: 20,
		3: 30 - 10, // only its own child comes off
		4: 30,
		5: 10,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got, want := byName["child"], float64(20+20+30)/1e9; math.Abs(got-want) > 1e-18 {
		t.Errorf("self time of child spans %v s, want %v s", got, want)
	}
}

func TestCoveredHandlesNestedAndDisjointChildren(t *testing.T) {
	kids := []span{
		{Start: 50, End: 60},
		{Start: 10, End: 40},
		{Start: 15, End: 20}, // inside the previous one
		{Start: 200, End: 300},
	}
	if got := covered(0, 100, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id, map[string]float64{"n": 1})
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned id %d and spans %v", id, tr.snapshot())
	}
	tr = newTracer()
	outer := tr.begin("outer", 0, 7)
	inner := tr.begin("inner", outer, 7)
	tr.end(inner, map[string]float64{"events": 3})
	tr.end(outer, nil)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != outer || spans[1].Counts["events"] != 3 || spans[0].End < spans[1].End {
		t.Errorf("recorded spans %+v", spans)
	}
}
