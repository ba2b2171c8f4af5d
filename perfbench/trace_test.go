package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the root
		{Name: "a.1", Parent: 1, Start: 12 * ms, End: 15 * ms},
		{Name: "other", Parent: -1, Start: 0, End: 5 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*ms - 40*ms - 10*ms, // children cover [10,50) and [90,100)
		20*ms - 3*ms,
		30 * ms,
		30 * ms,
		3 * ms,
		5 * ms,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerGroupsAndCounts(t *testing.T) {
	tr := newTracer()
	root := tr.begin("req", 7, -1)
	tr.do("layer", 7, root, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	tr.count("work", 3)
	tr.count("work", 2)
	if tr.spans[1].Group != 7 || tr.spans[1].Parent != root {
		t.Fatalf("child span %+v not tied to its request", tr.spans[1])
	}
	self := tr.selfByName()
	if self["layer"][0] < 2*time.Millisecond || self["req"][0] >= self["layer"][0] {
		t.Errorf("self times req=%v layer=%v", self["req"], self["layer"])
	}
	if tr.counts["work"] != 5 {
		t.Errorf("count = %d, want 5", tr.counts["work"])
	}
	if err := tr.write(t.TempDir() + "/trace.jsonl"); err != nil {
		t.Fatal(err)
	}
}
