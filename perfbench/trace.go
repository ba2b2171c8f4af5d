package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Group ties together the spans of
// one request or conversation; Parent is the index of the enclosing
// span in the tracer, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Group  int64         `json:"group"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans and work counts in memory; nothing is written until
// the run ends, so recording costs two clock reads and an append. A
// tracer is used from one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, group int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0) }

// do runs fn inside a span.
func (t *tracer) do(name string, group int64, parent int, fn func()) {
	i := t.begin(name, group, parent)
	fn()
	t.end(i)
}

// count adds n to a work counter recorded at a layer boundary.
func (t *tracer) count(name string, n int64) { t.counts[name] += n }

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children (the union of their intervals clipped
// to the parent, so overlapping children are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := selfTimes(t.spans)
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// write dumps the spans (one JSON object per line, with self time) and
// the counts to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[i]}); err != nil {
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}

// sortedKeys returns the keys of a count map in order.
func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
