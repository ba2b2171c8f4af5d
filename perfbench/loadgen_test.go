package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled response must be charged to the requests queued behind it:
// with one connection at 100 requests/s, a 100 ms stall on request 3
// delays requests 4.. until the stall ends, and their latency, timed
// from when each was due, includes that wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	res := openLoop(100, 30, 1, func(i int) error {
		if i == 3 {
			time.Sleep(stall)
		}
		return nil
	})
	// Request 3 is due at 30 ms and finishes at ~130 ms; request 4 was
	// due at 40 ms, so it waited ~90 ms before it could be sent.
	if res.lag[4] < 80*time.Millisecond || res.latency[4] < 80*time.Millisecond {
		t.Errorf("request 4: lag %v latency %v, want both ≥ 80ms", res.lag[4], res.latency[4])
	}
	if res.latency[8] < 40*time.Millisecond {
		t.Errorf("request 8 (due 80 ms): latency %v, want ≥ 40ms", res.latency[8])
	}
	if res.latency[3] < stall {
		t.Errorf("stalled request latency %v < stall", res.latency[3])
	}
	// The backlog drains at once, so requests due well after the stall
	// are on time again.
	if res.latency[29] > 20*time.Millisecond {
		t.Errorf("request 29 (due 290 ms): latency %v, want on time", res.latency[29])
	}
	if res.lag[0] > 20*time.Millisecond {
		t.Errorf("first request sent %v late", res.lag[0])
	}
}

// Requests are sent on schedule, not as fast as possible.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	start := time.Now()
	openLoop(200, 20, 2, func(int) error { return nil })
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Errorf("20 requests at 200/s took %v, want ≥ 90ms", d)
	}
}

func TestClosedLoopRunsUntilDeadline(t *testing.T) {
	var n atomic.Int64
	seen := make([]atomic.Bool, 10_000)
	d := closedLoop(2, 30*time.Millisecond, func(seq int) {
		if seen[seq].Swap(true) {
			t.Errorf("sequence number %d handed out twice", seq)
		}
		n.Add(1)
		time.Sleep(time.Millisecond)
	})
	if d < 30*time.Millisecond || n.Load() < 10 {
		t.Errorf("closed loop ran %v with %d ops", d, n.Load())
	}
}

func TestTally(t *testing.T) {
	tl := newTally()
	tl.add("open", "batch", nil)
	tl.add("open", "batch", errTest)
	tl.add("closed", "batch", nil)
	if a, f := tl.totals(); a != 3 || f != 1 {
		t.Errorf("totals = %d attempted, %d failed", a, f)
	}
	lines := tl.lines()
	if len(lines) != 2 || lines[1] != "ops phase=open class=batch attempted=2 ok=1 failed=1" {
		t.Errorf("lines = %q", lines)
	}
}

var errTest = errors.New("test")
