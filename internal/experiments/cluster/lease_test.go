package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLeaseTrackerQuick drives the lease state machine with random
// sequences of grant / progress / complete / fail (timeout) / handback
// events and checks the cluster safety invariants after every step:
//
//   - no shard is ever leased to two workers at once;
//   - every point is streamed back (Progress) exactly once, ever —
//     including across requeues of its shard;
//   - failure requeues per shard never exceed the retry bound, and
//     exceeding it terminally fails the campaign;
//   - when the tracker reports Done, every shard completed and every
//     point was streamed exactly once.
func TestLeaseTrackerQuick(t *testing.T) {
	type scenario struct {
		Seed       int64
		SizeBytes  []uint8
		RetryByte  uint8
		WorkerByte uint8
	}
	check := func(s scenario) bool {
		rng := rand.New(rand.NewSource(s.Seed))
		// 1..6 shards of 1..4 points, globally unique increasing indices.
		nshards := len(s.SizeBytes)%6 + 1
		maxRetries := int(s.RetryByte)%3 + 1
		nworkers := int(s.WorkerByte)%3 + 1
		var shards [][]int
		next := 0
		for i := 0; i < nshards; i++ {
			size := 1
			if i < len(s.SizeBytes) {
				size = int(s.SizeBytes[i])%4 + 1
			}
			var pts []int
			for j := 0; j < size; j++ {
				pts = append(pts, next)
				next++
			}
			shards = append(shards, pts)
		}
		tr := NewTracker(shards, maxRetries)

		type leaseModel struct {
			worker    string
			remaining map[int]bool
		}
		active := map[int]*leaseModel{} // shard -> live lease
		doneShards := map[int]bool{}
		progressed := map[int]int{} // point -> times streamed
		failsUsed := map[int]int{}  // shard -> consumed retries
		workers := make([]string, nworkers)
		for i := range workers {
			workers[i] = fmt.Sprintf("w%d", i)
		}

		finishLease := func(shard int) { delete(active, shard) }

		for step := 0; step < 200; step++ {
			if tr.Err() != nil || tr.Done() {
				break
			}
			switch op := rng.Intn(10); {
			case op < 4 || len(active) == 0: // grant
				w := workers[rng.Intn(nworkers)]
				lease, ok := tr.TryGrant(w)
				if !ok {
					continue
				}
				if active[lease.Shard] != nil {
					t.Errorf("shard %d granted to %q while leased to %q",
						lease.Shard, w, active[lease.Shard].worker)
					return false
				}
				if doneShards[lease.Shard] {
					t.Errorf("shard %d granted after completion", lease.Shard)
					return false
				}
				lm := &leaseModel{worker: w, remaining: map[int]bool{}}
				for i, p := range lease.Points {
					if i > 0 && lease.Points[i-1] >= p {
						t.Errorf("lease points not increasing: %v", lease.Points)
						return false
					}
					if progressed[p] > 0 {
						t.Errorf("point %d re-leased after being streamed", p)
						return false
					}
					lm.remaining[p] = true
				}
				active[lease.Shard] = lm
			default: // act on a random live lease
				var ids []int
				for id := range active {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				lm := active[id]
				switch act := rng.Intn(4); {
				case act == 0 && len(lm.remaining) > 0: // progress one point
					var p int
					for q := range lm.remaining {
						p = q
						break
					}
					if err := tr.Progress(id, lm.worker, p); err != nil {
						t.Errorf("Progress(%d, %q, %d): %v", id, lm.worker, p, err)
						return false
					}
					delete(lm.remaining, p)
					progressed[p]++
					if progressed[p] > 1 {
						t.Errorf("point %d streamed %d times", p, progressed[p])
						return false
					}
				case act == 1: // complete
					err := tr.Complete(id, lm.worker)
					if len(lm.remaining) == 0 {
						if err != nil {
							t.Errorf("Complete with all points streamed: %v", err)
							return false
						}
						doneShards[id] = true
						finishLease(id)
					} else if err == nil {
						t.Errorf("Complete accepted with %d points missing", len(lm.remaining))
						return false
					}
				case act == 2: // fail (timeout / error / stall)
					if err := tr.Fail(id, lm.worker, fmt.Errorf("injected")); err != nil {
						t.Errorf("Fail: %v", err)
						return false
					}
					if len(lm.remaining) == 0 {
						doneShards[id] = true // nothing left: counts as done
					} else {
						failsUsed[id]++
						if failsUsed[id] > maxRetries && tr.Err() == nil {
							t.Errorf("shard %d consumed %d retries (bound %d) without terminal failure",
								id, failsUsed[id], maxRetries)
							return false
						}
					}
					finishLease(id)
				default: // handback (draining worker); never consumes a retry
					if err := tr.Handback(id, lm.worker); err != nil {
						t.Errorf("Handback: %v", err)
						return false
					}
					if len(lm.remaining) == 0 {
						doneShards[id] = true
					}
					finishLease(id)
				}
			}

			// Cross-worker safety: a foreign worker can never act on a
			// live lease.
			for id, lm := range active {
				other := lm.worker + "-imposter"
				if err := tr.Complete(id, other); err == nil {
					t.Errorf("imposter completed shard %d", id)
					return false
				}
			}
		}

		if tr.Done() {
			if len(doneShards) != nshards {
				t.Errorf("tracker done with %d/%d shards completed", len(doneShards), nshards)
				return false
			}
			for p := 0; p < next; p++ {
				if progressed[p] != 1 {
					t.Errorf("campaign done but point %d streamed %d times", p, progressed[p])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseTrackerRetryExhaustion pins the terminal-failure path: a
// shard that keeps failing consumes the bound and kills the campaign
// with a descriptive error, after which nothing is grantable.
func TestLeaseTrackerRetryExhaustion(t *testing.T) {
	tr := NewTracker([][]int{{0, 1}}, 2)
	for i := 0; i < 3; i++ {
		lease, ok := tr.TryGrant("w")
		if !ok {
			t.Fatalf("grant %d refused", i)
		}
		if err := tr.Fail(lease.Shard, "w", fmt.Errorf("boom")); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Err() == nil {
		t.Fatal("three failures with bound 2 should terminally fail")
	}
	if _, ok := tr.TryGrant("w"); ok {
		t.Error("grant after terminal failure")
	}
	if _, ok := tr.Next("w"); ok {
		t.Error("Next should return false after terminal failure")
	}
}

// TestLeaseTrackerPartialRequeue pins the resume-like failover: points
// streamed before a failure stay completed, and the requeued lease
// carries only what is missing.
func TestLeaseTrackerPartialRequeue(t *testing.T) {
	tr := NewTracker([][]int{{3, 5, 9}}, 3)
	lease, _ := tr.TryGrant("w1")
	if err := tr.Progress(lease.Shard, "w1", 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Fail(lease.Shard, "w1", fmt.Errorf("died")); err != nil {
		t.Fatal(err)
	}
	lease2, ok := tr.TryGrant("w2")
	if !ok {
		t.Fatal("requeued shard not grantable")
	}
	if got, want := fmt.Sprint(lease2.Points), "[3 9]"; got != want {
		t.Fatalf("requeued lease points %v, want %v", got, want)
	}
	for _, p := range lease2.Points {
		if err := tr.Progress(lease2.Shard, "w2", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Complete(lease2.Shard, "w2"); err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Error("all points streamed: tracker should be done")
	}
}

// stripePoints returns n strictly increasing point indices unequal to
// their positions, so a plan that mixes the two up shows.
func stripePoints(n int) []int {
	pts := make([]int, n)
	for i := range pts {
		pts[i] = 3*i + 1
	}
	return pts
}

// TestPlanShardsIsPartition: for arbitrary (points, shards), planShards
// yields a partition of the point list — every index in exactly one
// shard, each shard ascending, no shard empty, shard count
// min(shards, points) clamped to at least one.
func TestPlanShardsIsPartition(t *testing.T) {
	f := func(pointsRaw uint16, shardsRaw int8) bool {
		points := int(pointsRaw % 600)
		shards := int(shardsRaw) // may be negative or zero: planner clamps
		pts := stripePoints(points)
		plan := planShards(pts, shards)
		if points == 0 {
			return plan == nil
		}
		wantShards := shards
		if wantShards < 1 {
			wantShards = 1
		}
		if wantShards > points {
			wantShards = points
		}
		if len(plan) != wantShards {
			return false
		}
		seen := make(map[int]int, points)
		for _, shard := range plan {
			if len(shard) == 0 {
				return false
			}
			for k, idx := range shard {
				if k > 0 && idx <= shard[k-1] {
					return false
				}
				seen[idx]++
			}
		}
		if len(seen) != points {
			return false
		}
		for _, idx := range pts {
			if seen[idx] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanShardsBalanced: stripe sizes differ by at most one.
func TestPlanShardsBalanced(t *testing.T) {
	f := func(pointsRaw uint16, shardsRaw uint8) bool {
		points := int(pointsRaw%600) + 1
		shards := int(shardsRaw%32) + 1
		plan := planShards(stripePoints(points), shards)
		min, max := points, 0
		for _, shard := range plan {
			if len(shard) < min {
				min = len(shard)
			}
			if len(shard) > max {
				max = len(shard)
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanShardsEdgeCases(t *testing.T) {
	if got := planShards(nil, 4); got != nil {
		t.Errorf("planShards(nil, 4) = %v, want nil", got)
	}
	if got := planShards(stripePoints(3), 0); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("planShards(3 points, 0) = %v, want one shard of 3", got)
	}
	if got := planShards(stripePoints(3), 10); len(got) != 3 {
		t.Errorf("planShards(3 points, 10) has %d shards, want 3", len(got))
	}
}
