package cluster

// The coordinator's lease state machine. A campaign's remaining points
// are partitioned into shards (planShards); each shard is
// leased to at most one worker at a time, shrinks as the worker streams
// point results back (Progress), and is either completed or failed and
// requeued with its remaining points. Requeues from genuine failures
// are bounded per shard; a handback (worker started draining) requeues
// without consuming a retry, because the shard did nothing wrong.
//
// The invariants — every point completed exactly once, no shard leased
// by two workers, failure requeues never exceeding the bound — are
// property-checked in lease_test.go over random event sequences.

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Lease is one granted unit of work: the remaining point indices of a
// shard, always in increasing order.
type Lease struct {
	Shard  int
	Points []int
}

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// Tracker is the lease state machine. All methods are safe for
// concurrent use; Next blocks until work is available or the campaign
// is finished or aborted.
type Tracker struct {
	mu         sync.Mutex
	cond       *sync.Cond
	remaining  [][]int // per shard: points not yet streamed back (increasing)
	state      []shardState
	holder     []string
	fails      []int // failure requeues so far, per shard
	maxRetries int
	pending    []int // FIFO of grantable shard ids
	open       int   // shards not yet done
	err        error // terminal failure; set at most once

	// Lease-flow counters, guarded by mu like the rest of the state
	// (nil without Instrument; obs counters are nil-safe, so the
	// transition sites increment unconditionally).
	grants      *obs.Counter
	completions *obs.Counter
	failures    *obs.Counter
	handbacks   *obs.Counter
	requeues    *obs.Counter
	dialRetries *obs.Counter
}

// NewTracker builds the state machine over the given shard point lists.
// A shard that fails more than maxRetries times (i.e. maxRetries
// requeues have already been consumed) terminates the campaign.
func NewTracker(shards [][]int, maxRetries int) *Tracker {
	t := &Tracker{
		remaining:  make([][]int, len(shards)),
		state:      make([]shardState, len(shards)),
		holder:     make([]string, len(shards)),
		fails:      make([]int, len(shards)),
		maxRetries: maxRetries,
		open:       len(shards),
	}
	t.cond = sync.NewCond(&t.mu)
	for i, pts := range shards {
		t.remaining[i] = append([]int(nil), pts...)
		t.pending = append(t.pending, i)
	}
	return t
}

// planShards partitions the point indices pts into at most shards
// stripes: shard s holds pts[s], pts[s+S], pts[s+2S], … Striping
// interleaves the cheap low-utilization points with the expensive
// high-utilization ones, so shards are naturally load-balanced, and the
// stripes of an ascending list are ascending, as the wire requires. The
// result is always a partition: every index appears in exactly one
// shard, and empty shards are dropped.
func planShards(pts []int, shards int) [][]int {
	if len(pts) == 0 {
		return nil
	}
	shards = max(1, min(shards, len(pts)))
	out := make([][]int, shards)
	for s := range out {
		for i := s; i < len(pts); i += shards {
			out[s] = append(out[s], pts[i])
		}
	}
	return out
}

// Instrument publishes the tracker's lease flow in reg (nil = no-op):
// grants, completions, genuine failures, draining handbacks, and
// requeues as lpdag_cluster_lease_* counters, plus the outstanding
// point count as a gauge. Calling it again (a later campaign on the
// same registry) re-resolves the same series, so the counters stay
// cumulative across runs while the gauge follows the newest tracker.
// The counter fields are assigned under t.mu, so instrumenting a
// tracker whose worker loops are already running is safe (though the
// events before the call go uncounted).
func (t *Tracker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	grants := reg.Counter("lpdag_cluster_lease_grants_total",
		"Shard leases granted to workers.")
	completions := reg.Counter("lpdag_cluster_lease_completions_total",
		"Shard leases fully streamed back and retired.")
	failures := reg.Counter("lpdag_cluster_lease_failures_total",
		"Shard leases that died (worker failure, stall, protocol error).")
	handbacks := reg.Counter("lpdag_cluster_lease_handbacks_total",
		"Shard leases returned by draining workers (no retry consumed).")
	requeues := reg.Counter("lpdag_cluster_lease_requeues_total",
		"Shard leases put back on the pending queue for another worker.")
	dialRetries := reg.Counter("lpdag_cluster_dial_retries_total",
		"Worker dispatch/health retries the coordinator backed off before.")
	reg.GaugeFunc("lpdag_cluster_points_outstanding",
		"Points of the current cluster campaign not yet streamed back.",
		func() float64 { return float64(t.Outstanding()) })
	t.mu.Lock()
	t.grants, t.completions, t.failures, t.handbacks, t.requeues =
		grants, completions, failures, handbacks, requeues
	t.dialRetries = dialRetries
	t.mu.Unlock()
}

// DialRetry counts one backed-off retry against an unreachable or
// failing worker (health probe or shard dispatch).
func (t *Tracker) DialRetry() {
	t.mu.Lock()
	t.dialRetries.Inc()
	t.mu.Unlock()
}

// Next blocks until a shard is grantable, then leases it to worker. It
// returns ok=false when the campaign is finished (all shards done) or
// terminally failed/aborted — the worker loop's signal to exit.
func (t *Tracker) Next(worker string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.err != nil || t.open == 0 {
			return Lease{}, false
		}
		if len(t.pending) > 0 {
			return t.grantLocked(worker), true
		}
		t.cond.Wait()
	}
}

// TryGrant is the non-blocking form of Next: ok=false when nothing is
// grantable right now (which includes a finished or failed campaign).
func (t *Tracker) TryGrant(worker string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || len(t.pending) == 0 {
		return Lease{}, false
	}
	return t.grantLocked(worker), true
}

func (t *Tracker) grantLocked(worker string) Lease {
	id := t.pending[0]
	t.pending = t.pending[1:]
	t.state[id] = shardLeased
	t.holder[id] = worker
	t.grants.Inc()
	return Lease{Shard: id, Points: append([]int(nil), t.remaining[id]...)}
}

// checkHeld validates that worker currently holds shard.
func (t *Tracker) checkHeld(shard int, worker string) error {
	if shard < 0 || shard >= len(t.state) {
		return fmt.Errorf("cluster: no shard %d", shard)
	}
	if t.state[shard] != shardLeased {
		return fmt.Errorf("cluster: shard %d is not leased", shard)
	}
	if t.holder[shard] != worker {
		return fmt.Errorf("cluster: shard %d is leased to %q, not %q", shard, t.holder[shard], worker)
	}
	return nil
}

// Progress records that worker streamed back the result of one point of
// its lease; the point leaves the shard's remaining set, so a later
// requeue re-runs only what is still missing.
func (t *Tracker) Progress(shard int, worker string, point int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkHeld(shard, worker); err != nil {
		return err
	}
	rem := t.remaining[shard]
	for i, p := range rem {
		if p == point {
			t.remaining[shard] = append(rem[:i:i], rem[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("cluster: point %d is not outstanding on shard %d", point, shard)
}

// Complete marks a lease finished. It fails if any point of the shard
// was never streamed back — an incomplete stream is a failure, not a
// completion — and in that case leaves the lease in place (the caller
// should Fail it).
func (t *Tracker) Complete(shard int, worker string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkHeld(shard, worker); err != nil {
		return err
	}
	if n := len(t.remaining[shard]); n > 0 {
		return fmt.Errorf("cluster: shard %d completed with %d points missing", shard, n)
	}
	t.retireLocked(shard)
	return nil
}

// retireLocked marks a fully streamed shard done and wakes waiters when
// it was the last one. Caller holds mu.
func (t *Tracker) retireLocked(shard int) {
	t.state[shard] = shardDone
	t.holder[shard] = ""
	t.completions.Inc()
	t.open--
	if t.open == 0 {
		t.cond.Broadcast()
	}
}

// requeueLocked releases a lease back to the pending queue and wakes a
// waiting worker. Caller holds mu.
func (t *Tracker) requeueLocked(shard int) {
	t.state[shard] = shardPending
	t.holder[shard] = ""
	t.pending = append(t.pending, shard)
	t.requeues.Inc()
	t.cond.Broadcast()
}

// Fail releases a lease after a genuine failure (worker death, stall,
// error, protocol violation) and requeues the shard's remaining points,
// consuming one retry. Exceeding the retry bound terminally fails the
// campaign. A shard whose points all arrived before the stream broke
// has nothing left to redo and completes instead.
func (t *Tracker) Fail(shard int, worker string, cause error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkHeld(shard, worker); err != nil {
		return err
	}
	t.failures.Inc()
	if len(t.remaining[shard]) == 0 {
		t.retireLocked(shard)
		return nil
	}
	t.fails[shard]++
	if t.fails[shard] > t.maxRetries {
		t.failLocked(fmt.Errorf("cluster: shard %d failed %d times, retries exhausted: last cause: %w",
			shard, t.fails[shard], cause))
		return nil
	}
	t.requeueLocked(shard)
	return nil
}

// Handback releases a lease without consuming a retry: the worker is
// stopping (draining) and the shard is requeued untouched for someone
// else. Like Fail, a fully streamed shard completes instead.
func (t *Tracker) Handback(shard int, worker string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkHeld(shard, worker); err != nil {
		return err
	}
	t.handbacks.Inc()
	if len(t.remaining[shard]) == 0 {
		t.retireLocked(shard)
		return nil
	}
	t.requeueLocked(shard)
	return nil
}

// Abort terminally fails the campaign (context cancellation, all
// workers lost); blocked Next calls return false.
func (t *Tracker) Abort(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil && t.open > 0 {
		t.failLocked(err)
	}
}

func (t *Tracker) failLocked(err error) {
	if t.err == nil {
		t.err = err
	}
	t.cond.Broadcast()
}

// Done reports whether every shard completed.
func (t *Tracker) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open == 0
}

// Err returns the terminal failure, if any.
func (t *Tracker) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Outstanding returns the number of points not yet streamed back across
// all shards (for error reporting).
func (t *Tracker) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, rem := range t.remaining {
		n += len(rem)
	}
	return n
}
