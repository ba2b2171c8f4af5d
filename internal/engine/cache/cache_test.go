package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dag"
	"repro/internal/fixture"
)

// buildGraph returns a small fork-join DAG whose shape depends on n, so
// tests can mint arbitrarily many distinct graphs.
func buildGraph(n int64) *dag.Graph {
	var b dag.Builder
	src := b.AddNode(n + 1)
	a := b.AddNode(n + 2)
	c := b.AddNode(2*n + 1)
	sink := b.AddNode(1)
	b.AddEdge(src, a)
	b.AddEdge(src, c)
	b.AddEdge(a, sink)
	b.AddEdge(c, sink)
	return b.MustBuild()
}

// keyIn returns a distinct key pinned to a chosen shard: the shard index
// is fp[0] mod numShards, so tests can exercise one shard's bound and
// sweep deterministically.
func keyIn(shard, id int) key {
	var k key
	k.fp[0] = byte(shard)
	k.fp[1] = byte(id)
	k.fp[2] = byte(id >> 8)
	k.m = 4
	return k
}

func TestCanonicalContentAddressing(t *testing.T) {
	g1 := buildGraph(3)
	g2 := buildGraph(3) // structurally identical, distinct allocation
	g3 := buildGraph(4)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Error("identical graphs should share a key")
	}
	if g1.Fingerprint() == g3.Fingerprint() {
		t.Error("different WCETs should change the key")
	}
	// Same nodes, different edges.
	var b dag.Builder
	for v := 0; v < g1.N(); v++ {
		b.AddNode(g1.WCET(v))
	}
	b.AddEdge(0, 3)
	chain := b.MustBuild()
	if g1.Fingerprint() == chain.Fingerprint() {
		t.Error("different edges should change the key")
	}
}

func TestMuTableMatchesBlockingAndHits(t *testing.T) {
	c := New(64)
	for _, g := range fixture.LowerPriorityGraphs() {
		// The reference solves on a clone: blocking.Mu memoizes on its
		// graph, and the miss below must solve, not read that memo.
		want := blocking.Mu(g.Clone(), fixture.M, blocking.Combinatorial)
		got := c.MuTable(g, fixture.M, blocking.Combinatorial)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("µ mismatch: got %v want %v", got, want)
		}
	}
	before := c.Stats()
	if before.Hits != 0 || before.Misses != 4 {
		t.Fatalf("expected 0 hits / 4 misses after first pass, got %+v", before)
	}
	// Structurally identical clones must hit, not miss.
	for _, g := range fixture.LowerPriorityGraphs() {
		c.MuTable(g.Clone(), fixture.M, blocking.Combinatorial)
	}
	after := c.Stats()
	if after.Hits != 4 || after.Misses != 4 {
		t.Fatalf("expected 4 hits / 4 misses after clone pass, got %+v", after)
	}
	if after.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", after.HitRate())
	}
}

// TestMuTableKeySplitsOnParams pins that the analysis parameters are
// part of the key: the same graph at a different core count or solver
// backend must not share an entry.
func TestMuTableKeySplitsOnParams(t *testing.T) {
	c := New(64)
	g := fixture.Tau2()
	c.MuTable(g, 2, blocking.Combinatorial)
	c.MuTable(g, 4, blocking.Combinatorial)
	c.MuTable(g, 4, blocking.PaperILP)
	if s := c.Stats(); s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 distinct misses", s)
	}
	a := c.MuTable(g, 4, blocking.Combinatorial)
	b := c.MuTable(g, 4, blocking.PaperILP)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("backends disagree on µ: %v vs %v", a, b)
	}
}

// TestCacheHitZeroAlloc pins the tentpole contract: serving a
// materialized µ table allocates nothing — no key serialization, no
// boxing, no LRU bookkeeping, no channel receive. This is what makes a
// hit strictly cheaper than recompute.
func TestCacheHitZeroAlloc(t *testing.T) {
	c := New(64)
	g := fixture.Tau1()
	c.MuTable(g, fixture.M, blocking.Combinatorial) // materialize
	var sink []int64
	allocs := testing.AllocsPerRun(1000, func() {
		sink = c.MuTable(g, fixture.M, blocking.Combinatorial)
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if len(sink) == 0 {
		t.Fatal("hit returned empty table")
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := New(64)
	g := fixture.Tau1()
	c.MuTable(g, fixture.M, blocking.Combinatorial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MuTable(g, fixture.M, blocking.Combinatorial)
	}
}

// TestSingleflightWaits verifies concurrent requests for one missing
// key compute once, and that the accounting is honest: the goroutines
// that blocked on the in-flight entry are waits, not hits — they paid
// the full compute latency, so counting them as hits would inflate the
// hit ratio exactly when the cache is slow.
func TestSingleflightWaits(t *testing.T) {
	c := New(16)
	const n = 8
	k := keyIn(0, 1)
	var computes int
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]int64, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = c.get(k, func() []int64 {
			computes++ // safe: only one goroutine may run this
			close(computing)
			<-release
			return []int64{42}
		})
	}()
	<-computing // the in-flight entry exists; everyone else must wait
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.get(k, func() []int64 {
				t.Error("waiter ran the compute")
				return nil
			})
		}(i)
	}
	// Wait until every waiter is counted before releasing the compute.
	for c.Stats().Waits != n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for i, r := range results {
		if len(r) != 1 || r[0] != 42 {
			t.Fatalf("goroutine %d got %v, want [42]", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Waits != n-1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / %d waits / 0 hits", s, n-1)
	}
	// A lookup after materialization is the genuine hit.
	c.get(k, func() []int64 { t.Error("hit ran the compute"); return nil })
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit after materialization", s)
	}
}

// TestPanicPoisoning is the regression test for the waiter-poisoning
// bug: a panicking compute used to close the ready channel with a nil
// value, so blocked waiters woke into a confusing secondary failure on
// unrelated goroutines. Now the entry is poisoned with the original
// cause — the computer and every waiter re-panic with it — and the key
// is dropped so a later lookup recomputes cleanly.
func TestPanicPoisoning(t *testing.T) {
	c := New(16)
	const waiters = 4
	k := keyIn(0, 2)
	cause := fmt.Errorf("ilp backend rejected the model")
	computing := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recovered <- recover() }()
		c.get(k, func() []int64 {
			close(computing)
			<-release
			panic(cause)
		})
	}()
	<-computing
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recovered <- recover() }()
			c.get(k, func() []int64 {
				t.Error("waiter ran the compute")
				return nil
			})
		}()
	}
	for c.Stats().Waits != waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(recovered)
	got := 0
	for r := range recovered {
		got++
		if r != cause {
			t.Errorf("goroutine panicked with %v, want the original cause", r)
		}
	}
	if got != waiters+1 {
		t.Fatalf("%d goroutines panicked, want %d", got, waiters+1)
	}
	// The poisoned entry must be gone: no phantom materialized entry,
	// and the next lookup recomputes successfully.
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("stats = %+v, want 0 entries after poisoned compute", s)
	}
	v := c.get(k, func() []int64 { return []int64{7} })
	if len(v) != 1 || v[0] != 7 {
		t.Fatalf("recompute after poisoning returned %v, want [7]", v)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 entry after recompute", s)
	}
}

// TestEntriesExcludeInFlight pins the gauge invariant: Stats.Entries
// counts materialized values only, so it can never transiently exceed
// the bound while concurrent misses are mid-compute (the old
// count-at-insertion scheme could).
func TestEntriesExcludeInFlight(t *testing.T) {
	c := New(numShards) // one materialized entry per shard
	const inflight = 6
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.get(keyIn(i, 100+i), func() []int64 {
				started.Done()
				<-release
				return []int64{int64(i)}
			})
		}(i)
	}
	started.Wait() // all six computes are in flight
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("entries = %d with only in-flight computes, want 0", s.Entries)
	}
	close(release)
	wg.Wait()
	s := c.Stats()
	if s.Entries != inflight {
		t.Errorf("entries = %d after materialization, want %d", s.Entries, inflight)
	}
	if s.Entries > c.Cap() {
		t.Errorf("entries %d exceeds Cap %d", s.Entries, c.Cap())
	}
}

// TestSecondChanceEviction pins the eviction policy on one shard:
// inserting past the shard bound sweeps, and an entry referenced since
// the last sweep survives the round while unreferenced ones are
// evicted. No hit ever mutates shared eviction state — only its
// entry's reference bit.
func TestSecondChanceEviction(t *testing.T) {
	c := New(2 * numShards) // perShard = 2
	mk := func(id int) key { return keyIn(3, id) }
	val := func(id int) func() []int64 { return func() []int64 { return []int64{int64(id)} } }
	c.get(mk(1), val(1))
	c.get(mk(2), val(2))
	c.get(mk(1), val(1)) // hit: marks 1's reference bit
	c.get(mk(3), val(3)) // over bound → sweep
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
	// The referenced entry survived: looking it up again is a hit.
	c.get(mk(1), func() []int64 { t.Error("referenced entry was evicted"); return nil })
	if got := c.Stats(); got.Hits != s.Hits+1 {
		t.Fatalf("stats = %+v, want a hit on the surviving entry", got)
	}
}

// TestConcurrentHammer drives MuTable from many goroutines over a small
// key space with an eviction-prone bound; run with -race this is the
// cache's data-race certification.
func TestConcurrentHammer(t *testing.T) {
	c := New(8)
	graphs := fixture.LowerPriorityGraphs()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g := graphs[(w+i)%len(graphs)]
				c.MuTable(g, fixture.M, blocking.Combinatorial)
				c.MuTable(g, 2, blocking.Combinatorial)
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	for _, g := range graphs {
		want := blocking.Mu(g.Clone(), fixture.M, blocking.Combinatorial)
		got := c.MuTable(g, fixture.M, blocking.Combinatorial)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-hammer µ %v, want %v", got, want)
		}
	}
}

// TestConcurrentStatsScrape hammers lookups while dedicated goroutines
// scrape Stats() in a tight loop — the /metrics-under-load shape. With
// the counters on atomics the scrape never takes a shard lock; -race
// certifies the combination, and the final snapshot must balance:
// monotone counters, hits+misses+waits equal to the lookups issued, and
// the materialized-entry count within the capacity bound.
func TestConcurrentStatsScrape(t *testing.T) {
	c := New(8)
	graphs := fixture.LowerPriorityGraphs()
	const workers, iters = 8, 200
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var prev Stats
			for {
				select {
				case <-stop:
					return
				default:
					got := c.Stats()
					if got.Hits < prev.Hits || got.Misses < prev.Misses ||
						got.Waits < prev.Waits || got.Evictions < prev.Evictions {
						t.Errorf("counters went backwards: %+v after %+v", got, prev)
						return
					}
					prev = got
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := graphs[(w+i)%len(graphs)]
				c.MuTable(g, fixture.M, blocking.Combinatorial)
				c.MuTable(g, 2, blocking.Combinatorial)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	s := c.Stats()
	if got, want := s.Hits+s.Misses+s.Waits, uint64(workers*iters*2); got != want {
		t.Errorf("hits+misses+waits = %d, want %d lookups", got, want)
	}
	if s.Entries < 0 || s.Entries > c.Cap() {
		t.Errorf("entries = %d, want within capacity %d", s.Entries, c.Cap())
	}
}
