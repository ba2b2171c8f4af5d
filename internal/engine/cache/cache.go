// Package cache is a content-addressed memo store for the one derived
// quantity of the limited-preemption analysis that is genuinely more
// expensive to recompute than to look up: the per-graph µ[c] worst-case
// workload tables of Equation (6), whether produced by the
// combinatorial max-weight clique search or by the paper's ILP backend.
// Everything cheaper is deliberately not memoized: top-NPR lists are a
// copy of the graph's memoized sorted-WCET slice, and the Δ^m/Δ^{m-1}
// suffix aggregates are O(n·m) incremental work that the rta layer's
// SuffixAggregator already produces faster than a hash-keyed lookup
// could return it (the BENCH_analyze.json trajectory for PR 4-6 showed
// the old suffix-level memo costing 2× what it saved).
//
// Entries are keyed by the graph's memoized content fingerprint — the
// SHA-256 of its canonical structure (node WCETs + edge list; see
// dag.(*Graph).Fingerprint) — packed with the analysis parameters
// (cores, backend) into a fixed-size comparable struct, so two
// structurally identical graphs share one entry regardless of how or
// where they were built: a task set deserialized twice from JSON
// computes each table once. A SHA-256 collision would be needed for
// distinct graphs to share an entry; we accept that risk as
// cryptographically negligible.
//
// The store is safe for concurrent use and built so a hit is strictly
// cheaper than recompute: the map is sharded by the first fingerprint
// byte, a hit takes one shard RLock, one map probe of a fixed-size
// binary key, and two atomic operations — no allocation, no shared
// mutable LRU state, no channel receive. Footprint is bounded per shard
// by a second-chance (clock) sweep that runs only on insertion: hits
// mark a reference bit, the sweep clears bits and evicts the first
// unreferenced materialized entry. Concurrent requests for a missing
// key are deduplicated singleflight-style: the first goroutine
// computes, the rest block on the in-flight entry and share the result
// (counted as waits, not hits). Hit, miss, wait and eviction counters
// feed the engine's /stats endpoint.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/blocking"
	"repro/internal/dag"
)

// DefaultMaxEntries bounds the store when New is given a non-positive
// size. An entry is a small []int64 table, so the default is generous
// without being a memory hazard.
const DefaultMaxEntries = 4096

// numShards splits the key space by the first fingerprint byte so
// concurrent workers rarely contend on one RWMutex. Power of two, and
// small enough that even a tiny cache keeps a few entries per shard.
const numShards = 16

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Waits     uint64 `json:"waits"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// HitRate returns hits/(hits+misses+waits), or 0 before any lookup.
// Waits are goroutines that blocked on another goroutine's in-flight
// compute: they share the result but pay the full compute latency, so
// counting them as hits would overstate cache value exactly when the
// cache is slow.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Waits
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// key identifies one µ table: the graph's content fingerprint packed
// with the analysis parameters. Fixed-size and comparable, so map
// probes neither hash a string nor allocate.
type key struct {
	fp [32]byte
	m  int32
	be int32
}

// entry is one cached table. done flips true once val is materialized;
// ready is closed at the same point (or on a panicking compute, with
// cause set) so in-flight waiters can block. used is the second-chance
// reference bit — the only state a hit ever writes.
type entry struct {
	val   []int64
	ready chan struct{}
	cause any // non-nil after a panicking compute (poisoned)
	done  atomic.Bool
	used  atomic.Bool
}

// shard is one slice of the key space. live counts materialized
// entries only — in-flight computes are in the map (for singleflight)
// but never against the bound.
type shard struct {
	mu      sync.RWMutex
	entries map[key]*entry
	live    int
}

// Cache is a bounded, concurrency-safe, content-addressed memo store
// for µ tables. The zero value is not usable; construct with New.
type Cache struct {
	shards   [numShards]shard
	perShard int

	// Counters live outside the shard locks so a /metrics scrape under
	// load reads them without contending with the analysis hot path.
	// count mirrors the materialized-entry total (updated under shard
	// locks, read without them) for the same reason.
	hits      atomic.Uint64
	misses    atomic.Uint64
	waits     atomic.Uint64
	evictions atomic.Uint64
	count     atomic.Int64
}

// New returns a Cache bounded to maxEntries materialized values
// (DefaultMaxEntries when non-positive), rounded up to a multiple of
// the shard count.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	c := &Cache{perShard: (maxEntries + numShards - 1) / numShards}
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
	}
	return c
}

// Cap returns the bound on materialized entries (maxEntries rounded up
// to a multiple of the shard count).
func (c *Cache) Cap() int { return c.perShard * numShards }

// Stats returns a snapshot of the counters. It takes no lock: each
// counter is read atomically, so the snapshot is not a single
// linearized point in time, but every counter is individually exact
// and monotone — which is what scrapers difference anyway. Entries
// counts materialized values only, never in-flight computes, so it is
// always ≤ Cap().
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int(c.count.Load()),
	}
}

// MuTable returns the µ[c] table of g for m cores (Equation (6)),
// computing it with blocking.Mu on a miss. The returned slice is shared
// with the cache; callers must not modify it. The hit path is inlined
// ahead of the compute closure so a hit never constructs it.
func (c *Cache) MuTable(g *dag.Graph, m int, be blocking.Backend) []int64 {
	k := key{fp: g.Fingerprint(), m: int32(m), be: int32(be)}
	s := &c.shards[k.fp[0]%numShards]
	s.mu.RLock()
	e := s.entries[k]
	s.mu.RUnlock()
	if e != nil {
		return c.consume(e)
	}
	return c.miss(s, k, func() []int64 { return blocking.Mu(g, m, be) })
}

// get is the generic lookup path (hit probe + miss fill) with an
// injectable compute, used by tests to drive the concurrency and
// eviction machinery directly.
func (c *Cache) get(k key, compute func() []int64) []int64 {
	s := &c.shards[k.fp[0]%numShards]
	s.mu.RLock()
	e := s.entries[k]
	s.mu.RUnlock()
	if e != nil {
		return c.consume(e)
	}
	return c.miss(s, k, compute)
}

// consume serves a value from an entry found in the map. A
// materialized entry is a hit: one atomic load, at most one reference-
// bit store per clock round, no lock, no allocation. An in-flight
// entry is a singleflight wait: block until the computing goroutine
// finishes, then share its result — or re-panic with its cause if the
// compute panicked, so waiters fail the same way the computer did
// instead of tripping over a nil value.
func (c *Cache) consume(e *entry) []int64 {
	if e.done.Load() {
		c.hits.Add(1)
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e.val
	}
	c.waits.Add(1)
	<-e.ready
	if e.cause != nil {
		panic(e.cause)
	}
	return e.val
}

// miss inserts an in-flight entry (double-checking under the write
// lock against a racing inserter) and materializes it outside the
// lock. On a panicking compute the entry is poisoned — cause recorded
// for blocked waiters, removed from the map so later lookups recompute
// — and the panic is re-raised with the original cause.
func (c *Cache) miss(s *shard, k key, compute func() []int64) []int64 {
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		s.mu.Unlock()
		return c.consume(e)
	}
	e := &entry{ready: make(chan struct{})}
	s.entries[k] = e
	s.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		if r := recover(); r != nil {
			e.cause = r
			s.mu.Lock()
			delete(s.entries, k)
			s.mu.Unlock()
			close(e.ready)
			panic(r)
		}
	}()
	e.val = compute()
	e.done.Store(true)
	close(e.ready)

	s.mu.Lock()
	s.live++
	c.count.Add(1)
	if s.live > c.perShard {
		c.evictLocked(s)
	}
	s.mu.Unlock()
	return e.val
}

// evictLocked enforces the shard bound with a second-chance sweep:
// entries hit since the last sweep get their reference bit cleared and
// survive the round; the first unreferenced materialized entry found
// is evicted (map iteration order supplies the sampling). In-flight
// entries are skipped — they don't count as live. If every entry was
// referenced, the last one swept (bit now cleared) is evicted. Caller
// holds s.mu; the hit path never participates.
func (c *Cache) evictLocked(s *shard) {
	for s.live > c.perShard {
		var victimKey key
		var victim *entry
		for k, e := range s.entries {
			if !e.done.Load() {
				continue
			}
			victimKey, victim = k, e
			if !e.used.Load() {
				break
			}
			e.used.Store(false)
		}
		if victim == nil {
			return
		}
		delete(s.entries, victimKey)
		s.live--
		c.count.Add(-1)
		c.evictions.Add(1)
	}
}
