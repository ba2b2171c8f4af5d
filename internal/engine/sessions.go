package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/session"
)

// Session-registry defaults.
const (
	// DefaultMaxSessions bounds the live sessions of one engine. Each
	// session pins its task set, its graphs' memoized µ tables and its
	// last report — cheap per session, but client-controlled, so the
	// count must be capped.
	DefaultMaxSessions = 1024
	// DefaultSessionTTL is how long an untouched session survives.
	DefaultSessionTTL = 15 * time.Minute
)

// ErrSessionNotFound is returned for unknown or expired session ids
// (the two are indistinguishable by design: expiry deletes).
var ErrSessionNotFound = fmt.Errorf("engine: session not found or expired")

// ErrTooManySessions is returned by Create when the registry is full
// even after evicting every expired session.
var ErrTooManySessions = fmt.Errorf("engine: session limit reached")

// ErrStaleSnapshot is returned by Install when the registry already
// holds the session at an equal or later edit epoch — the push (a
// duplicate hand-off, a replayed restore) carries nothing newer.
var ErrStaleSnapshot = fmt.Errorf("engine: stale session snapshot")

// SessionRegistryConfig parameterises a SessionRegistry.
type SessionRegistryConfig struct {
	// MaxSessions caps live sessions; 0 means DefaultMaxSessions.
	MaxSessions int
	// TTL evicts sessions untouched for this long; 0 means
	// DefaultSessionTTL. Negative disables expiry.
	TTL time.Duration
	// Clock overrides time.Now, for tests exercising TTL eviction.
	Clock func() time.Time
	// Store, when non-nil, makes sessions durable: every committed edit
	// batch is snapshotted and fsynced to it, TTL eviction tombstones
	// the durable entry, and RestoreFromStore rebuilds the unexpired
	// sessions a previous process left behind.
	Store *SessionStore
	// OwnsID, when non-nil, constrains Create's id allocation to ids it
	// accepts — the consistent-hash session router's way of making every
	// locally created session locally owned.
	OwnsID func(id string) bool
}

// SessionRegistry owns the live analysis sessions of an engine: id
// allocation, lookup-with-touch, bounded count, and TTL eviction
// (lazily, on every registry operation — a registry nobody talks to
// holds only memory, not goroutines). Session operations submitted
// through Do run on the engine's worker pool as JobSession jobs, so
// interactive what-if traffic shares the pool's backpressure with batch
// analyses.
type SessionRegistry struct {
	eng *Engine
	cfg SessionRegistryConfig

	// Metrics, resolved from the engine's registry at construction (all
	// nil when the engine has none). gateWait measures time spent in
	// Do's per-session serialization gate — queueing invisible to the
	// pool's own queue-wait histogram.
	created   *obs.Counter
	expired   *obs.Counter
	snapshots *obs.Counter
	restores  *obs.Counter
	fsyncErrs *obs.Counter
	gateWait  *obs.Histogram

	// Repair-search metrics (PR 10): evaluated candidate placements,
	// searches that found a schedulable-flipping sequence, and
	// end-to-end search duration.
	repairCandidates *obs.Counter
	repairFlips      *obs.Counter
	repairDuration   *obs.Histogram

	mu       sync.Mutex
	sessions map[string]*sessionEntry
}

type sessionEntry struct {
	sess     *session.Session
	lastUsed time.Time

	// persisted is the last session epoch durably appended to the store
	// (0 = never; live epochs start at 1). Guarded by the registry
	// mutex.
	persisted uint64

	// op serializes this session's pooled operations BEFORE they reach
	// the worker pool (capacity 1). The session's own mutex would
	// serialize them too — but inside the pool, where every waiter
	// pins a worker in an uncancellable mutex sleep; W concurrent ops
	// on one session must park W-1 request goroutines here instead,
	// each still honouring its context.
	op chan struct{}
}

// NewSessionRegistry returns a registry whose session analyses share
// the engine's cache and worker pool.
func NewSessionRegistry(e *Engine, cfg SessionRegistryConfig) *SessionRegistry {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultSessionTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &SessionRegistry{
		eng:      e,
		cfg:      cfg,
		sessions: make(map[string]*sessionEntry),
	}
	if reg := e.obsReg; reg != nil {
		r.created = reg.Counter("lpdag_sessions_created_total",
			"Analysis sessions created.")
		r.expired = reg.Counter("lpdag_sessions_expired_total",
			"Analysis sessions evicted by the TTL sweep.")
		r.snapshots = reg.Counter("lpdag_session_snapshots_total",
			"Session snapshots durably appended to the session store.")
		r.restores = reg.Counter("lpdag_session_restores_total",
			"Sessions restored from the durable store at startup.")
		r.fsyncErrs = reg.Counter("lpdag_session_fsync_errors_total",
			"Durable session store append/fsync failures (durability degraded, serving continues).")
		r.gateWait = reg.Histogram("lpdag_session_gate_wait_seconds",
			"Time a session operation waited on its per-session serialization gate.",
			obs.LatencyBuckets)
		r.repairCandidates = reg.Counter("lpdag_repair_candidates_total",
			"Candidate placements evaluated by session repair searches.")
		r.repairFlips = reg.Counter("lpdag_repair_flips_total",
			"Repair searches that found a transform sequence flipping the set schedulable.")
		r.repairDuration = reg.Histogram("lpdag_repair_search_seconds",
			"End-to-end session repair search duration (gate and queue wait excluded).",
			obs.LatencyBuckets)
		reg.GaugeFunc("lpdag_sessions_active",
			"Live analysis sessions after sweeping expired ones.",
			func() float64 { return float64(r.Len()) })
	}
	return r
}

// ObserveRepair records one finished repair search: its candidate
// count, whether it flipped the set schedulable, and its duration.
// No-op without an observability registry.
func (r *SessionRegistry) ObserveRepair(res *repair.Result, d time.Duration) {
	if res == nil || r.repairCandidates == nil {
		return
	}
	r.repairCandidates.Add(uint64(res.Candidates))
	if res.Fixed && len(res.Transforms) > 0 {
		r.repairFlips.Inc()
	}
	r.repairDuration.Observe(d.Seconds())
}

// Len returns the live session count (after sweeping expired ones).
func (r *SessionRegistry) Len() int {
	r.mu.Lock()
	swept := r.sweepLocked()
	n := len(r.sessions)
	r.mu.Unlock()
	r.dropDurable(swept)
	return n
}

// Has reports whether id is live, without refreshing its TTL — the
// session router's "is this session local?" probe must not keep a
// session alive.
func (r *SessionRegistry) Has(id string) bool {
	r.mu.Lock()
	swept := r.sweepLocked()
	_, ok := r.sessions[id]
	r.mu.Unlock()
	r.dropDurable(swept)
	return ok
}

// sweepLocked drops every expired session and returns their ids; the
// caller must pass them to dropDurable AFTER releasing r.mu (tombstone
// appends fsync, and disk I/O under the registry lock would stall every
// session operation).
func (r *SessionRegistry) sweepLocked() []string {
	if r.cfg.TTL < 0 {
		return nil
	}
	cutoff := r.cfg.Clock().Add(-r.cfg.TTL)
	var swept []string
	for id, e := range r.sessions {
		if e.lastUsed.Before(cutoff) {
			delete(r.sessions, id)
			r.expired.Inc()
			swept = append(swept, id)
		}
	}
	return swept
}

// dropDurable tombstones swept ids in the store, so a restart never
// resurrects an expired session.
func (r *SessionRegistry) dropDurable(ids []string) {
	if r.cfg.Store == nil {
		return
	}
	for _, id := range ids {
		if err := r.cfg.Store.Delete(id); err != nil {
			r.fsyncErrs.Inc()
		}
	}
}

// Create validates the options and tasks, registers a new session, and
// returns its id. The session's analyses share the engine's cache.
func (r *SessionRegistry) Create(opts core.Options, tasks ...*model.Task) (string, *session.Session, error) {
	opts.Cache = r.eng.Cache()
	sess, err := session.New(opts, tasks...)
	if err != nil {
		return "", nil, err
	}
	r.mu.Lock()
	swept := r.sweepLocked()
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		r.dropDurable(swept)
		return "", nil, ErrTooManySessions
	}
	id := r.newOwnedID()
	e := &sessionEntry{
		sess: sess, lastUsed: r.cfg.Clock(), op: make(chan struct{}, 1),
	}
	r.sessions[id] = e
	r.created.Inc()
	r.mu.Unlock()
	r.dropDurable(swept)
	r.persist(id, e)
	return id, sess, nil
}

// newOwnedID generates a session id the OwnsID policy accepts. With the
// consistent-hash router each member owns ~1/N of the 128-bit id space,
// so a handful of draws suffices; the attempt bound only guards a
// pathological policy.
func (r *SessionRegistry) newOwnedID() string {
	id := newSessionID()
	if r.cfg.OwnsID == nil {
		return id
	}
	for attempts := 0; attempts < 4096 && !r.cfg.OwnsID(id); attempts++ {
		id = newSessionID()
	}
	return id
}

// Get returns the session and refreshes its TTL.
func (r *SessionRegistry) Get(id string) (*session.Session, error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, err
	}
	return e.sess, nil
}

// Epoch returns the live session's current edit epoch without
// refreshing its TTL (ok=false for unknown or expired ids).
func (r *SessionRegistry) Epoch(id string) (uint64, bool) {
	r.mu.Lock()
	e, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return e.sess.Epoch(), true
}

// entry resolves a live entry and refreshes its TTL.
func (r *SessionRegistry) entry(id string) (*sessionEntry, error) {
	r.mu.Lock()
	swept := r.sweepLocked()
	e, ok := r.sessions[id]
	if ok {
		e.lastUsed = r.cfg.Clock()
	}
	r.mu.Unlock()
	r.dropDurable(swept)
	if !ok {
		return nil, ErrSessionNotFound
	}
	return e, nil
}

// Delete removes the session (and its durable entry), reporting whether
// it existed.
func (r *SessionRegistry) Delete(id string) bool {
	r.mu.Lock()
	swept := r.sweepLocked()
	_, ok := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	r.dropDurable(swept)
	if ok {
		r.dropDurable([]string{id})
	}
	return ok
}

// Do resolves the session and runs fn against it as a JobSession job on
// the engine's worker pool. At most one pooled job per session runs at
// a time: concurrent operations on the same session queue here, on the
// caller's goroutine under the caller's context — never inside the
// pool, where each waiter would pin a worker in an uncancellable mutex
// sleep and one busy session could starve every other job.
func (r *SessionRegistry) Do(ctx context.Context, id string, fn func(ctx context.Context, s *session.Session) (any, error)) (any, error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if r.gateWait != nil {
		t0 = time.Now()
	}
	select {
	case e.op <- struct{}{}:
		r.gateWait.Since(t0)
		defer func() { <-e.op }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	v, err := r.eng.Submit(ctx, JobSession, func(jobCtx context.Context) (any, error) {
		return fn(jobCtx, e.sess)
	})
	// Persist while still holding the op gate, so snapshots reach the
	// store in epoch order. The epoch comparison inside persist makes
	// query-only operations free; fn errors still persist whatever was
	// committed before the failure.
	r.persist(id, e)
	return v, err
}

// persist appends the entry's current snapshot to the durable store if
// its epoch moved past the last persisted one. An append/fsync failure
// degrades durability, not serving: it is counted
// (lpdag_session_fsync_errors_total) and the next committed edit (or
// drain flush) retries.
func (r *SessionRegistry) persist(id string, e *sessionEntry) {
	st := r.cfg.Store
	if st == nil {
		return
	}
	r.mu.Lock()
	lastUsed := e.lastUsed
	already := e.persisted
	r.mu.Unlock()
	snap := e.sess.Snapshot(id, lastUsed.UnixNano())
	if snap.Epoch == already {
		return
	}
	if err := st.Append(snap); err != nil {
		r.fsyncErrs.Inc()
		return
	}
	r.snapshots.Inc()
	r.mu.Lock()
	if e.persisted < snap.Epoch {
		e.persisted = snap.Epoch
	}
	r.mu.Unlock()
}

// Install registers a session rebuilt from a snapshot — a startup
// restore or an incoming drain hand-off. The epoch check makes it
// last-writer-wins and idempotent: a snapshot at an epoch the registry
// already has (or older) is rejected with ErrStaleSnapshot. markUsed
// stamps the session as touched now (hand-off: the conversation is
// live); otherwise the snapshot's own last-touch time carries over, so
// the TTL clock keeps running across restarts. persist re-appends the
// snapshot to this node's store (hand-off custody); restores from the
// node's own store skip it.
func (r *SessionRegistry) Install(snap *session.Snapshot, markUsed, persist bool) error {
	cp := *snap
	cp.Opts.Cache = r.eng.Cache()
	sess, err := session.Restore(&cp)
	if err != nil {
		return err
	}
	lastUsed := time.Unix(0, snap.LastTouch)
	if markUsed {
		lastUsed = r.cfg.Clock()
	}
	r.mu.Lock()
	swept := r.sweepLocked()
	if prev, ok := r.sessions[snap.ID]; ok && prev.sess.Epoch() >= snap.Epoch {
		r.mu.Unlock()
		r.dropDurable(swept)
		return ErrStaleSnapshot
	} else if !ok && len(r.sessions) >= r.cfg.MaxSessions {
		r.mu.Unlock()
		r.dropDurable(swept)
		return ErrTooManySessions
	}
	e := &sessionEntry{
		sess: sess, lastUsed: lastUsed, op: make(chan struct{}, 1),
	}
	if !persist {
		e.persisted = snap.Epoch
	}
	r.sessions[snap.ID] = e
	r.mu.Unlock()
	r.dropDurable(swept)
	if persist {
		r.persist(snap.ID, e)
	}
	return nil
}

// RestoreFromStore installs every unexpired session the store recovered
// at open time, tombstoning the expired ones (a restart must never
// resurrect a session its TTL already killed). It returns the number
// restored; calling it again — or concurrently with live traffic — is
// safe, the epoch check skips everything already present.
func (r *SessionRegistry) RestoreFromStore() int {
	st := r.cfg.Store
	if st == nil {
		return 0
	}
	now := r.cfg.Clock()
	n := 0
	for _, snap := range st.Recovered() {
		if r.cfg.TTL >= 0 && now.Sub(time.Unix(0, snap.LastTouch)) > r.cfg.TTL {
			if err := st.Delete(snap.ID); err != nil {
				r.fsyncErrs.Inc()
			}
			continue
		}
		if err := r.Install(snap, false, false); err == nil {
			r.restores.Inc()
			n++
		}
	}
	return n
}

// SnapshotAll snapshots every live session (drain hand-off source).
func (r *SessionRegistry) SnapshotAll() []*session.Snapshot {
	r.mu.Lock()
	swept := r.sweepLocked()
	type live struct {
		id       string
		e        *sessionEntry
		lastUsed time.Time
	}
	entries := make([]live, 0, len(r.sessions))
	for id, e := range r.sessions {
		entries = append(entries, live{id, e, e.lastUsed})
	}
	r.mu.Unlock()
	r.dropDurable(swept)
	snaps := make([]*session.Snapshot, 0, len(entries))
	for _, l := range entries {
		snaps = append(snaps, l.e.sess.Snapshot(l.id, l.lastUsed.UnixNano()))
	}
	return snaps
}

// FlushAll persists every live session whose committed state is ahead
// of the store (normally none — Do persists per edit batch — but fsync
// failures leave gaps this closes). It returns the snapshots appended.
func (r *SessionRegistry) FlushAll() int {
	if r.cfg.Store == nil {
		return 0
	}
	r.mu.Lock()
	type live struct {
		id string
		e  *sessionEntry
	}
	entries := make([]live, 0, len(r.sessions))
	for id, e := range r.sessions {
		entries = append(entries, live{id, e})
	}
	r.mu.Unlock()
	n := 0
	before := 0
	for _, l := range entries {
		r.mu.Lock()
		before = int(l.e.persisted)
		r.mu.Unlock()
		r.persist(l.id, l.e)
		r.mu.Lock()
		if int(l.e.persisted) != before {
			n++
		}
		r.mu.Unlock()
	}
	return n
}

// newSessionID returns a 128-bit random hex id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("engine: session id randomness unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
