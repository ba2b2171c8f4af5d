package engine

// The crash-safe on-disk session store behind `lpdag-serve -session-dir`:
// a single append-only log of wire frames, one 'S' (snapshot) frame per
// committed edit batch and one 'D' (tombstone) frame per delete, fsynced
// on every append so that state acknowledged to a client survives
// kill -9. Recovery reads the longest valid prefix — a torn tail from a
// crash mid-write is truncated, never fatal — and keeps the latest
// record per id (epochs are monotonic, so later wins). When the log
// grows well past its live content it is compacted by rewriting the
// live snapshots to a temp file and renaming it into place (the rename
// is the commit point; the directory is fsynced so the new name is
// durable too).
//
// FaultConfig is the test seam: the chaos e2e harness injects fsync
// failures, dropped hand-offs, and kill-after-N-appends process death
// through it to prove the recovery story end to end.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/limits"
	"repro/internal/session"
	"repro/internal/wire"
)

// Compaction policy: rewrite when the log is past this size AND mostly
// garbage (dead records from superseded snapshots and tombstones).
const (
	compactMinLogBytes = 64 << 10
	compactGarbageMult = 4
)

// sessionLogName is the store's single log file inside the session dir.
const sessionLogName = "sessions.log"

// FaultConfig injects faults into the durable session plane for crash
// testing: all methods are safe for concurrent use and a nil
// *FaultConfig is inert. Wire one in with (*SessionStore).SetFault.
type FaultConfig struct {
	failFsync   atomic.Int64
	dropHandoff atomic.Bool
	killAfter   atomic.Int64 // countdown; fires at 0 crossing
	killed      atomic.Bool
	killFn      atomic.Value // func()
}

// FailNextFsync makes the next n store fsyncs fail (the bytes are
// written but not synced — exactly the torn-tail shape a real fsync
// error risks).
func (f *FaultConfig) FailNextFsync(n int) { f.failFsync.Store(int64(n)) }

// SetDropHandoff makes the drain hand-off silently drop every push
// (simulating a partitioned receiver).
func (f *FaultConfig) SetDropHandoff(drop bool) { f.dropHandoff.Store(drop) }

// KillAfterAppends invokes kill once, immediately after the n-th
// subsequent successful store append — the hook the chaos harness uses
// to kill -9 a node mid-edit-stream (the n-th edit is durable and
// acknowledged; the process dies before the next one).
func (f *FaultConfig) KillAfterAppends(n int, kill func()) {
	f.killFn.Store(kill)
	f.killed.Store(false)
	f.killAfter.Store(int64(n))
}

func (f *FaultConfig) fsyncErr() error {
	if f == nil {
		return nil
	}
	for {
		n := f.failFsync.Load()
		if n <= 0 {
			return nil
		}
		if f.failFsync.CompareAndSwap(n, n-1) {
			return fmt.Errorf("engine: injected fsync failure")
		}
	}
}

func (f *FaultConfig) handoffDropped() bool { return f != nil && f.dropHandoff.Load() }

func (f *FaultConfig) appended() {
	if f == nil {
		return
	}
	if f.killAfter.Add(-1) == 0 && f.killed.CompareAndSwap(false, true) {
		if kill, ok := f.killFn.Load().(func()); ok && kill != nil {
			kill()
		}
	}
}

// SessionStore is the durable session log of one node. All methods are
// safe for concurrent use. Open with OpenSessionStore.
type SessionStore struct {
	mu    sync.Mutex
	path  string
	dir   string
	f     *os.File
	fault *FaultConfig

	// recovered is the latest live snapshot per id found at open time,
	// immutable afterwards (Recovered hands out the slice; restore may
	// run concurrently with new traffic).
	recovered []*session.Snapshot

	// latest holds the current encoded snapshot payload per live id —
	// the compaction source, bounded by live session state.
	latest    map[string][]byte
	logBytes  int64
	liveBytes int64
	buf       []byte

	// skipped counts the intact records recovery refused on a limits
	// bound (records a node without that bound wrote).
	skipped int
}

// OpenSessionStore opens (creating if needed) the durable session store
// in dir, recovering the sessions a previous process left behind. A
// torn tail — a crash mid-append — is truncated and the valid prefix
// kept; recovery never fails on corrupt record content, it stops at it.
func OpenSessionStore(dir string) (*SessionStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: session store: %w", err)
	}
	st := &SessionStore{
		path:   filepath.Join(dir, sessionLogName),
		dir:    dir,
		latest: make(map[string][]byte),
	}
	data, err := os.ReadFile(st.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: session store: %w", err)
	}
	valid := st.replay(data)
	if valid < int64(len(data)) {
		// Torn or corrupt tail: keep the valid prefix. Truncating now
		// (before reopening for append) keeps the on-disk log equal to
		// the recovered state.
		if err := os.Truncate(st.path, valid); err != nil {
			return nil, fmt.Errorf("engine: session store: truncate torn tail: %w", err)
		}
	}
	st.f, err = os.OpenFile(st.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: session store: %w", err)
	}
	st.logBytes = valid
	for _, id := range slices.Sorted(maps.Keys(st.latest)) {
		// replay keeps only payloads DecodeSnapshot accepted.
		if snap, err := session.DecodeSnapshot(st.latest[id]); err == nil {
			st.recovered = append(st.recovered, snap)
		}
	}
	return st, nil
}

// replay scans the log, populating latest/liveBytes, and returns the
// byte length of the longest valid prefix. An intact record whose
// snapshot a limits bound refuses is skipped and counted, and its
// session dropped rather than restored at an older epoch; the records
// after it still count.
func (st *SessionStore) replay(data []byte) int64 {
	rest := data
	for len(rest) > 0 {
		typ, payload, next, err := wire.ReadFrame(rest)
		if err != nil {
			break // torn tail or unknown frame: stop here
		}
		var id string // a tombstone's, or a refused record's
		var snap *session.Snapshot
		if typ == wire.FrameSnapshot {
			snap, err = session.DecodeSnapshot(payload)
			if errors.As(err, new(*limits.Error)) {
				st.skipped++
				id, snap, err = snap.ID, nil, nil
			}
		} else {
			d := wire.NewDec(payload)
			id = d.String(limits.SessionID)
			if err = d.Err(); err == nil && d.Rest() != 0 {
				err = errors.New("trailing bytes after a tombstone id")
			}
		}
		if err != nil {
			break // corrupt record: stop here
		}
		if snap != nil {
			st.setLatestLocked(snap.ID, payload)
		} else {
			st.dropLatestLocked(id)
		}
		rest = next
	}
	return int64(len(data) - len(rest))
}

func (st *SessionStore) setLatestLocked(id string, payload []byte) {
	st.liveBytes += int64(len(payload)) - int64(len(st.latest[id]))
	st.latest[id] = append([]byte(nil), payload...)
}

func (st *SessionStore) dropLatestLocked(id string) {
	st.liveBytes -= int64(len(st.latest[id]))
	delete(st.latest, id)
}

// SetFault installs a fault-injection config (nil clears it).
func (st *SessionStore) SetFault(f *FaultConfig) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fault = f
}

// Fault returns the installed fault-injection config, if any.
func (st *SessionStore) Fault() *FaultConfig {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fault
}

// Recovered returns the sessions found at open time (latest record per
// live id, in id order). The slice is immutable; appends after open do
// not change it.
func (st *SessionStore) Recovered() []*session.Snapshot { return st.recovered }

// Skipped returns the count of intact records recovery refused on a
// limits bound.
func (st *SessionStore) Skipped() int { return st.skipped }

// Len returns the number of live (non-tombstoned) ids in the store.
func (st *SessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.latest)
}

// Append durably records snap: the record is written and fsynced before
// Append returns, so an acknowledged edit survives kill -9. An fsync
// failure is returned (the caller decides whether to degrade or fail);
// the unsynced bytes are tolerated by recovery like any torn tail.
func (st *SessionStore) Append(snap *session.Snapshot) error {
	st.mu.Lock()
	if st.f == nil {
		st.mu.Unlock()
		return fmt.Errorf("engine: session store closed")
	}
	payload, err := snap.Append(st.buf[:0])
	if err != nil {
		st.mu.Unlock()
		return err
	}
	st.buf = payload[:0]
	frame := wire.AppendFrame(nil, wire.FrameSnapshot, payload)
	if err := st.writeLocked(frame); err != nil {
		st.mu.Unlock()
		return err
	}
	st.setLatestLocked(snap.ID, payload)
	fault := st.fault
	st.compactLocked()
	st.mu.Unlock()
	// The kill hook runs outside the lock: it may close listeners or
	// block, and "the process died" must not deadlock the store it was
	// injected into.
	fault.appended()
	return nil
}

// Delete durably tombstones id. Deleting an id the store does not hold
// is a no-op (nothing to resurrect).
func (st *SessionStore) Delete(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("engine: session store closed")
	}
	if _, ok := st.latest[id]; !ok {
		return nil
	}
	frame := wire.AppendFrame(nil, wire.FrameDelete, wire.AppendString(nil, id))
	if err := st.writeLocked(frame); err != nil {
		return err
	}
	st.dropLatestLocked(id)
	st.compactLocked()
	return nil
}

// writeLocked appends one frame and fsyncs (the fault seam sits on the
// fsync, matching the failure mode it simulates).
func (st *SessionStore) writeLocked(frame []byte) error {
	if _, err := st.f.Write(frame); err != nil {
		return fmt.Errorf("engine: session store: %w", err)
	}
	st.logBytes += int64(len(frame))
	if err := st.fault.fsyncErr(); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("engine: session store: %w", err)
	}
	return nil
}

// compactLocked rewrites the log to just the live snapshots when it is
// mostly garbage: temp file, fsync, rename over the log (the atomic
// commit point), directory fsync. A crash anywhere leaves either the
// old log or the complete new one.
func (st *SessionStore) compactLocked() {
	if st.logBytes < compactMinLogBytes || st.logBytes <= compactGarbageMult*st.liveBytes {
		return
	}
	tmpPath := st.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return // compaction is an optimisation; the log stays correct
	}
	ids := make([]string, 0, len(st.latest))
	for id := range st.latest {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var size int64
	var frame []byte
	for _, id := range ids {
		frame = wire.AppendFrame(frame[:0], wire.FrameSnapshot, st.latest[id])
		n, err := tmp.Write(frame)
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return
		}
		size += int64(n)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return
	}
	if err := os.Rename(tmpPath, st.path); err != nil {
		os.Remove(tmpPath)
		return
	}
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
	f, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted log is in place but unappendable; keep the old
		// handle (now writing to the unlinked file) out of use.
		return
	}
	st.f.Close()
	st.f = f
	st.logBytes = size
}

// Close closes the log file. A closed store refuses further appends.
func (st *SessionStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
