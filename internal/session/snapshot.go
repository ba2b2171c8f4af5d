package session

// Binary session snapshots: the canonical serialized form of a Session's
// full durable state (analysis options, ordered task set, edit epoch)
// plus the registry-level identity the engine attaches (id, last-touch
// time). Snapshots are the payload of the wire 'S' frame, written to the
// engine's crash-safe session store on every committed edit batch and
// pushed to the next ring owner during drain hand-off.
//
// The encoding is canonical: encoding a snapshot produced by
// (*Session).Snapshot and decoding it yields a snapshot that encodes to
// the same bytes (edges are emitted in dag.(*Graph).Edges deterministic
// order, integers as minimal varints). Restore of a snapshot yields a
// session whose Report is identical to the original's — quick-checked by
// TestSessionSnapshotRoundTripQuick and fuzzed for decoder robustness by
// FuzzSessionSnapshotRoundTrip.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/wire"
)

// snapshotVersion is the leading byte of every encoded snapshot.
const snapshotVersion = 1

// Decode limits: a corrupt length prefix must fail fast, not drive a
// huge allocation or a long parse.
const (
	maxSnapshotID    = 256
	maxSnapshotName  = 1 << 12
	maxSnapshotTasks = 1 << 16
	maxSnapshotNodes = 1 << 20
	maxSnapshotEdges = 1 << 22
	maxSnapshotSlack = 1 // minimum encoded bytes per counted element
)

// Stable wire codes for the option enums. Deliberately independent of
// the core constants' iota values: a renumbering there must not silently
// re-interpret every snapshot on disk.
const (
	snapMethodFPIdeal = 0
	snapMethodLPMax   = 1
	snapMethodLPILP   = 2

	// The µ-solver code. Every analysis solves µ combinatorially, so
	// snapshots carry 0; a 1 was written when sessions could choose the
	// paper-ILP solver, whose µ tables are identical, and restores to
	// the same analysis.
	snapSolverCombinatorial = 0
	snapSolverPaperILP      = 1
)

// Snapshot is the serializable state of one session. Opts.Cache and
// Opts.Trace are process-local and never serialized; the restoring
// registry re-attaches its own.
type Snapshot struct {
	ID        string
	Epoch     uint64
	LastTouch int64 // unix nanoseconds of the last registry touch
	Opts      core.Options
	Tasks     []*model.Task
}

// Snapshot captures the session's durable state under its lock. id and
// lastTouch are registry-level identity the session itself does not
// track. The returned task pointers are shared (tasks are immutable).
func (s *Session) Snapshot(id string, lastTouch int64) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.an.Options()
	opts.Cache = nil
	opts.Trace = nil
	return &Snapshot{
		ID:        id,
		Epoch:     s.epoch,
		LastTouch: lastTouch,
		Opts:      opts,
		Tasks:     append([]*model.Task(nil), s.tasks...),
	}
}

// Restore rebuilds a live session from a snapshot: same options, same
// ordered task set, same epoch. The restored session's Report is
// identical to the snapshotted session's. Opts are used verbatim —
// callers wanting a shared analysis cache set snap.Opts.Cache first (on
// their own copy; Restore does not mutate snap).
func Restore(snap *Snapshot) (*Session, error) {
	s, err := New(snap.Opts, snap.Tasks...)
	if err != nil {
		return nil, err
	}
	s.epoch = snap.Epoch // not yet shared; no lock needed
	return s, nil
}

// Append encodes the snapshot onto dst (the 'S' frame payload — framing
// is the caller's). It fails only on options outside the wire's
// vocabulary, which a validated session can never hold.
func (snap *Snapshot) Append(dst []byte) ([]byte, error) {
	mcode, err := methodCode(snap.Opts.Method)
	if err != nil {
		return nil, err
	}
	dst = append(dst, snapshotVersion)
	dst = wire.AppendString(dst, snap.ID)
	dst = wire.AppendUvarint(dst, snap.Epoch)
	dst = wire.AppendZigzag(dst, snap.LastTouch)
	dst = wire.AppendZigzag(dst, int64(snap.Opts.Cores))
	dst = wire.AppendUvarint(dst, mcode)
	dst = wire.AppendUvarint(dst, snapSolverCombinatorial)
	dst = appendSnapBool(dst, snap.Opts.FinalNPRRefinement)
	dst = wire.AppendUvarint(dst, uint64(len(snap.Tasks)))
	for _, t := range snap.Tasks {
		dst = wire.AppendString(dst, t.Name)
		dst = wire.AppendZigzag(dst, t.Deadline)
		dst = wire.AppendZigzag(dst, t.Period)
		n := t.G.N()
		dst = wire.AppendUvarint(dst, uint64(n))
		for v := 0; v < n; v++ {
			dst = wire.AppendZigzag(dst, t.G.WCET(v))
		}
		edges := t.G.Edges()
		dst = wire.AppendUvarint(dst, uint64(len(edges)))
		for _, e := range edges {
			dst = wire.AppendUvarint(dst, uint64(e[0]))
			dst = wire.AppendUvarint(dst, uint64(e[1]))
		}
	}
	return dst, nil
}

// DecodeSnapshot parses an encoded snapshot, validating structure as it
// goes (graphs are rebuilt through dag.Builder, so a decoded snapshot
// holds only well-formed DAGs). It never panics on corrupt or truncated
// input.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := wire.NewDec(payload)
	if v := d.Byte(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("session: unknown snapshot version %d", v)
	}
	snap := &Snapshot{
		ID:        d.String(maxSnapshotID),
		Epoch:     d.Uvarint(),
		LastTouch: d.Zigzag(),
	}
	snap.Opts.Cores = int(d.Zigzag())
	method, merr := methodOf(d.Uvarint())
	serr := checkSolver(d.Uvarint())
	snap.Opts.Method = method
	snap.Opts.FinalNPRRefinement = d.Byte() != 0
	ntasks := d.Uvarint()
	if err := checkCount(d, ntasks, maxSnapshotTasks, "tasks"); err != nil {
		return nil, err
	}
	snap.Tasks = make([]*model.Task, 0, int(ntasks))
	for i := uint64(0); i < ntasks && d.Err() == nil; i++ {
		t, err := decodeSnapshotTask(d)
		if err != nil {
			return nil, err
		}
		snap.Tasks = append(snap.Tasks, t)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("session: %d trailing bytes after snapshot", d.Rest())
	}
	if merr != nil {
		return nil, merr
	}
	if serr != nil {
		return nil, serr
	}
	return snap, nil
}

func decodeSnapshotTask(d *wire.Dec) (*model.Task, error) {
	name := d.String(maxSnapshotName)
	deadline := d.Zigzag()
	period := d.Zigzag()
	nnodes := d.Uvarint()
	if err := checkCount(d, nnodes, maxSnapshotNodes, "nodes"); err != nil {
		return nil, err
	}
	var b dag.Builder
	for v := uint64(0); v < nnodes && d.Err() == nil; v++ {
		b.AddNode(d.Zigzag())
	}
	nedges := d.Uvarint()
	if err := checkCount(d, nedges, maxSnapshotEdges, "edges"); err != nil {
		return nil, err
	}
	for e := uint64(0); e < nedges && d.Err() == nil; e++ {
		u := d.Uvarint()
		v := d.Uvarint()
		b.AddEdge(int(u), int(v))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("session: snapshot task %q: %w", name, err)
	}
	return &model.Task{Name: name, G: g, Deadline: deadline, Period: period}, nil
}

// checkCount bounds a decoded element count both by the hard limit and
// by the bytes actually left (each element costs at least one byte), so
// a corrupt count cannot drive a huge allocation.
func checkCount(d *wire.Dec, n uint64, max uint64, what string) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n > max {
		return fmt.Errorf("session: snapshot %s count %d exceeds limit %d", what, n, max)
	}
	if n*maxSnapshotSlack > uint64(d.Rest()) {
		return fmt.Errorf("session: snapshot %s count %d exceeds remaining payload", what, n)
	}
	return nil
}

func appendSnapBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func methodCode(m core.Method) (uint64, error) {
	switch m {
	case core.FPIdeal:
		return snapMethodFPIdeal, nil
	case core.LPMax:
		return snapMethodLPMax, nil
	case core.LPILP:
		return snapMethodLPILP, nil
	}
	return 0, fmt.Errorf("session: method %v has no snapshot code", m)
}

func methodOf(code uint64) (core.Method, error) {
	switch code {
	case snapMethodFPIdeal:
		return core.FPIdeal, nil
	case snapMethodLPMax:
		return core.LPMax, nil
	case snapMethodLPILP:
		return core.LPILP, nil
	}
	return 0, fmt.Errorf("session: unknown snapshot method code %d", code)
}

func checkSolver(code uint64) error {
	if code != snapSolverCombinatorial && code != snapSolverPaperILP {
		return fmt.Errorf("session: unknown snapshot backend code %d", code)
	}
	return nil
}
