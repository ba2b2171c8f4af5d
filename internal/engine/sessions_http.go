package engine

// HTTP surface of the stateful analysis sessions (see sessions.go and
// internal/session):
//
//	POST   /v1/sessions                   create (task set + options)
//	GET    /v1/sessions/{id}/report       current report
//	POST   /v1/sessions/{id}/edits        apply an edit batch, return the report
//	POST   /v1/sessions/{id}/admit        admission probe (no commit)
//	POST   /v1/sessions/{id}/sensitivity  per-task WCET headroom
//	POST   /v1/sessions/{id}/repair       NPR-placement repair search
//	DELETE /v1/sessions/{id}              drop the session
//
// Unknown and expired ids both 404 (expiry deletes, so the server
// cannot tell them apart and does not pretend to). A full registry
// 503s: sessions are server state, so the cap is load shedding, not a
// request-shape error.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/jsonwire"
	"repro/internal/model"
	"repro/internal/ppp"
	"repro/internal/repair"
	"repro/internal/session"
	"repro/internal/wire"
)

// sessionOwnerHeader names the ring member a 307 redirect points at (the
// Location header carries the full URL; this carries just the base, so a
// client can re-aim its whole conversation, not one request).
const sessionOwnerHeader = "X-Lpdag-Session-Owner"

// sessionEpochHeader carries the session's monotonic edit epoch on every
// session response. A client whose connection died mid-edit compares it
// against the epoch it last saw to decide whether the edit committed
// before resending.
const sessionEpochHeader = "X-Lpdag-Session-Epoch"

// redirectSession answers 307 + X-Lpdag-Session-Owner when another ring
// member owns id, and reports whether it wrote the response. Sessions
// present locally are always served locally, whatever the ring says:
// after a node replacement restores another node's store, custody beats
// nominal ownership (the static peer list still names the dead address).
func (s *Server) redirectSession(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.ring == nil || s.sessions.Has(id) {
		return false
	}
	owner := s.ring.Owner(id)
	if owner == s.self {
		return false
	}
	s.redirects.Inc()
	w.Header().Set(sessionOwnerHeader, owner)
	w.Header().Set("Location", owner+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
	return true
}

// setSessionEpoch stamps the session's current edit epoch on a response
// about to be written. Call before the body writer.
func (s *Server) setSessionEpoch(w http.ResponseWriter, id string) {
	if epoch, ok := s.sessions.Epoch(id); ok {
		w.Header().Set(sessionEpochHeader, strconv.FormatUint(epoch, 10))
	}
}

// createSessionRequest is the POST /v1/sessions body. The task set is
// optional: admission-control sessions often start empty and admit.
type createSessionRequest struct {
	TaskSet  json.RawMessage `json:"taskset,omitempty"`
	Cores    int             `json:"cores,omitempty"`  // default 4
	Method   string          `json:"method,omitempty"` // default "lp-ilp"
	FinalNPR bool            `json:"final_npr,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Cores == 0 {
		req.Cores = 4
	}
	if err := CheckCores(req.Cores); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := core.Options{Cores: req.Cores, FinalNPRRefinement: req.FinalNPR}
	var err error
	if opts.Method, err = ParseMethod(req.Method); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var tasks []*model.Task
	if len(req.TaskSet) > 0 {
		ts := new(model.TaskSet)
		if err := ts.UnmarshalJSON(req.TaskSet); err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid taskset: %v", err)
			return
		}
		tasks = ts.Tasks
	}
	id, _, err := s.sessions.Create(opts, tasks...)
	if err != nil {
		s.writeError(w, statusForSessionError(err), "create session: %v", err)
		return
	}
	// The initial analysis solves every graph's µ tables, the largest
	// cost a session ever pays; run it as an engine job like every other
	// session operation so creates share the engine's slots.
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			return sess.Report(ctx)
		})
	if err != nil {
		s.sessions.Delete(id)
		s.writeError(w, statusForSessionError(err), "create session: %v", err)
		return
	}
	s.setSessionEpoch(w, id)
	s.writeReport(w, http.StatusCreated, createLead(id), v.(*core.Report))
}

func (s *Server) handleSessionReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			return sess.Report(ctx)
		})
	if err != nil {
		s.writeError(w, statusForSessionError(err), "session report: %v", err)
		return
	}
	s.setSessionEpoch(w, id)
	s.writeReport(w, http.StatusOK, nil, v.(*core.Report))
}

// writeReport answers a session request with one JSON object whose last
// member is "report", rep at depth 1, after the members lead holds
// (rendered by createLead, admitLead or repairLead). The bytes are what
// writeJSON writes for the map or struct of the same members
// (json.Encoder sorts map keys, and every lead key sorts before
// "report"); a non-finite utilization is its 500 too.
func (s *Server) writeReport(w http.ResponseWriter, status int, lead []byte, rep *core.Report) {
	s.writeAppended(w, status, func(buf []byte) ([]byte, error) {
		return appendSessionJSON(buf, lead, rep)
	})
}

// appendSessionJSON appends writeReport's body.
func appendSessionJSON(buf, lead []byte, rep *core.Report) ([]byte, error) {
	buf = append(append(buf, '{'), lead...)
	buf, err := appendResultJSON(appendNext(buf, indent(1), `"report": `), rep, "", 1)
	return append(buf, "\n}\n"...), err
}

// createLead renders the "id" member of a POST /v1/sessions response.
func createLead(id string) []byte {
	return jsonwire.AppendString(appendNext(nil, indent(1), `"id": `), id)
}

// admitLead renders the "admitted" member of a POST …/admit response.
func admitLead(admitted bool) []byte {
	return strconv.AppendBool(appendNext(nil, indent(1), `"admitted": `), admitted)
}

// sessionEditJSON is one element of the edits batch. Tasks may be
// addressed by index or, for remove/set_priority, by name.
type sessionEditJSON struct {
	Op     string          `json:"op"`
	Task   json.RawMessage `json:"task,omitempty"`
	At     *int            `json:"at,omitempty"` // add: default lowest priority
	Index  *int            `json:"index,omitempty"`
	Name   string          `json:"name,omitempty"`
	From   *int            `json:"from,omitempty"`
	To     *int            `json:"to,omitempty"`
	Cores  int             `json:"cores,omitempty"`
	Method string          `json:"method,omitempty"`
}

type sessionEditsRequest struct {
	Edits []sessionEditJSON `json:"edits"`
}

// decodeEdit lowers one wire edit onto a session.Edit. Name-based
// addressing passes through: session.Apply resolves names against the
// state the batch has reached, so an edit can reference a task an
// earlier edit in the same batch added.
func decodeEdit(e sessionEditJSON) (session.Edit, error) {
	out := session.Edit{Op: e.Op, Name: e.Name}
	need := func(idx *int, field string) (int, error) {
		if e.Name != "" {
			return 0, nil // resolved by name in session.Apply
		}
		if idx == nil {
			return 0, errors.New("missing " + field)
		}
		return *idx, nil
	}
	switch e.Op {
	case session.OpAdd:
		if len(e.Task) == 0 {
			return out, errors.New("missing task")
		}
		t := new(model.Task)
		if err := t.UnmarshalJSON(e.Task); err != nil {
			return out, err
		}
		out.Task = t
		out.At = -1
		if e.At != nil {
			out.At = *e.At
		}
	case session.OpRemove:
		i, err := need(e.Index, "index")
		if err != nil {
			return out, err
		}
		out.Index = i
	case session.OpSetPriority:
		from, err := need(e.From, "from")
		if err != nil {
			return out, err
		}
		if e.To == nil {
			return out, errors.New("missing to")
		}
		out.From, out.To = from, *e.To
	case session.OpSetCores:
		if err := CheckCores(e.Cores); err != nil {
			return out, err
		}
		out.Cores = e.Cores
	case session.OpSetMethod:
		m, err := ParseMethod(e.Method)
		if err != nil {
			return out, err
		}
		out.Method = m
	default:
		// Let session.Apply produce the canonical unknown-op error.
	}
	return out, nil
}

func (s *Server) handleSessionEdits(w http.ResponseWriter, r *http.Request) {
	var req sessionEditsRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Edits) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty edit batch")
		return
	}
	edits := make([]session.Edit, len(req.Edits))
	for i, e := range req.Edits {
		var err error
		if edits[i], err = decodeEdit(e); err != nil {
			s.writeError(w, http.StatusBadRequest, "edit %d: %v", i, err)
			return
		}
	}
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			if err := sess.Apply(edits); err != nil {
				return nil, err
			}
			rep, err := sess.Report(ctx)
			if err != nil {
				// The batch IS committed (Apply is transactional and
				// succeeded); only the report failed, e.g. the client
				// cancelled mid-analysis. Say so explicitly — a client
				// that misread this as "nothing applied" would retry the
				// whole batch against the already-edited session.
				return nil, fmt.Errorf("%w: edits were applied; re-fetch GET report", err)
			}
			return rep, nil
		})
	if err != nil {
		s.setSessionEpoch(w, id) // edits may have committed even when the report failed
		s.writeError(w, statusForSessionError(err), "session edits: %v", err)
		return
	}
	s.setSessionEpoch(w, id)
	s.writeReport(w, http.StatusOK, nil, v.(*core.Report))
}

// sessionAdmitRequest is the POST /v1/sessions/{id}/admit body.
type sessionAdmitRequest struct {
	Task json.RawMessage `json:"task"`
	At   *int            `json:"at,omitempty"` // default lowest priority
}

func (s *Server) handleSessionAdmit(w http.ResponseWriter, r *http.Request) {
	var req sessionAdmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Task) == 0 {
		s.writeError(w, http.StatusBadRequest, "missing task")
		return
	}
	t := new(model.Task)
	if err := t.UnmarshalJSON(req.Task); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid task: %v", err)
		return
	}
	at := -1
	if req.At != nil {
		at = *req.At
	}
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			return sess.TryAdmit(ctx, t, at)
		})
	if err != nil {
		s.writeError(w, statusForSessionError(err), "session admit: %v", err)
		return
	}
	s.setSessionEpoch(w, id)
	rep := v.(*core.Report)
	s.writeReport(w, http.StatusOK, admitLead(rep.Schedulable), rep)
}

// sessionSensitivityRequest is the POST /v1/sessions/{id}/sensitivity
// body; the task may be addressed by index or name.
type sessionSensitivityRequest struct {
	Index       *int   `json:"index,omitempty"`
	Name        string `json:"name,omitempty"`
	MaxPermille int    `json:"max_permille,omitempty"` // default 10000 (10×)
}

func (s *Server) handleSessionSensitivity(w http.ResponseWriter, r *http.Request) {
	var req sessionSensitivityRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.MaxPermille == 0 {
		req.MaxPermille = 10_000
	}
	if req.Name == "" && req.Index == nil {
		s.writeError(w, http.StatusBadRequest, "missing index or name")
		return
	}
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			i := 0
			if req.Name != "" {
				i = sess.TaskIndex(req.Name)
				if i < 0 {
					return nil, errors.New("unknown task name " + req.Name)
				}
			} else {
				i = *req.Index
			}
			return sess.Sensitivity(ctx, i, req.MaxPermille)
		})
	if err != nil {
		s.writeError(w, statusForSessionError(err), "session sensitivity: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"permille": v.(int)})
}

// sessionRepairRequest is the POST /v1/sessions/{id}/repair body. The
// zero value runs the default greedy search as a pure query.
type sessionRepairRequest struct {
	Strategy      string  `json:"strategy,omitempty"`       // greedy (default) | exhaustive
	MaxSteps      int     `json:"max_steps,omitempty"`      // transform-sequence cap, default 4
	Budgets       []int64 `json:"budgets,omitempty"`        // split/coarsen NPR caps, default derived
	Coarsen       bool    `json:"coarsen,omitempty"`        // admit coarsen transforms
	Reprioritize  bool    `json:"reprioritize,omitempty"`   // admit priority moves
	Beam          int     `json:"beam,omitempty"`           // greedy frontier width, default 4
	MaxCandidates int     `json:"max_candidates,omitempty"` // anytime candidate cap, default 4096
	Seed          int64   `json:"seed,omitempty"`           // tie-break pin
	TimeoutMs     int     `json:"timeout_ms,omitempty"`     // anytime wall-clock budget, 0 = none
	Apply         bool    `json:"apply,omitempty"`          // commit the repair when it fixes the set
}

// repairConfig validates the request at the wire boundary (so
// dag.Split's maxNPR panic is unreachable from a request body) and
// lifts it into a repair.Config.
func (req sessionRepairRequest) repairConfig() (repair.Config, error) {
	strategy, err := repair.ParseStrategy(req.Strategy)
	if err != nil {
		return repair.Config{}, err
	}
	for _, q := range req.Budgets {
		if err := ppp.CheckMaxNPR(q); err != nil {
			return repair.Config{}, err
		}
	}
	if req.TimeoutMs < 0 {
		return repair.Config{}, fmt.Errorf("engine: invalid timeout_ms: %d (must be ≥ 0)", req.TimeoutMs)
	}
	cfg := repair.Config{
		Strategy:      strategy,
		MaxSteps:      req.MaxSteps,
		Budgets:       req.Budgets,
		Coarsen:       req.Coarsen,
		Reprioritize:  req.Reprioritize,
		Beam:          req.Beam,
		MaxCandidates: req.MaxCandidates,
		Seed:          req.Seed,
	}
	if err := cfg.Validate(); err != nil {
		return repair.Config{}, err
	}
	return cfg, nil
}

// repairLead renders the members of a POST …/repair response before its
// report: eight scalars, then "transforms", one object per step whose
// max_npr and to are left out when zero.
func repairLead(res *repair.Result, applied bool) []byte {
	ind, step, field := indent(1), indent(2), indent(3)
	buf := strconv.AppendBool(appendNext(nil, ind, `"fixed": `), res.Fixed)
	buf = strconv.AppendBool(appendNext(buf, ind, `"stopped": `), res.Stopped)
	buf = strconv.AppendBool(appendNext(buf, ind, `"applied": `), applied)
	buf = strconv.AppendInt(appendNext(buf, ind, `"candidates": `), int64(res.Candidates), 10)
	buf = strconv.AppendInt(appendNext(buf, ind, `"failing_before": `), int64(res.FailingBefore), 10)
	buf = strconv.AppendInt(appendNext(buf, ind, `"failing_after": `), int64(res.FailingAfter), 10)
	buf = strconv.AppendInt(appendNext(buf, ind, `"slack_before": `), res.SlackBefore, 10)
	buf = strconv.AppendInt(appendNext(buf, ind, `"slack_after": `), res.SlackAfter, 10)
	buf = appendNext(buf, ind, `"transforms": [`)
	for _, tr := range res.Transforms {
		buf = appendNext(buf, step, "{")
		buf = jsonwire.AppendString(appendNext(buf, field, `"op": `), tr.Op.String())
		buf = jsonwire.AppendString(appendNext(buf, field, `"task": `), tr.Task)
		if tr.MaxNPR != 0 {
			buf = strconv.AppendInt(appendNext(buf, field, `"max_npr": `), tr.MaxNPR, 10)
		}
		if tr.To != 0 {
			buf = strconv.AppendInt(appendNext(buf, field, `"to": `), int64(tr.To), 10)
		}
		buf = append(append(buf, step...), '}')
	}
	if len(res.Transforms) > 0 {
		buf = append(buf, ind...)
	}
	return append(buf, ']')
}

func (s *Server) handleSessionRepair(w http.ResponseWriter, r *http.Request) {
	var req sessionRepairRequest
	if !s.decode(w, r, &req) {
		return
	}
	cfg, err := req.repairConfig()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	t0 := time.Now()
	v, err := s.sessions.Do(r.Context(), id,
		func(ctx context.Context, sess *session.Session) (any, error) {
			if req.TimeoutMs > 0 {
				// The timeout is the anytime budget, not a failure
				// mode: when it strikes, Repair returns the best
				// partial repair with Stopped set.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
				defer cancel()
			}
			return sess.Repair(ctx, cfg, req.Apply)
		})
	if err != nil {
		s.setSessionEpoch(w, id) // an applied repair bumps the epoch
		s.writeError(w, statusForSessionError(err), "session repair: %v", err)
		return
	}
	res := v.(*repair.Result)
	s.sessions.ObserveRepair(res, time.Since(t0))
	s.setSessionEpoch(w, id)
	applied := req.Apply && res.Fixed && len(res.Transforms) > 0
	s.writeReport(w, http.StatusOK, repairLead(res, applied), res.Report)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.redirectSession(w, r, id) {
		return
	}
	if !s.sessions.Delete(id) {
		s.writeError(w, http.StatusNotFound, "%v", ErrSessionNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionHandoff accepts a stream of 'S' snapshot frames from a
// draining peer and installs each (marking it freshly used, persisting
// it to this node's store). Snapshots older than a live local session's
// epoch are rejected as stale — a late duplicate push must not roll a
// session back. The response counts both outcomes so the sender can log
// what landed.
func (s *Server) handleSessionHandoff(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	rd := wire.NewReader(body, int(s.cfg.MaxBodyBytes))
	installed, stale := 0, 0
	for {
		typ, payload, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "handoff: %v", err)
			return
		}
		if typ != wire.FrameSnapshot {
			s.writeError(w, http.StatusBadRequest, "handoff: unexpected frame type %q", typ)
			return
		}
		snap, err := session.DecodeSnapshot(payload)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "handoff: %v", err)
			return
		}
		// A peer's frame is client input: it gets the request core bound
		// (restores from this node's own store do not).
		if err := CheckCores(snap.Opts.Cores); err != nil {
			s.writeError(w, http.StatusBadRequest, "handoff: %v", err)
			return
		}
		switch err := s.sessions.Install(snap, true, true); {
		case err == nil:
			s.handoffs.Inc()
			installed++
		case errors.Is(err, ErrStaleSnapshot):
			stale++
		default:
			s.writeError(w, statusForSessionError(err), "handoff: %v", err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"installed": installed, "stale": stale})
}

// DrainSessions flushes every live session to the durable store and
// hands each off to its next ring owner over POST /v1/sessions/handoff.
// Call after StartDraining and before closing the listener; it is the
// graceful-shutdown half of durability (kill -9 relies on the store
// alone). Errors are aggregated, not fatal: a peer that cannot be
// reached simply keeps its sessions in this node's store for takeover.
func (s *Server) DrainSessions(ctx context.Context, client *http.Client) error {
	s.sessions.FlushAll()
	if s.ring == nil || s.ring.Len() < 2 {
		return nil
	}
	if client == nil {
		client = http.DefaultClient
	}
	snaps := s.sessions.SnapshotAll()
	byTarget := make(map[string][]*session.Snapshot)
	for _, snap := range snaps {
		target := s.ring.Next(snap.ID, s.self)
		if target == "" {
			continue
		}
		byTarget[target] = append(byTarget[target], snap)
	}
	targets := make([]string, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets) // deterministic push order for tests and logs
	var errs []error
	for _, target := range targets {
		if st := s.cfg.SessionStore; st != nil && st.Fault().handoffDropped() {
			errs = append(errs, fmt.Errorf("handoff to %s: dropped (fault injection)", target))
			continue
		}
		var buf []byte
		for _, snap := range byTarget[target] {
			payload, err := snap.Append(nil)
			if err != nil {
				errs = append(errs, fmt.Errorf("encode %s: %w", snap.ID, err))
				continue
			}
			buf = wire.AppendFrame(buf, wire.FrameSnapshot, payload)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			target+"/v1/sessions/handoff", bytes.NewReader(buf))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := client.Do(req)
		if err != nil {
			errs = append(errs, fmt.Errorf("handoff to %s: %w", target, err))
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs = append(errs, fmt.Errorf("handoff to %s: HTTP %d", target, resp.StatusCode))
		}
	}
	return errors.Join(errs...)
}

// statusForSessionError maps session-layer failures onto HTTP codes.
func statusForSessionError(err error) int {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManySessions), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
