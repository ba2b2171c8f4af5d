package main

// Remote backend for the -session REPL: the same interactive shell, but
// the session lives in an lpdag-serve cluster instead of this process.
// The client holds a mirror of the task list and options purely for
// local display (tasks listing, verdict strings); every analysis
// question goes over the wire.
//
// Fault tolerance matches the serving side's design: transport errors
// rotate to the next peer with capped jittered backoff (a killed node's
// replacement, or a surviving peer holding the handed-off session,
// answers eventually), and 307 responses re-aim the whole conversation
// at the owner named by X-Lpdag-Session-Owner.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/session"
)

// sessionBackend is what the REPL loop drives: the local
// *session.Session satisfies it directly, remoteSession speaks it over
// HTTP.
type sessionBackend interface {
	Len() int
	Tasks() []*model.Task
	TaskIndex(name string) int
	AddTask(t *model.Task, at int) error
	RemoveTask(i int) (*model.Task, error)
	SetPriority(from, to int) error
	SetCores(m int) error
	SetMethod(m core.Method) error
	Report(ctx context.Context) (*core.Report, error)
	TryAdmit(ctx context.Context, t *model.Task, at int) (*core.Report, error)
	Sensitivity(ctx context.Context, i, maxPermille int) (int, error)
	Repair(ctx context.Context, cfg repair.Config, apply bool) (*repair.Result, error)
}

var _ sessionBackend = (*session.Session)(nil)

const (
	remoteMaxAttempts = 8
	remoteBackoffBase = 100 * time.Millisecond
	remoteBackoffCap  = 2 * time.Second
)

// remoteSession drives a server-side session over the /v1/sessions API.
// Not safe for concurrent use (the REPL is sequential).
type remoteSession struct {
	peers  []string // candidate base URLs, rotated on transport failure
	cur    int      // index into peers currently targeted
	id     string
	client *http.Client
	opts   core.Options  // mirror: cores/method for display
	tasks  []*model.Task // mirror: priority order, for tasks/TaskIndex/save
	epoch  uint64        // last X-Lpdag-Session-Epoch seen
	sleep  func(time.Duration)
}

// newRemoteSession creates the server-side session on one of peers.
func newRemoteSession(peers []string, opts core.Options, tasks []*model.Task) (*remoteSession, error) {
	methodWire, err := engine.MethodWire(opts.Method)
	if err != nil {
		return nil, err
	}
	rs := &remoteSession{
		peers: peers,
		// Redirects are followed manually: a 307 carries the owner's base
		// URL, which must re-aim every later request, not just this one.
		client: &http.Client{
			Timeout:       60 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		opts:  opts,
		tasks: append([]*model.Task(nil), tasks...),
		sleep: time.Sleep,
	}
	body := map[string]any{
		"cores": opts.Cores, "method": methodWire, "backend": opts.Backend.String(),
		"final_npr": opts.FinalNPRRefinement,
	}
	if len(tasks) > 0 {
		body["taskset"] = &model.TaskSet{Tasks: rs.tasks}
	}
	var resp struct {
		ID     string          `json:"id"`
		Report json.RawMessage `json:"report"`
	}
	if err := rs.do(http.MethodPost, "/v1/sessions", body, &resp); err != nil {
		return nil, err
	}
	rs.id = resp.ID
	return rs, nil
}

// do issues one API call with peer rotation, capped jittered backoff,
// and manual 307 following, then decodes the JSON response into out.
func (rs *remoteSession) do(method, path string, body any, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < remoteMaxAttempts; attempt++ {
		base := rs.peers[rs.cur]
		req, err := http.NewRequest(method, base+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rs.client.Do(req)
		if err != nil {
			// Transport failure: the node may be gone. Rotate to the next
			// peer after a capped, jittered pause — a redeploying node
			// needs a beat, and synchronized clients must not stampede.
			lastErr = err
			rs.cur = (rs.cur + 1) % len(rs.peers)
			rs.sleep(jitteredBackoff(attempt))
			continue
		}
		if resp.StatusCode == http.StatusTemporaryRedirect {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			owner := resp.Header.Get("X-Lpdag-Session-Owner")
			if owner == "" {
				return errors.New("redirect without X-Lpdag-Session-Owner")
			}
			rs.retarget(owner)
			lastErr = fmt.Errorf("redirected to %s", owner)
			continue // no sleep: the owner is presumed alive
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			rs.cur = (rs.cur + 1) % len(rs.peers)
			rs.sleep(jitteredBackoff(attempt))
			continue
		}
		if e := resp.Header.Get("X-Lpdag-Session-Epoch"); e != "" {
			if v, err := strconv.ParseUint(e, 10, 64); err == nil {
				rs.epoch = v
			}
		}
		if resp.StatusCode >= 400 {
			var apiErr struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
				return errors.New(apiErr.Error)
			}
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}
	return fmt.Errorf("no reachable session node after %d attempts: %w", remoteMaxAttempts, lastErr)
}

// retarget makes owner the current peer, adding it if the configured
// list does not name it (a replacement node the operator spun up).
func (rs *remoteSession) retarget(owner string) {
	for i, p := range rs.peers {
		if p == owner {
			rs.cur = i
			return
		}
	}
	rs.peers = append(rs.peers, owner)
	rs.cur = len(rs.peers) - 1
}

// jitteredBackoff is min(cap, base<<attempt), halved plus a random half
// so synchronized retriers spread out.
func jitteredBackoff(attempt int) time.Duration {
	d := remoteBackoffBase << attempt
	if d > remoteBackoffCap || d <= 0 {
		d = remoteBackoffCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// coreReport lifts the API's report JSON back into a *core.Report so
// the REPL prints identically against both backends. Method is taken
// from the client mirror (the wire carries the display spelling).
func (rs *remoteSession) coreReport(raw json.RawMessage) (*core.Report, error) {
	var rep struct {
		Schedulable bool    `json:"schedulable"`
		Cores       int     `json:"cores"`
		Utilization float64 `json:"utilization"`
		Tasks       []struct {
			Name         string `json:"name"`
			Schedulable  bool   `json:"schedulable"`
			Analyzed     bool   `json:"analyzed"`
			ResponseTime int64  `json:"response_time"`
			Deadline     int64  `json:"deadline"`
			DeltaM       int64  `json:"delta_m"`
			DeltaM1      int64  `json:"delta_m1"`
			Preemptions  int64  `json:"preemptions"`
			Iterations   int    `json:"iterations"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	out := &core.Report{
		Schedulable: rep.Schedulable,
		Method:      rs.opts.Method,
		Cores:       rep.Cores,
		Utilization: rep.Utilization,
		Tasks:       make([]core.TaskReport, len(rep.Tasks)),
	}
	for i, t := range rep.Tasks {
		out.Tasks[i] = core.TaskReport{
			Name: t.Name, Schedulable: t.Schedulable, Analyzed: t.Analyzed,
			ResponseTime: t.ResponseTime, Deadline: t.Deadline,
			DeltaM: t.DeltaM, DeltaM1: t.DeltaM1,
			Preemptions: t.Preemptions, Iterations: t.Iterations,
		}
	}
	return out, nil
}

func (rs *remoteSession) Len() int             { return len(rs.tasks) }
func (rs *remoteSession) Tasks() []*model.Task { return append([]*model.Task(nil), rs.tasks...) }

func (rs *remoteSession) TaskIndex(name string) int {
	for i, t := range rs.tasks {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// editResponse is the POST edits reply.
type editResponse struct {
	Report json.RawMessage `json:"report"`
}

func (rs *remoteSession) edits(batch []map[string]any) error {
	var resp editResponse
	return rs.do(http.MethodPost, "/v1/sessions/"+rs.id+"/edits",
		map[string]any{"edits": batch}, &resp)
}

func (rs *remoteSession) AddTask(t *model.Task, at int) error {
	raw, err := json.Marshal(t)
	if err != nil {
		return err
	}
	edit := map[string]any{"op": session.OpAdd, "task": json.RawMessage(raw)}
	if at >= 0 {
		edit["at"] = at
	}
	if err := rs.edits([]map[string]any{edit}); err != nil {
		return err
	}
	if at < 0 || at > len(rs.tasks) {
		at = len(rs.tasks)
	}
	rs.tasks = append(rs.tasks[:at], append([]*model.Task{t}, rs.tasks[at:]...)...)
	return nil
}

func (rs *remoteSession) RemoveTask(i int) (*model.Task, error) {
	if err := rs.edits([]map[string]any{{"op": session.OpRemove, "index": i}}); err != nil {
		return nil, err
	}
	t := rs.tasks[i]
	rs.tasks = append(rs.tasks[:i], rs.tasks[i+1:]...)
	return t, nil
}

func (rs *remoteSession) SetPriority(from, to int) error {
	if err := rs.edits([]map[string]any{{"op": session.OpSetPriority, "from": from, "to": to}}); err != nil {
		return err
	}
	t := rs.tasks[from]
	rest := append(rs.tasks[:from:from], rs.tasks[from+1:]...)
	rs.tasks = append(rest[:to:to], append([]*model.Task{t}, rest[to:]...)...)
	return nil
}

func (rs *remoteSession) SetCores(m int) error {
	if err := rs.edits([]map[string]any{{"op": session.OpSetCores, "cores": m}}); err != nil {
		return err
	}
	rs.opts.Cores = m
	return nil
}

func (rs *remoteSession) SetMethod(m core.Method) error {
	wire, err := engine.MethodWire(m)
	if err != nil {
		return err
	}
	if err := rs.edits([]map[string]any{{"op": session.OpSetMethod, "method": wire}}); err != nil {
		return err
	}
	rs.opts.Method = m
	return nil
}

func (rs *remoteSession) Report(ctx context.Context) (*core.Report, error) {
	var resp struct {
		Report json.RawMessage `json:"report"`
	}
	if err := rs.do(http.MethodGet, "/v1/sessions/"+rs.id+"/report", nil, &resp); err != nil {
		return nil, err
	}
	return rs.coreReport(resp.Report)
}

func (rs *remoteSession) TryAdmit(ctx context.Context, t *model.Task, at int) (*core.Report, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	body := map[string]any{"task": json.RawMessage(raw)}
	if at >= 0 {
		body["at"] = at
	}
	var resp struct {
		Admitted bool            `json:"admitted"`
		Report   json.RawMessage `json:"report"`
	}
	if err := rs.do(http.MethodPost, "/v1/sessions/"+rs.id+"/admit", body, &resp); err != nil {
		return nil, err
	}
	return rs.coreReport(resp.Report)
}

func (rs *remoteSession) Sensitivity(ctx context.Context, i, maxPermille int) (int, error) {
	var resp struct {
		Permille int `json:"permille"`
	}
	err := rs.do(http.MethodPost, "/v1/sessions/"+rs.id+"/sensitivity",
		map[string]any{"index": i, "max_permille": maxPermille}, &resp)
	return resp.Permille, err
}

// Repair runs the server-side placement search. The response carries
// the transform sequence, so a server-applied repair can be replayed
// onto the local task mirror with repair.Apply; Result.Tasks is left
// nil (the REPL prints transforms and the lifted report, not tasks).
func (rs *remoteSession) Repair(ctx context.Context, cfg repair.Config, apply bool) (*repair.Result, error) {
	body := map[string]any{"strategy": cfg.Strategy.String(), "apply": apply}
	if cfg.MaxSteps > 0 {
		body["max_steps"] = cfg.MaxSteps
	}
	if len(cfg.Budgets) > 0 {
		body["budgets"] = cfg.Budgets
	}
	if cfg.Coarsen {
		body["coarsen"] = true
	}
	if cfg.Reprioritize {
		body["reprioritize"] = true
	}
	if cfg.Beam > 0 {
		body["beam"] = cfg.Beam
	}
	if cfg.MaxCandidates > 0 {
		body["max_candidates"] = cfg.MaxCandidates
	}
	if cfg.Seed != 0 {
		body["seed"] = cfg.Seed
	}
	var resp struct {
		Fixed         bool  `json:"fixed"`
		Stopped       bool  `json:"stopped"`
		Applied       bool  `json:"applied"`
		Candidates    int   `json:"candidates"`
		FailingBefore int   `json:"failing_before"`
		FailingAfter  int   `json:"failing_after"`
		SlackBefore   int64 `json:"slack_before"`
		SlackAfter    int64 `json:"slack_after"`
		Transforms    []struct {
			Op     string `json:"op"`
			Task   string `json:"task"`
			MaxNPR int64  `json:"max_npr"`
			To     int    `json:"to"`
		} `json:"transforms"`
		Report json.RawMessage `json:"report"`
	}
	if err := rs.do(http.MethodPost, "/v1/sessions/"+rs.id+"/repair", body, &resp); err != nil {
		return nil, err
	}
	res := &repair.Result{
		Fixed:         resp.Fixed,
		Stopped:       resp.Stopped,
		Candidates:    resp.Candidates,
		FailingBefore: resp.FailingBefore,
		FailingAfter:  resp.FailingAfter,
		SlackBefore:   resp.SlackBefore,
		SlackAfter:    resp.SlackAfter,
		Transforms:    make([]repair.Transform, len(resp.Transforms)),
	}
	for i, t := range resp.Transforms {
		op, err := repair.ParseOp(t.Op)
		if err != nil {
			return nil, err
		}
		res.Transforms[i] = repair.Transform{Op: op, Task: t.Task, MaxNPR: t.MaxNPR, To: t.To}
	}
	rep, err := rs.coreReport(resp.Report)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	if resp.Applied {
		tasks, err := repair.Apply(rs.tasks, res.Transforms)
		if err != nil {
			return nil, fmt.Errorf("replaying applied repair onto local mirror: %w", err)
		}
		rs.tasks = tasks
	}
	return res, nil
}

// Close drops the server-side session (best effort: TTL expiry cleans
// up after unreachable servers).
func (rs *remoteSession) Close() {
	rs.do(http.MethodDelete, "/v1/sessions/"+rs.id, nil, nil)
}
