package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/limits"
	"repro/internal/model"
	"repro/internal/session"
	"repro/internal/wire"
)

// list renders a JSON array of n copies of elem.
func list(n int64, elem string) string {
	return "[" + strings.TrimSuffix(strings.Repeat(elem+",", int(n)), ",") + "]"
}

// handoffBody frames one snapshot of tasks on cores as a hand-off body.
func handoffBody(t *testing.T, id string, cores int, tasks ...*model.Task) string {
	t.Helper()
	snap := &session.Snapshot{ID: id, Epoch: 1, Opts: core.Options{Cores: cores, Method: core.LPILP}, Tasks: tasks}
	payload, err := snap.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(wire.AppendFrame(nil, wire.FrameSnapshot, payload))
}

// builtTask returns a task of n unconnected unit nodes plus the given
// edges, built in process (which no shape bound limits).
func builtTask(name string, n int, edges [][2]int) *model.Task {
	var b dag.Builder
	for range n {
		b.AddNode(1)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return &model.Task{Name: name, G: b.MustBuild(), Deadline: 100000, Period: 100000}
}

// bipartite returns n distinct edges from 128 sources to the 65 nodes
// after them (193 nodes in all), so that 8193 edges fit in one DAG.
func bipartite(n int64) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i % 128, 128 + i/128}
	}
	return out
}

func edgesJSON(edges [][2]int) string {
	b, _ := json.Marshal(edges)
	return string(b)
}

// handoffID is the session id of a hand-off probe carrying value v of
// bound b.
func handoffID(b limits.Bound, v int64) string {
	if b == limits.SessionID {
		return strings.Repeat("i", int(v))
	}
	return fmt.Sprint("probe-", b.Field, "-", v)
}

// TestCoreBound pins every bound of internal/limits on each route that
// carries it: a value one past the bound answers the bound's 400 within
// 10 ms and starts no job, and the bound itself is admitted. The probes
// that once pinned a worker — 20000 cores on analyze, a session create
// or a set_cores edit, 2000000 on simulate, and a 1 KB analyze body at
// 200000000 cores that ran a node out of memory — are rows of the
// table. A handler that started the work would take longer on every
// attempt, so the fastest of three is timed, which keeps a scheduler
// hiccup from failing the test. A body past 8 KiB gets
// largeBodyBudget, which the race detector's slowdown of decoding
// needs. A refused hand-off installs nothing, and each one at its bound
// installs its session. Admitted bodies run under a cancelled context,
// so that nothing is computed for them.
func TestCoreBound(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	experiments.Mount(srv)
	const task = `{"name":"a","wcet":[10],"edges":[],"deadline":100,"period":100}`
	set := `{"tasks":[` + task + `,{"name":"b","wcet":[20,5],"edges":[[0,1]],"deadline":150,"period":200}]}`
	w := post(t, srv, "/v1/sessions", `{"cores": 4, "taskset": `+set+`}`)
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); w.Code != http.StatusCreated || err != nil {
		t.Fatalf("create: status %d, err %v: %s", w.Code, err, w.Body)
	}
	live := "/v1/sessions/" + created.ID
	installs := 0 // the hand-offs at their bound

	// Bodies carrying a value v of one field.
	analyze := func(ts string) string { return `{"requests": [{"taskset": ` + ts + `}]}` }
	nodes := func(v int64) string {
		return `{"tasks":[{"name":"w","wcet":` + list(v, "1") + `,"edges":[],"deadline":100000,"period":100000}]}`
	}
	edges := func(v int64) string {
		return `{"tasks":[{"name":"c","wcet":` + list(193, "1") + `,"edges":` + edgesJSON(bipartite(v)) + `,"deadline":100000,"period":100000}]}`
	}
	name := func(v int64) string {
		return `{"tasks":[{"name":"` + strings.Repeat("n", int(v)) + `","wcet":[1],"edges":[],"deadline":9,"period":9}]}`
	}
	tasks := func(v int64) string { return `{"tasks":` + list(v, "null") + `}` }
	campaign := func(body string) string { return `{"seed":1,"scenarios":["mixed"],` + body + `}` }
	fracs := func(n int64) string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(float64(i+1) / 10000)
		}
		return "[" + strings.Join(out, ",") + "]"
	}
	// perPoint is a one-point grid of v analyses as sets × methods:
	// 200 × 1250 at the bound, 53 × 4717 one past it.
	perPoint := func(v int64) string {
		sets := int64(200)
		if v%sets != 0 {
			sets = 53
		}
		return fmt.Sprintf(`"ms":[2],"u_fracs":[0.5],"sets_per_point":%d,"methods":%s`, sets, list(v/sets, `"lp-ilp"`))
	}
	derivedPoints := limits.Points
	derivedPoints.Max = 416
	snapTasks := func(n int64) []*model.Task {
		out := make([]*model.Task, n)
		for i := range out {
			out[i] = builtTask(fmt.Sprintf("t%d", i), 1, nil)
		}
		return out
	}

	// The core probes that once pinned a worker, besides 65.
	coreProbes := map[string][]int64{
		"/v1/analyze": {20000, 200000000, -1}, "/v1/simulate": {2000000}, "/v1/sessions": {20000},
		live + "/edits": {20000}, "/v1/sessions/handoff": {200000000},
	}
	for _, tc := range []struct {
		bound limits.Bound
		path  string
		body  func(v int64) string
	}{
		{limits.Cores, "/v1/analyze", func(v int64) string { return fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}]}`, v, set) }},
		{limits.Cores, "/v1/simulate", func(v int64) string { return fmt.Sprintf(`{"cores": %d, "taskset": %s}`, v, set) }},
		{limits.Cores, "/v1/sessions", func(v int64) string { return fmt.Sprintf(`{"cores": %d, "taskset": %s}`, v, set) }},
		{limits.Cores, live + "/edits", func(v int64) string { return fmt.Sprintf(`{"edits": [{"op": "set_cores", "cores": %d}]}`, v) }},
		{limits.Cores, "/v1/campaign", func(v int64) string { return campaign(fmt.Sprintf(`"ms":[%d]`, v)) }},
		{limits.Cores, "/v1/sessions/handoff", func(v int64) string { return handoffBody(t, handoffID(limits.Cores, v), int(v), snapTasks(1)...) }},
		{limits.Batch, "/v1/analyze", func(v int64) string { return `{"requests": ` + list(v, "{}") + `}` }},
		{limits.Count, "/v1/generate", func(v int64) string { return fmt.Sprintf(`{"count": %d}`, v) }},
		{limits.Duration, "/v1/simulate", func(v int64) string { return fmt.Sprintf(`{"duration": %d, "taskset": %s}`, v, set) }},
		{limits.Jobs, "/v1/simulate", func(v int64) string { return fmt.Sprintf(`{"max_jobs": %d, "taskset": %s}`, v, set) }},
		{limits.Utilization, "/v1/generate", func(v int64) string { return fmt.Sprintf(`{"utilization": %d}`, v) }},
		{limits.Tasks, "/v1/generate", func(v int64) string { return fmt.Sprintf(`{"tasks": %d}`, v) }},
		{limits.Tasks, "/v1/analyze", func(v int64) string { return analyze(tasks(v)) }},
		{limits.Tasks, "/v1/simulate", func(v int64) string { return `{"taskset": ` + tasks(v) + `}` }},
		{limits.Tasks, "/v1/sessions", func(v int64) string { return `{"taskset": ` + tasks(v) + `}` }},
		{limits.Tasks, "/v1/sessions/handoff", func(v int64) string { return handoffBody(t, handoffID(limits.Tasks, v), 4, snapTasks(v)...) }},
		{limits.Nodes, "/v1/analyze", func(v int64) string { return analyze(nodes(v)) }},
		{limits.Nodes, "/v1/simulate", func(v int64) string { return `{"taskset": ` + nodes(v) + `}` }},
		{limits.Nodes, "/v1/sessions", func(v int64) string { return `{"taskset": ` + nodes(v) + `}` }},
		{limits.Nodes, live + "/admit", func(v int64) string {
			return `{"task": ` + strings.TrimSuffix(strings.TrimPrefix(nodes(v), `{"tasks":[`), `]}`) + `}`
		}},
		{limits.Nodes, live + "/edits", func(v int64) string {
			return `{"edits": [{"op": "add", "task": ` + strings.TrimSuffix(strings.TrimPrefix(nodes(v), `{"tasks":[`), `]}`) + `}]}`
		}},
		{limits.Nodes, "/v1/sessions/handoff", func(v int64) string {
			return handoffBody(t, handoffID(limits.Nodes, v), 4, builtTask("w", int(v), nil))
		}},
		{limits.Edges, "/v1/analyze", func(v int64) string { return analyze(edges(v)) }},
		{limits.Edges, "/v1/sessions/handoff", func(v int64) string {
			return handoffBody(t, handoffID(limits.Edges, v), 4, builtTask("c", 193, bipartite(v)))
		}},
		{limits.Name, "/v1/analyze", func(v int64) string { return analyze(name(v)) }},
		{limits.Name, "/v1/sessions/handoff", func(v int64) string {
			return handoffBody(t, handoffID(limits.Name, v), 4, &model.Task{Name: strings.Repeat("n", int(v)), G: builtTask("", 1, nil).G, Deadline: 9, Period: 9})
		}},
		{limits.SessionID, "/v1/sessions/handoff", func(v int64) string { return handoffBody(t, handoffID(limits.SessionID, v), 4, snapTasks(1)...) }},
		{limits.Points, "/v1/campaign", func(v int64) string {
			return campaign(`"ms":[2],"sets_per_point":1,"methods":["lp-ilp"],"u_fracs":` + fracs(v))
		}},
		{limits.Sets, "/v1/campaign", func(v int64) string { return campaign(fmt.Sprintf(`"sets_per_point":%d`, v)) }},
		{limits.Analyses, "/v1/campaign", func(v int64) string { return campaign(perPoint(v)) }},
		// A campaign's points are bounded by limits.Points, fewer where
		// their analyses would pass limits.Analyses: ⌊250000 / (200 · 3)⌋.
		{derivedPoints, "/v1/campaign", func(v int64) string {
			return campaign(`"ms":[2],"sets_per_point":200,"methods":["lp-ilp","lp-max","fp-ideal"],"u_fracs":` + fracs(v))
		}},
		{limits.Candidates, live + "/repair", func(v int64) string { return fmt.Sprintf(`{"max_candidates": %d}`, v) }},
	} {
		probes := []int64{tc.bound.Max + 1}
		if tc.bound == limits.Cores {
			probes = append(probes, coreProbes[tc.path]...)
		}
		for _, past := range probes {
			want := limits.Check(tc.bound, past).Error()
			body := tc.body(past)
			budget := 10 * time.Millisecond
			if len(body) > 8<<10 {
				budget = largeBodyBudget
			}
			before := eng.Stats()
			fastest := time.Hour
			for range 3 {
				start := time.Now()
				w = post(t, srv, tc.path, body)
				fastest = min(fastest, time.Since(start))
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
					t.Fatalf("%s %s %d: status %d %.200s, want 400 %q", tc.path, tc.bound.Field, past, w.Code, w.Body, want)
				}
			}
			if fastest > budget {
				t.Errorf("%s %s %d: 400 took %v, want under %v", tc.path, tc.bound.Field, past, fastest, budget)
			}
			if after := eng.Stats(); after.JobsServed() != before.JobsServed() || after.Failed != before.Failed {
				t.Errorf("%s %s %d: a refused request ran a job", tc.path, tc.bound.Field, past)
			}
			if tc.path != "/v1/sessions/handoff" {
				continue
			}
			if w = get(t, srv, "/v1/sessions/"+handoffID(tc.bound, past)+"/report"); w.Code != http.StatusNotFound {
				t.Errorf("refused hand-off %s %d: status %d: %.200s, want 404", tc.bound.Field, past, w.Code, w.Body)
			}
		}

		// The bound itself is admitted: whatever the cancelled job
		// answers, it is not the bound's refusal.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body(tc.bound.Max))).WithContext(cancelled))
		if refused := fmt.Sprintf("invalid %s: %d ", tc.bound.Field, tc.bound.Max); strings.Contains(rec.Body.String(), refused) {
			t.Errorf("%s %s %d: the bound itself was refused: %.200s", tc.path, tc.bound.Field, tc.bound.Max, rec.Body)
		}
		if tc.path == "/v1/sessions/handoff" {
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"installed": 1`) {
				t.Errorf("hand-off %s %d: status %d %.200s, want it installed", tc.bound.Field, tc.bound.Max, rec.Code, rec.Body)
			}
			installs++
		}
	}

	// A per-element core override past the bound fails only its
	// element, and the bound itself is a valid core count.
	w = post(t, srv, "/v1/analyze", `{"requests": [{"taskset": `+set+`, "cores": 20000}, {"taskset": `+set+`, "cores": 64}]}`)
	var resp struct {
		Results []struct {
			Error string `json:"error"`
			Cores int    `json:"cores"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || len(resp.Results) != 2 {
		t.Fatalf("override batch: status %d, err %v: %s", w.Code, err, w.Body)
	}
	if got := resp.Results[0].Error; got != "invalid cores: 20000 (must be in [1, 64])" {
		t.Errorf("override element error = %q", got)
	}
	if r := resp.Results[1]; r.Error != "" || r.Cores != 64 {
		t.Errorf("64-core element: %+v", r)
	}

	// The refused edits left the session untouched, the node holds it
	// and the hand-offs at their bound alone, and it is healthy.
	w = get(t, srv, live+"/report")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"cores": 4`) || strings.Contains(w.Body.String(), `"w"`) {
		t.Errorf("session after refused edits: status %d: %s", w.Code, w.Body)
	}
	w = get(t, srv, "/healthz")
	var health struct {
		Status         string `json:"status"`
		ActiveSessions int    `json:"active_sessions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil || health.Status != "ok" || health.ActiveSessions != 1+installs {
		t.Errorf("healthz after the probes (%d hand-offs at their bound): status %d: %s", installs, w.Code, w.Body)
	}
}

// TestWrapProbeRefused pins the no-wrap rule on the serving path: the
// task whose m-scaled bound once wrapped (one node of WCET 2^62 with
// D = T = 2^62 on three cores, reported SCHEDULABLE with a negative R)
// fails its /v1/analyze element naming the task, beside an element
// that analyzes, and a session of it is not created.
func TestWrapProbeRefused(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	const probe = `{"tasks":[{"name":"huge","wcet":[4611686018427387904],"edges":[],"deadline":4611686018427387904,"period":4611686018427387904}]}`
	w := post(t, h, "/v1/analyze", `{"cores": 3, "requests": [{"taskset": `+probe+`}, {"taskset": `+probe+`, "cores": 1}]}`)
	var resp struct {
		Results []struct {
			Error       string `json:"error"`
			Schedulable bool   `json:"schedulable"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || len(resp.Results) != 2 {
		t.Fatalf("analyze: status %d, err %v: %s", w.Code, err, w.Body)
	}
	want := `rta: task "huge": response-time terms scaled by m = 3 overflow int64`
	if r := resp.Results[0]; r.Error != want || r.Schedulable {
		t.Errorf("3-core element: %+v, want error %q", r, want)
	}
	if r := resp.Results[1]; r.Error != "" || !r.Schedulable {
		t.Errorf("1-core element: %+v, want schedulable", r)
	}
	w = post(t, h, "/v1/sessions", `{"cores": 3, "taskset": `+probe+`}`)
	var refused struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &refused); w.Code != http.StatusBadRequest || err != nil || !strings.Contains(refused.Error, want) {
		t.Errorf("session create: status %d %s, want 400 %q", w.Code, w.Body, want)
	}
	if w = get(t, h, "/healthz"); !strings.Contains(w.Body.String(), `"active_sessions": 0`) {
		t.Errorf("a refused create left a session: %s", w.Body)
	}
}

// TestHandoffBodyCap pins that the hand-off reads its body through the
// server's one body reader: on a node with -max-body 1024, a 1.5 KB
// one-frame hand-off answers the simulate route's 413 byte for byte,
// where it once answered 400 "frame payload 1500 exceeds limit 1024".
func TestHandoffBodyCap(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{MaxBodyBytes: 1024})
	frame := string(wire.AppendFrame(nil, wire.FrameSnapshot, make([]byte, 1500)))
	handoff := post(t, h, "/v1/sessions/handoff", frame)
	simulate := post(t, h, "/v1/simulate", `{"taskset": "`+strings.Repeat("x", 1500)+`"}`)
	if handoff.Code != http.StatusRequestEntityTooLarge || handoff.Code != simulate.Code ||
		handoff.Body.String() != simulate.Body.String() {
		t.Fatalf("hand-off %d %s, simulate %d %s; want the same 413", handoff.Code, handoff.Body, simulate.Code, simulate.Body)
	}
}
