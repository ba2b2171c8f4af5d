package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lpdag "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/session"
)

// sessionReport is the wire shape of a session report response.
type sessionReport struct {
	Schedulable bool   `json:"schedulable"`
	Method      string `json:"method"`
	Cores       int    `json:"cores"`
	Tasks       []struct {
		Name         string `json:"name"`
		Schedulable  bool   `json:"schedulable"`
		ResponseTime int64  `json:"response_time"`
	} `json:"tasks"`
}

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodDelete, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// createSession posts the Figure 1 example as a new session and returns
// its id and initial report.
func createSession(t *testing.T, h http.Handler) (string, sessionReport) {
	t.Helper()
	w := post(t, h, "/v1/sessions", fmt.Sprintf(
		`{"cores": %d, "method": "lp-ilp", "taskset": %s}`, fixture.M, paperExampleJSON(t)))
	if w.Code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		ID     string        `json:"id"`
		Report sessionReport `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("create session: empty id")
	}
	return resp.ID, resp.Report
}

// TestSessionLifecycleHTTP drives a session end to end over the HTTP
// surface: create, report, edits, admit (no commit), sensitivity,
// delete, and pins the reports against the direct library results.
func TestSessionLifecycleHTTP(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	id, created := createSession(t, h)

	want, err := lpdag.Analyze(lpdag.PaperExample(), fixture.M, lpdag.LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if created.Schedulable != want.Schedulable || len(created.Tasks) != len(want.Tasks) {
		t.Fatalf("created report mismatch: %+v vs %+v", created, want)
	}
	for i, tr := range created.Tasks {
		if tr.ResponseTime != want.Tasks[i].ResponseTime {
			t.Errorf("task %d: R = %d, want %d", i, tr.ResponseTime, want.Tasks[i].ResponseTime)
		}
	}

	// GET report returns the same thing.
	w := get(t, h, "/v1/sessions/"+id+"/report")
	if w.Code != http.StatusOK {
		t.Fatalf("report: status %d: %s", w.Code, w.Body)
	}

	// Admission probe: a copy of τ1 at lowest priority. Must NOT commit.
	tau1, err := json.Marshal(lpdag.PaperExample().Tasks[1])
	if err != nil {
		t.Fatal(err)
	}
	probe := strings.Replace(string(tau1), `"name":"tau1"`, `"name":"probe"`, 1)
	if !strings.Contains(probe, "probe") {
		t.Fatalf("probe task rename failed: %s", probe)
	}
	w = post(t, h, "/v1/sessions/"+id+"/admit", `{"task": `+probe+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", w.Code, w.Body)
	}
	var admitResp struct {
		Admitted bool          `json:"admitted"`
		Report   sessionReport `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &admitResp); err != nil {
		t.Fatal(err)
	}
	if len(admitResp.Report.Tasks) != len(want.Tasks)+1 {
		t.Fatalf("admit trial report has %d tasks, want %d", len(admitResp.Report.Tasks), len(want.Tasks)+1)
	}

	// The probe must not have committed.
	w = get(t, h, "/v1/sessions/"+id+"/report")
	var repResp struct {
		Report sessionReport `json:"report"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &repResp); err != nil {
		t.Fatal(err)
	}
	if len(repResp.Report.Tasks) != len(want.Tasks) {
		t.Fatalf("admit committed: %d tasks, want %d", len(repResp.Report.Tasks), len(want.Tasks))
	}

	// Edits: commit the probe at priority 1, then move it to 2, on 8
	// cores. The result must equal a from-scratch analysis.
	body := fmt.Sprintf(`{"edits": [
		{"op": "add", "task": %s, "at": 1},
		{"op": "set_priority", "name": "probe", "to": 2},
		{"op": "set_cores", "cores": 8}
	]}`, probe)
	w = post(t, h, "/v1/sessions/"+id+"/edits", body)
	if w.Code != http.StatusOK {
		t.Fatalf("edits: status %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &repResp); err != nil {
		t.Fatal(err)
	}
	if repResp.Report.Cores != 8 || repResp.Report.Tasks[2].Name != "probe" {
		t.Fatalf("edited report wrong: %+v", repResp.Report)
	}

	// Failing batch rolls back: the bad op reports 400 and the set is
	// unchanged.
	w = post(t, h, "/v1/sessions/"+id+"/edits",
		`{"edits": [{"op": "remove", "index": 0}, {"op": "remove", "index": 99}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad edit batch: status %d: %s", w.Code, w.Body)
	}
	w = get(t, h, "/v1/sessions/"+id+"/report")
	if err := json.Unmarshal(w.Body.Bytes(), &repResp); err != nil {
		t.Fatal(err)
	}
	if len(repResp.Report.Tasks) != len(want.Tasks)+1 {
		t.Fatalf("failed batch left edits behind: %d tasks", len(repResp.Report.Tasks))
	}

	// Sensitivity by name.
	w = post(t, h, "/v1/sessions/"+id+"/sensitivity", `{"name": "probe", "max_permille": 20000}`)
	if w.Code != http.StatusOK {
		t.Fatalf("sensitivity: status %d: %s", w.Code, w.Body)
	}
	var sens struct {
		Permille int `json:"permille"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sens); err != nil {
		t.Fatal(err)
	}
	if sens.Permille < 1 {
		t.Fatalf("sensitivity = %d, want ≥ 1", sens.Permille)
	}

	// Delete, then 404 on every subsequent touch.
	if w := del(t, h, "/v1/sessions/"+id); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d: %s", w.Code, w.Body)
	}
	if w := del(t, h, "/v1/sessions/"+id); w.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", w.Code)
	}
	if w := get(t, h, "/v1/sessions/"+id+"/report"); w.Code != http.StatusNotFound {
		t.Fatalf("report after delete: status %d", w.Code)
	}
}

// TestSessionTTLEviction pins the TTL story end to end over HTTP with an
// injected clock: touching a session keeps it alive, passing the TTL
// expires it, and an expired id is indistinguishable from an unknown one
// (404).
func TestSessionTTLEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{
		SessionTTL: time.Minute, SessionClock: clock,
	})
	id, _ := createSession(t, h)

	// Touches within the TTL keep refreshing it.
	for i := 0; i < 3; i++ {
		advance(50 * time.Second)
		if w := get(t, h, "/v1/sessions/"+id+"/report"); w.Code != http.StatusOK {
			t.Fatalf("touch %d: status %d: %s", i, w.Code, w.Body)
		}
	}

	// Let it expire: every endpoint must 404.
	advance(61 * time.Second)
	if w := get(t, h, "/v1/sessions/"+id+"/report"); w.Code != http.StatusNotFound {
		t.Fatalf("report after expiry: status %d: %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/sessions/"+id+"/edits",
		`{"edits": [{"op": "set_cores", "cores": 2}]}`); w.Code != http.StatusNotFound {
		t.Fatalf("edits after expiry: status %d", w.Code)
	}
	if w := del(t, h, "/v1/sessions/"+id); w.Code != http.StatusNotFound {
		t.Fatalf("delete after expiry: status %d", w.Code)
	}
}

// TestSessionRegistryBound pins the session cap: past MaxSessions live
// sessions, creation 503s until one is deleted or expires.
func TestSessionRegistryBound(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{MaxSessions: 2})
	id1, _ := createSession(t, h)
	createSession(t, h)
	w := post(t, h, "/v1/sessions", `{"cores": 2}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create: status %d: %s", w.Code, w.Body)
	}
	if w := del(t, h, "/v1/sessions/"+id1); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := post(t, h, "/v1/sessions", `{"cores": 2}`); w.Code != http.StatusCreated {
		t.Fatalf("create after delete: status %d: %s", w.Code, w.Body)
	}
}

// TestSessionStatsSurface pins that /stats reports live sessions and
// session job counts.
func TestSessionStatsSurface(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	id, _ := createSession(t, h)
	get(t, h, "/v1/sessions/"+id+"/report")
	w := get(t, h, "/stats")
	var stats struct {
		ActiveSessions int    `json:"active_sessions"`
		SessionOps     uint64 `json:"session_ops"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ActiveSessions != 1 {
		t.Errorf("active_sessions = %d, want 1", stats.ActiveSessions)
	}
	if stats.SessionOps == 0 {
		t.Error("session_ops = 0, want > 0")
	}
}

// TestAnalyzeFinalNPRWire pins the /v1/analyze final_npr field on a
// set the refinement provably tightens — a fork-join with a unique,
// long final NPR below a dense higher-priority task, so shrinking the
// interference window past the sink crosses a carry-in step: the
// per-item flag must reproduce the library's FinalNPRRefinement bound,
// strictly below the plain one.
func TestAnalyzeFinalNPRWire(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	tsJSON := `{"tasks": [
		{"name": "hp", "wcet": [3, 3], "edges": [[0,1]],
		 "deadline": 14, "period": 14},
		{"name": "fj", "wcet": [2, 8, 6, 7, 12],
		 "edges": [[0,1],[0,2],[0,3],[1,4],[2,4],[3,4]],
		 "deadline": 120, "period": 120}
	]}`
	ts, err := lpdag.ReadTaskSet(strings.NewReader(tsJSON))
	if err != nil {
		t.Fatal(err)
	}
	plainWant, err := lpdag.Analyze(ts, 2, lpdag.LPILP)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := lpdag.NewAnalyzer(lpdag.Options{Cores: 2, Method: lpdag.LPILP, FinalNPRRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	refinedWant, err := refined.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if refinedWant.Tasks[1].ResponseTime >= plainWant.Tasks[1].ResponseTime {
		t.Fatalf("test premise broken: refinement does not tighten fj (%d vs %d)",
			refinedWant.Tasks[1].ResponseTime, plainWant.Tasks[1].ResponseTime)
	}

	body := fmt.Sprintf(`{"cores": 2, "method": "lp-ilp", "requests": [
		{"taskset": %s},
		{"taskset": %s, "final_npr": true}
	]}`, tsJSON, tsJSON)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
			Tasks []struct {
				ResponseTime int64 `json:"response_time"`
			} `json:"tasks"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Error != "" || resp.Results[1].Error != "" {
		t.Fatalf("bad results: %s", w.Body)
	}
	for i := range ts.Tasks {
		if got, want := resp.Results[0].Tasks[i].ResponseTime, plainWant.Tasks[i].ResponseTime; got != want {
			t.Errorf("plain task %d: R = %d, want %d", i, got, want)
		}
		if got, want := resp.Results[1].Tasks[i].ResponseTime, refinedWant.Tasks[i].ResponseTime; got != want {
			t.Errorf("refined task %d: R = %d, want %d", i, got, want)
		}
	}
}

// TestSessionDoSerializesOutsidePool pins the registry's per-session
// gate: while one operation holds a session, a second operation on the
// SAME session waits on the caller's goroutine under the caller's
// context — it never reaches the worker pool, and cancelling it
// returns promptly without running its function.
func TestSessionDoSerializesOutsidePool(t *testing.T) {
	e := engine.New(engine.Config{Workers: 2})
	defer e.Close()
	reg := engine.NewSessionRegistry(e, engine.SessionRegistryConfig{})
	id, _, err := reg.Create(core.Options{Cores: 2, Method: core.LPMax},
		lpdag.PaperExample().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := reg.Do(context.Background(), id,
			func(context.Context, *session.Session) (any, error) {
				close(started)
				<-hold
				return nil, nil
			})
		done <- err
	}()
	<-started

	// A second op on the same session must park on the gate and honour
	// its context, with its fn never executed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ran := false
	if _, err := reg.Do(ctx, id, func(context.Context, *session.Session) (any, error) {
		ran = true
		return nil, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated op error = %v, want deadline exceeded", err)
	}
	if ran {
		t.Fatal("gated op ran despite cancelled wait")
	}

	// Ops on OTHER sessions are not gated by this session's work.
	id2, _, err := reg.Create(core.Options{Cores: 2, Method: core.LPMax},
		lpdag.PaperExample().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Do(context.Background(), id2,
		func(ctx context.Context, s *session.Session) (any, error) {
			return s.Report(ctx)
		}); err != nil {
		t.Fatalf("other-session op blocked: %v", err)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
