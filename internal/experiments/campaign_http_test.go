package experiments

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/limits"
	"repro/internal/obs"
)

// mountedServer is a node's one HTTP front end on eng: the engine
// server with the campaign routes mounted, as cmd/lpdag-serve wires it.
func mountedServer(eng *engine.Engine, cfg engine.ServerConfig) *engine.Server {
	srv := engine.NewServer(eng, cfg)
	Mount(srv)
	return srv
}

// campaignTestServer serves a mounted server and returns the URL of its
// /v1/campaign route.
func campaignTestServer(t *testing.T) (string, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(mountedServer(eng, engine.ServerConfig{}))
	t.Cleanup(srv.Close)
	return srv.URL + "/v1/campaign", eng
}

func TestCampaignEndpointStreamsNDJSON(t *testing.T) {
	url, eng := campaignTestServer(t)
	body := `{"seed":9,"ms":[2],"u_fracs":[0.4,0.8],"sets_per_point":2,"scenarios":["mixed","wide"]}`
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	results, err := ReadCampaignJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Sets != 2 {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if eng.Stats().Sweeps != 4 {
		t.Errorf("engine served %d sweep jobs, want 4", eng.Stats().Sweeps)
	}

	// The HTTP stream must be byte-identical to a local run of the same
	// campaign (the determinism contract crosses the wire).
	cfg, err := CampaignRequest{
		Seed: 9, Ms: []int{2}, UFracs: []float64{0.4, 0.8}, SetsPerPoint: 2,
		Scenarios: []string{"mixed", "wide"},
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunCampaign(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := CampaignJSONL(local)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got strings.Builder
	if _, err := io.Copy(&got, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Error("HTTP campaign stream differs from local run")
	}
}

// TestCampaignEndpointRejectsBackend pins that the µ solver is no
// longer campaign input: a full-grid body naming "backend", as older
// clients sent, answers the unknown-field 400 at once beside a healthy
// node and runs no point.
func TestCampaignEndpointRejectsBackend(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := httptest.NewServer(mountedServer(eng, engine.ServerConfig{}))
	t.Cleanup(srv.Close)
	for _, backend := range []string{"paper-ilp", "combinatorial"} {
		body := `{"seed":7,"ms":[8,16],"sets_per_point":200,"scenarios":["mixed","wide"],"backend":"` + backend + `"}`
		start := time.Now()
		resp, err := http.Post(srv.URL+"/v1/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("backend %q: 400 took %v, want under 1s", backend, elapsed)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"backend\"`) {
			t.Errorf("backend %q: status %d %s, want 400 unknown field", backend, resp.StatusCode, msg)
		}
	}
	if n := eng.Stats().Sweeps; n != 0 {
		t.Errorf("rejected campaigns ran %d points", n)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(msg), `"ok"`) {
		t.Errorf("healthz after the probes: status %d: %s", resp.StatusCode, msg)
	}
}

func TestCampaignEndpointRejectsBadRequests(t *testing.T) {
	url, _ := campaignTestServer(t)
	for name, body := range map[string]string{
		"bad json":         `{`,
		"unknown scenario": `{"scenarios":["bogus"]}`,
		"unknown method":   `{"methods":["qp"]}`,
		"zero cores":       `{"ms":[0]}`,
		"huge cores":       `{"ms":[65]}`,
		"too many sets":    `{"sets_per_point":100000}`,
		"unknown field":    `{"bogus":1}`,
		"retired shards":   `{"shards":2}`,
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Grid-size cap.
	resp, err := http.Post(url, "application/json", strings.NewReader(
		`{"ms":[2,3,4,5,6,7,8,9],"u_fracs":[`+strings.Repeat("0.1,", 400)+`0.2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", resp.StatusCode)
	}
	// GET is not allowed.
	getResp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", getResp.StatusCode)
	}
}

// flushCounter is a ResponseWriter that counts its flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestStreamFlushesPerTick pins the stream writer: lines stay in the
// response buffer, so eight lines written within one tick cost at most
// one flush, where each line once cost its own.
func TestStreamFlushesPerTick(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	campaign := `{"seed":9,"ms":[2],"u_fracs":[0.2,0.4,0.6,0.8],"sets_per_point":1,"scenarios":["mixed","wide"]}`
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(campaign)))
	results, err := ReadCampaignJSONL(w.Body)
	if err != nil || len(results) != 8 {
		t.Fatalf("%d results (%v), want 8", len(results), err)
	}
	if w.flushes > 1 {
		t.Errorf("%d flushes for 8 lines within one tick, want at most 1", w.flushes)
	}
}

// holdSlot occupies the engine's one slot until release, so the points
// of a stream wait and the stream stays silent.
func holdSlot(t *testing.T, eng *engine.Engine) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	go eng.Submit(context.Background(), engine.JobAnalyze, func(context.Context) (any, error) {
		close(held)
		<-done
		return nil, nil
	})
	<-held
	release = sync.OnceFunc(func() { close(done) })
	t.Cleanup(release)
	return release
}

// TestStreamKeepalives pins what a silent tick sends: nothing. A
// /v1/campaign stream whose points wait past a tick gets no keepalive
// line, and its bytes stay exactly RunCampaign's JSONL.
func TestStreamKeepalives(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	req := CampaignRequest{Seed: 4, Ms: []int{2}, UFracs: []float64{0.3, 0.6}, SetsPerPoint: 1}
	campaign := `{"seed":4,"ms":[2],"u_fracs":[0.3,0.6],"sets_per_point":1}`
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := RunCampaign(cfg, RunOptions{JSONL: &want}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mountedServer(eng, engine.ServerConfig{}))
	defer srv.Close()

	t.Run("campaign", func(t *testing.T) {
		release := holdSlot(t, eng)
		time.AfterFunc(heartbeat+500*time.Millisecond, release)
		resp, err := http.Post(srv.URL+"/v1/campaign", "application/json", strings.NewReader(campaign))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Errorf("campaign stream silent for a tick reads %q, want exactly %q", got, want.String())
		}
	})
}

// TestTickFlushesPending pins the other half of a tick: a line written
// between ticks is flushed at the next one, while the stream goes on,
// and the tick adds no keepalive beside it.
func TestTickFlushesPending(t *testing.T) {
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	out := startTicks(w, 5*time.Millisecond)
	defer out.stop()
	out.Write([]byte("{}\n"))
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		out.mu.Lock()
		flushes, body := w.flushes, w.Body.String()
		out.mu.Unlock()
		if flushes > 0 {
			if body != "{}\n" {
				t.Errorf("flushed body %q, want the pending line alone", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a pending line was not flushed within 5 s of 5 ms ticks")
		}
	}
}

// allocDuring returns the bytes allocated while f runs.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hugeGridBodies are a 4 KB /v1/campaign body naming a 10^6-point grid
// (ms and u_fracs of 1 000 entries each), and that body wrapped with a
// one-point "points" list, as the retired shard route took it.
func hugeGridBodies() (campaign, shard string) {
	ms := strings.TrimSuffix(strings.Repeat("2,", 1000), ",")
	fracs := strings.TrimSuffix(strings.Repeat("1,", 1000), ",")
	campaign = `{"seed":1,"ms":[` + ms + `],"u_fracs":[` + fracs + `]}`
	return campaign, `{"campaign":` + campaign + `,"points":[999999]}`
}

// TestCampaignGridBoundedBeforeBuild pins that the route does not build
// a grid to bound it: the 10^6-point /v1/campaign body is a 400,
// allocating under 1 MB where building the grid took 112 MB.
func TestCampaignGridBoundedBeforeBuild(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	campaign, _ := hugeGridBodies()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(campaign))
	alloc := allocDuring(func() { srv.ServeHTTP(w, req) })
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid points: 1000000 (must be in [1, 2048])") {
		t.Errorf("status %d (%s), want 400 invalid points", w.Code, w.Body)
	}
	if alloc >= 1<<20 {
		t.Errorf("a %d-byte body allocated %.2f MB, want under 1 MB", len(campaign), float64(alloc)/(1<<20))
	}
}

// TestMountedRoutesShareAdmission pins the one admission of a node's
// HTTP front end: on a MaxInFlight-1 server whose one engine slot is
// held, an open /v1/campaign stream takes the one in-flight place, so a
// second campaign and an analyze are each shed with 503 and /stats
// counts the stream; once it ends, an oversized campaign body answers
// the 413, body for body, that /v1/analyze answers.
func TestMountedRoutesShareAdmission(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	const maxBody = 1 << 10
	srv := httptest.NewServer(mountedServer(eng, engine.ServerConfig{MaxInFlight: 1, MaxBodyBytes: maxBody}))
	t.Cleanup(srv.Close)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	httpRequests := func() uint64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			HTTPRequests uint64 `json:"http_requests"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.HTTPRequests
	}

	release := holdSlot(t, eng)
	campaign := `{"seed":4,"ms":[2],"u_fracs":[0.3,0.6],"sets_per_point":1}`
	streamed := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/campaign", "application/json", strings.NewReader(campaign))
		if err != nil {
			t.Error(err)
			streamed <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		streamed <- resp.StatusCode
	}()
	// /stats sits outside the admission, so it sees the stream admitted.
	for deadline := time.Now().Add(10 * time.Second); httpRequests() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			t.Fatal("/stats never counted the open /v1/campaign stream")
		}
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/campaign", campaign},
		{"/v1/analyze", `{"requests":[{"taskset":{"tasks":[]}}]}`},
	} {
		if code, body := post(tc.path, tc.body); code != http.StatusServiceUnavailable || !strings.Contains(body, "server at capacity") {
			t.Errorf("%s beside an open stream: status %d %s, want 503 server at capacity", tc.path, code, body)
		}
	}
	if n := httpRequests(); n != 1 {
		t.Errorf("/stats http_requests %d with one stream admitted and two shed, want 1", n)
	}
	release()
	if code := <-streamed; code != http.StatusOK {
		t.Fatalf("campaign stream: status %d", code)
	}

	// Well-formed JSON past the cap, so every decoder reads up to it.
	long := strings.Repeat("a", maxBody)
	wantCode, want := post("/v1/analyze", `{"method":"`+long+`"}`)
	if wantCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized analyze: status %d %s, want 413", wantCode, want)
	}
	if code, got := post("/v1/campaign", `{"scenarios":["`+long+`"]}`); code != wantCode || got != want {
		t.Errorf("oversized /v1/campaign body: status %d %q, want %d %q as /v1/analyze", code, got, wantCode, want)
	}
}

// TestMaxPointsBound pins the bound /v1/campaign admits a grid by:
// min(limits.Points, ⌊limits.Analyses / (sets · methods)⌋), and a wire
// campaign whose one point alone passes the analyses limit is refused
// by Config, so the bound of every wire campaign is at least 1.
func TestMaxPointsBound(t *testing.T) {
	methods := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "lp-ilp"
		}
		return out
	}
	for _, tc := range []struct {
		sets, methods, want int
	}{
		{1, 1, int(limits.Points.Max)},
		{25, 3, int(limits.Points.Max)},
		{100, 3, 833},
		{200, 3, 416},
		{200, 1250, 1},
	} {
		cfg, err := CampaignRequest{SetsPerPoint: tc.sets, Methods: methods(tc.methods)}.Config()
		if err != nil {
			t.Fatalf("%d sets × %d methods: %v", tc.sets, tc.methods, err)
		}
		if got := cfg.maxPoints(); got != tc.want {
			t.Errorf("%d sets × %d methods: maxPoints = %d, want %d", tc.sets, tc.methods, got, tc.want)
		}
	}
	if _, err := (CampaignRequest{SetsPerPoint: 200, Methods: methods(1251)}).Config(); err == nil ||
		!strings.Contains(err.Error(), "invalid analyses: 250200 (must be in [1, 250000])") {
		t.Errorf("one point past the analyses limit: %v", err)
	}
	if got := (CampaignConfig{Ms: []int{0}}).maxPoints(); got != 0 {
		t.Errorf("maxPoints of an invalid config = %d, want 0", got)
	}
}

// TestClusterSurfaceGone pins the retirement of the campaign cluster:
// POST /v1/shard is a 404 on a mounted node, and neither its probes nor
// its scrape report shard load or an lpdag_cluster_ series.
func TestClusterSurfaceGone(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Obs: obs.NewRegistry()})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/shard",
		strings.NewReader(`{"campaign":{"seed":3,"ms":[2],"u_fracs":[0.4]},"points":[0]}`)))
	if w.Code != http.StatusNotFound {
		t.Errorf("POST /v1/shard: status %d %s, want 404", w.Code, w.Body)
	}
	if st := eng.Stats(); st.Sweeps != 0 {
		t.Errorf("POST /v1/shard ran %d points", st.Sweeps)
	}
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		for _, gone := range []string{"active_shards", "shards_served", "lpdag_cluster_"} {
			if strings.Contains(w.Body.String(), gone) {
				t.Errorf("GET %s still reports %s:\n%s", path, gone, w.Body)
			}
		}
	}
}
