package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
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
// longer campaign input: a full-grid body naming "backend", as every
// campaign an older coordinator plans does, answers the unknown-field
// 400 at once beside a healthy node and runs no point.
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

// TestStreamFlushesPerTick pins the one stream writer: lines stay in the
// response buffer, so eight lines written within one tick cost at most
// one flush on either route, where each line once cost its own.
func TestStreamFlushesPerTick(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	campaign := `{"seed":9,"ms":[2],"u_fracs":[0.2,0.4,0.6,0.8],"sets_per_point":1,"scenarios":["mixed","wide"]}`
	for name, tc := range map[string]struct {
		path string
		body string
	}{
		"campaign": {"/v1/campaign", campaign},
		"shard":    {"/v1/shard", `{"campaign":` + campaign + `,"points":[0,1,2,3,4,5,6,7]}`},
	} {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		results, err := ReadCampaignJSONL(w.Body)
		if err != nil || len(results) != 8 {
			t.Fatalf("%s: %d results (%v), want 8", name, len(results), err)
		}
		if w.flushes > 1 {
			t.Errorf("%s: %d flushes for 8 lines within one tick, want at most 1", name, w.flushes)
		}
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

// TestStreamKeepalives pins what a silent tick sends: a shard stream
// gets a blank keepalive line, so the coordinator's lease watchdog sees
// a live worker; a /v1/campaign stream gets nothing, and its bytes stay
// exactly RunCampaign's JSONL.
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

	t.Run("shard", func(t *testing.T) {
		release := holdSlot(t, eng)
		// Bounded: without a keepalive no byte, not even the header,
		// would leave the server while the slot is held.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/shard", strings.NewReader(`{"campaign":`+campaign+`,"points":[0,1],"lease_timeout_ms":40}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("no response from a silent shard stream: %v", err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		if line, err := br.ReadString('\n'); err != nil || line != "\n" {
			t.Fatalf("first line of a silent shard stream %q (%v), want a blank keepalive", line, err)
		}
		release()
		rest, err := io.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		var results strings.Builder
		for _, line := range strings.SplitAfter(string(rest), "\n") {
			if line != "\n" {
				results.WriteString(line)
			}
		}
		if results.String() != want.String() {
			t.Errorf("shard stream results %q, want %q", results.String(), want.String())
		}
	})

	t.Run("campaign", func(t *testing.T) {
		release := holdSlot(t, eng)
		time.AfterFunc(DefaultHeartbeat+500*time.Millisecond, release)
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
// and a campaign stream's tick adds no keepalive beside it.
func TestTickFlushesPending(t *testing.T) {
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	out := startTicks(w, 5*time.Millisecond, false)
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
// (ms and u_fracs of 1 000 entries each) and a /v1/shard body leasing
// its last point.
func hugeGridBodies() (campaign, shard string) {
	ms := strings.TrimSuffix(strings.Repeat("2,", 1000), ",")
	fracs := strings.TrimSuffix(strings.Repeat("1,", 1000), ",")
	campaign = `{"seed":1,"ms":[` + ms + `],"u_fracs":[` + fracs + `]}`
	return campaign, `{"campaign":` + campaign + `,"points":[999999]}`
}

// TestCampaignGridBoundedBeforeBuild pins that no route builds a grid
// to bound it: the 10^6-point /v1/campaign body is a 400 and the
// one-point lease of that grid a 200 (under a cancelled request
// context, so nothing is computed), each allocating under 1 MB where
// building the grid took 112 MB.
func TestCampaignGridBoundedBeforeBuild(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	campaign, shard := hugeGridBodies()
	for _, tc := range []struct {
		name string
		path string
		body string
		want int
	}{
		{"campaign", "/v1/campaign", campaign, http.StatusBadRequest},
		{"shard", "/v1/shard", shard, http.StatusOK},
	} {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(cancelled)
		alloc := allocDuring(func() { srv.ServeHTTP(w, req) })
		if w.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, w.Code, w.Body, tc.want)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: a %d-byte body allocated %.2f MB, want under 1 MB", tc.name, len(tc.body), float64(alloc)/(1<<20))
		}
	}
}

// TestMountedRoutesShareAdmission pins the one admission of a node's
// HTTP front end: on a MaxInFlight-1 server whose one engine slot is
// held, an open /v1/campaign stream takes the one in-flight place, so a
// second campaign, a shard lease and an analyze are each shed with 503
// and /stats counts the stream; once it ends, an oversized campaign or
// shard body answers the 413, body for body, that /v1/analyze answers.
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
		{"/v1/shard", `{"campaign":` + campaign + `,"points":[0]}`},
		{"/v1/analyze", `{"requests":[{"taskset":{"tasks":[]}}]}`},
	} {
		if code, body := post(tc.path, tc.body); code != http.StatusServiceUnavailable || !strings.Contains(body, "server at capacity") {
			t.Errorf("%s beside an open stream: status %d %s, want 503 server at capacity", tc.path, code, body)
		}
	}
	if n := httpRequests(); n != 1 {
		t.Errorf("/stats http_requests %d with one stream admitted and three shed, want 1", n)
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
	for path, body := range map[string]string{
		"/v1/campaign": `{"scenarios":["` + long + `"]}`,
		"/v1/shard":    `{"campaign":{"scenarios":["` + long + `"]},"points":[0]}`,
	} {
		if code, got := post(path, body); code != wantCode || got != want {
			t.Errorf("oversized %s body: status %d %q, want %d %q as /v1/analyze", path, code, got, wantCode, want)
		}
	}
}

// TestShardTick pins the tick a shard lease's timeout gives its stream:
// a quarter of it, at least 10 ms and at most 2 s; a lease that names
// no timeout ticks every 2 s.
func TestShardTick(t *testing.T) {
	for _, tc := range []struct {
		leaseMs int64
		want    time.Duration
	}{
		{0, 2 * time.Second},
		{-1, 2 * time.Second},
		{1, 10 * time.Millisecond},
		{40, 10 * time.Millisecond},
		{300, 75 * time.Millisecond},
		{7999, 1999750 * time.Microsecond},
		{8000, 2 * time.Second},
		{30_000, 2 * time.Second},
		{math.MaxInt64, 2 * time.Second},
	} {
		if got := shardTick(tc.leaseMs); got != tc.want {
			t.Errorf("shardTick(%d) = %v, want %v", tc.leaseMs, got, tc.want)
		}
	}
}
