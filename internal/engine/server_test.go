package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	lpdag "repro"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/wire"
)

// newTestServer returns the HTTP handler over a fresh engine.
func newTestServer(t *testing.T, ecfg engine.Config, scfg engine.ServerConfig) http.Handler {
	t.Helper()
	e := engine.New(ecfg)
	t.Cleanup(e.Close)
	return engine.NewServer(e, scfg)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// paperExampleJSON returns the Figure 1 example in the interchange
// format.
func paperExampleJSON(t *testing.T) string {
	t.Helper()
	raw, err := lpdag.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestAnalyzeRoundTripMatchesLibrary posts the paper's Figure 1 example
// as a batch over all three methods and pins every per-task bound to
// the direct lpdag.Analyze result.
func TestAnalyzeRoundTripMatchesLibrary(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	tsJSON := paperExampleJSON(t)
	body := fmt.Sprintf(`{
		"cores": %d,
		"requests": [
			{"taskset": %s, "method": "fp-ideal"},
			{"taskset": %s, "method": "lp-ilp"},
			{"taskset": %s, "method": "lp-max"}
		]
	}`, fixture.M, tsJSON, tsJSON, tsJSON)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error       string  `json:"error"`
			Schedulable bool    `json:"schedulable"`
			Method      string  `json:"method"`
			Cores       int     `json:"cores"`
			Utilization float64 `json:"utilization"`
			Tasks       []struct {
				Name         string `json:"name"`
				Schedulable  bool   `json:"schedulable"`
				ResponseTime int64  `json:"response_time"`
				Deadline     int64  `json:"deadline"`
				DeltaM       int64  `json:"delta_m"`
				DeltaM1      int64  `json:"delta_m1"`
			} `json:"tasks"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, method := range []lpdag.Method{lpdag.FPIdeal, lpdag.LPILP, lpdag.LPMax} {
		want, err := lpdag.Analyze(lpdag.PaperExample(), fixture.M, method)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if got.Error != "" {
			t.Fatalf("%v: unexpected error %q", method, got.Error)
		}
		if got.Schedulable != want.Schedulable || got.Method != method.String() || got.Cores != fixture.M {
			t.Errorf("%v: verdict/method/cores drifted: %+v", method, got)
		}
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("%v: %d tasks, want %d", method, len(got.Tasks), len(want.Tasks))
		}
		for j, tr := range want.Tasks {
			g := got.Tasks[j]
			if g.Name != tr.Name || g.ResponseTime != tr.ResponseTime ||
				g.Schedulable != tr.Schedulable || g.Deadline != tr.Deadline ||
				g.DeltaM != tr.DeltaM || g.DeltaM1 != tr.DeltaM1 {
				t.Errorf("%v task %d: got %+v want %+v", method, j, g, tr)
			}
		}
	}
}

func TestAnalyzePerItemOverridesAndErrors(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	tsJSON := paperExampleJSON(t)
	body := fmt.Sprintf(`{
		"method": "lp-max",
		"requests": [
			{"taskset": %s, "cores": 8},
			{"taskset": %s, "method": "no-such-method"},
			{"taskset": {"tasks": []}},
			{}
		]
	}`, tsJSON, tsJSON)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
			Cores int    `json:"cores"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Cores != 8 {
		t.Errorf("item 0 should succeed with cores=8: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "unknown method") {
		t.Errorf("item 1 should report unknown method, got %q", resp.Results[1].Error)
	}
	if !strings.Contains(resp.Results[2].Error, "empty task set") {
		t.Errorf("item 2 should report empty task set, got %q", resp.Results[2].Error)
	}
	if !strings.Contains(resp.Results[3].Error, "missing taskset") {
		t.Errorf("item 3 should report missing taskset, got %q", resp.Results[3].Error)
	}
}

// TestAnalyzeVolumeOverflowElement posts the "values wrap" probe (two
// independent nodes of WCET 2^62, D = T = 2^62, whose volume wrapped to
// −2^63 and read schedulable on one core) beside the paper's example:
// the probe's element fails with the build error, the example's still
// succeeds.
func TestAnalyzeVolumeOverflowElement(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	probe := `{"tasks":[{"name":"t","wcet":[4611686018427387904,4611686018427387904],"edges":[],"deadline":4611686018427387904,"period":4611686018427387904}]}`
	body := fmt.Sprintf(`{"cores": 1, "method": "lp-ilp", "requests": [{"taskset": %s}, {"taskset": %s}]}`, paperExampleJSON(t), probe)
	w := post(t, h, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Error != "" {
		t.Fatalf("results %+v: want the example analyzed", resp.Results)
	}
	if !strings.Contains(resp.Results[1].Error, "WCET sum overflows int64") {
		t.Errorf("probe element: error %q, want the WCET sum overflow", resp.Results[1].Error)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"requests": [`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"empty batch", `{"requests": []}`, http.StatusBadRequest},
		{"trailing garbage", `{"requests": []}{}`, http.StatusBadRequest},
		{"trailing garbage after a valid batch", `{"requests": [{"taskset": ` + paperExampleJSON(t) + `}]} x`, http.StatusBadRequest},
		{"type mismatch", `{"cores": "8", "requests": [{}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := post(t, h, "/v1/analyze", c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body)
		}
	}
	if w := get(t, h, "/v1/analyze"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", w.Code)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{MaxBodyBytes: 512})
	big := fmt.Sprintf(`{"requests": [{"taskset": %s}], "method": %q}`,
		paperExampleJSON(t), strings.Repeat("x", 4096))
	w := post(t, h, "/v1/analyze", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", w.Code, w.Body)
	}
	// The analyze body is read before it is parsed, so malformed filler
	// past the cap is a 413 as well, not a 400.
	w = post(t, h, "/v1/analyze", `{"requests": [`+strings.Repeat("@", 4096))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("malformed oversized body: status %d, want 413 (%s)", w.Code, w.Body)
	}
}

func TestBatchLimit(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	item := fmt.Sprintf(`{"taskset": %s}`, paperExampleJSON(t))
	body := `{"requests": [` + strings.TrimSuffix(strings.Repeat(item+",", 1025), ",") + `]}`
	w := post(t, h, "/v1/analyze", body)
	if want := "invalid requests: 1025 (must be in [1, 1024])"; w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
		t.Fatalf("status %d %s, want 400 %q for oversized batch", w.Code, w.Body, want)
	}
}

// TestHandoffFrameHeaderAllocatesNoPayload pins that a hand-off frame
// allocates with the bytes that arrive, not with the length its header
// declares: a 5-byte body, 'S' and a uvarint of 8 MiB, answers 400 and
// allocates under 1 MiB, where the declared payload was once allocated
// before the first byte of it was read.
func TestHandoffFrameHeaderAllocatesNoPayload(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	body := string(binary.AppendUvarint([]byte{wire.FrameSnapshot}, engine.DefaultMaxBodyBytes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := post(t, h, "/v1/sessions/handoff", body)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unexpected EOF") {
		t.Errorf("%d-byte hand-off frame header: status %d %s, want 400 unexpected EOF", len(body), w.Code, w.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a %d-byte hand-off body allocated %.2f MiB, want under 1 MiB", len(body), float64(alloc)/(1<<20))
	}
}

// TestRetiredBackendField pins that the µ solver is no longer client
// input. The probe that once pinned a worker for minutes, one 30-node
// random DAG at 24 cores naming "backend": "paper-ilp" in a 1.3 KB body,
// and a session create naming a backend now answer the unknown-field
// 400 at once, start no job, and leave the node healthy.
func TestRetiredBackendField(t *testing.T) {
	e := engine.New(engine.Config{})
	t.Cleanup(e.Close)
	h := engine.NewServer(e, engine.ServerConfig{})
	rng := rand.New(rand.NewSource(30))
	var wcets, edges []string
	for v := 0; v < 30; v++ {
		wcets = append(wcets, strconv.Itoa(1+rng.Intn(100)))
		for u := 0; u < v; u++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, fmt.Sprintf("[%d,%d]", u, v))
			}
		}
	}
	set := fmt.Sprintf(`{"tasks":[{"name":"probe","wcet":[%s],"edges":[%s],"deadline":100000,"period":100000}]}`,
		strings.Join(wcets, ","), strings.Join(edges, ","))
	for _, tc := range []struct{ name, path, body string }{
		{"analyze", "/v1/analyze", `{"cores": 24, "backend": "paper-ilp", "requests": [{"taskset": ` + set + `}]}`},
		{"analyze element", "/v1/analyze", `{"cores": 24, "requests": [{"taskset": ` + set + `, "backend": "paper-ilp"}]}`},
		{"session create", "/v1/sessions", `{"cores": 24, "backend": "paper-ilp", "taskset": ` + set + `}`},
	} {
		start := time.Now()
		w := post(t, h, tc.path, tc.body)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: 400 took %v, want under 1s", tc.name, elapsed)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `unknown field \"backend\"`) {
			t.Errorf("%s (%d-byte body): status %d %s, want 400 unknown field \"backend\"", tc.name, len(tc.body), w.Code, w.Body)
		}
	}
	if st := e.Stats(); st.JobsServed() != 0 || st.QueueDepth != 0 {
		t.Errorf("rejected bodies reached the engine: %+v", st)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("healthz after the probes: status %d: %s", w.Code, w.Body)
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	body := fmt.Sprintf(`{"taskset": %s, "cores": %d, "duration": 500}`,
		paperExampleJSON(t), fixture.M)
	w := post(t, h, "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Jobs        int     `json:"jobs"`
		Misses      int     `json:"misses"`
		MaxResponse []int64 `json:"max_response"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Jobs == 0 || len(resp.MaxResponse) != lpdag.PaperExample().N() {
		t.Errorf("implausible simulation summary: %+v", resp)
	}
	if w := post(t, h, "/v1/simulate", `{"cores": 4}`); w.Code != http.StatusBadRequest {
		t.Errorf("missing taskset: status %d, want 400", w.Code)
	}
}

// TestGenerateAnalyzePipeline generates task sets over HTTP, checks
// determinism, and feeds them straight back into /v1/analyze.
func TestGenerateAnalyzePipeline(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	genBody := `{"seed": 42, "utilization": 1.5, "count": 2}`
	w1 := post(t, h, "/v1/generate", genBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	w2 := post(t, h, "/v1/generate", genBody)
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("same seed should generate byte-identical responses")
	}
	var resp struct {
		TaskSets []json.RawMessage `json:"tasksets"`
	}
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TaskSets) != 2 {
		t.Fatalf("got %d task sets, want 2", len(resp.TaskSets))
	}
	items := make([]string, len(resp.TaskSets))
	for i, raw := range resp.TaskSets {
		items[i] = fmt.Sprintf(`{"taskset": %s}`, raw)
	}
	w := post(t, h, "/v1/analyze", fmt.Sprintf(`{"requests": [%s]}`, strings.Join(items, ",")))
	if w.Code != http.StatusOK {
		t.Fatalf("analyze of generated sets: status %d: %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"error"`) {
		t.Errorf("generated sets should analyze cleanly: %s", w.Body)
	}

	if w := post(t, h, "/v1/generate", `{"group": "no-such-group"}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad group: status %d, want 400", w.Code)
	}

	// A client gone before any set is handed out gets the job-error
	// status, not a 200 with null sets.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(genBody)).WithContext(ctx)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "context canceled") {
		t.Errorf("cancelled generate: status %d: %s, want 400 context canceled", w.Code, w.Body)
	}
}

func TestHealthz(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	w := get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"ok"`) {
		t.Errorf("body %q should report ok", w.Body)
	}
}

// TestHealthzDraining pins the drain protocol: /healthz reports "ok"
// while serving, flips to 503 "draining" the moment StartDraining is
// called (NOT when the listener later closes), and /stats mirrors the
// flag.
func TestHealthzDraining(t *testing.T) {
	e := engine.New(engine.Config{})
	t.Cleanup(e.Close)
	s := engine.NewServer(e, engine.ServerConfig{})

	if w := get(t, s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("pre-drain healthz: %d %s", w.Code, w.Body)
	}
	s.StartDraining()
	w := get(t, s, "/healthz")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"draining"`) {
		t.Errorf("draining healthz body: %s", w.Body)
	}
	if w := get(t, s, "/stats"); !strings.Contains(w.Body.String(), `"draining": true`) {
		t.Errorf("stats should mirror draining: %s", w.Body)
	}

	// Draining only affects health reporting here; in-flight and even
	// new engine requests still complete (a load balancer just stops
	// routing new ones here).
	if w := get(t, s, "/stats"); w.Code != http.StatusOK {
		t.Errorf("stats while draining: %d", w.Code)
	}
}

// TestStatsMonotonic checks the cache and job counters only ever grow,
// and that repeating an identical batch turns misses into hits.
func TestStatsMonotonic(t *testing.T) {
	h := newTestServer(t, engine.Config{}, engine.ServerConfig{})
	type stats struct {
		Analyses     uint64 `json:"analyses"`
		HTTPRequests uint64 `json:"http_requests"`
		Cache        struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	read := func() stats {
		w := get(t, h, "/stats")
		if w.Code != http.StatusOK {
			t.Fatalf("stats: status %d", w.Code)
		}
		var s stats
		if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	body := fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}]}`,
		fixture.M, paperExampleJSON(t))

	s0 := read()
	if w := post(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d", w.Code)
	}
	s1 := read()
	if w := post(t, h, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d", w.Code)
	}
	s2 := read()

	if s1.Analyses != s0.Analyses+1 || s2.Analyses != s1.Analyses+1 {
		t.Errorf("analyses %d → %d → %d, want +1 each", s0.Analyses, s1.Analyses, s2.Analyses)
	}
	if s2.HTTPRequests <= s0.HTTPRequests {
		t.Errorf("http_requests should grow: %d → %d", s0.HTTPRequests, s2.HTTPRequests)
	}
	if s1.Cache.Misses == 0 {
		t.Error("first analysis should miss the cache")
	}
	if s2.Cache.Hits <= s1.Cache.Hits {
		t.Errorf("identical repeat should hit the cache: hits %d → %d", s1.Cache.Hits, s2.Cache.Hits)
	}
	if s2.Cache.Misses != s1.Cache.Misses {
		t.Errorf("identical repeat should add no misses: %d → %d", s1.Cache.Misses, s2.Cache.Misses)
	}
}

// TestConcurrentHTTPHammer fires parallel batches at the handler; with
// -race this exercises the full server→engine→cache stack.
func TestConcurrentHTTPHammer(t *testing.T) {
	h := newTestServer(t, engine.Config{Workers: 4}, engine.ServerConfig{})
	body := fmt.Sprintf(`{"cores": %d, "requests": [{"taskset": %s}, {"taskset": %s, "method": "lp-max"}]}`,
		fixture.M, paperExampleJSON(t), paperExampleJSON(t))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body)
				}
			}
		}()
	}
	wg.Wait()
}

// TestInFlightLimit saturates a MaxInFlight=1 server with a held
// request and checks the next one is shed with 503.
func TestInFlightLimit(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	t.Cleanup(e.Close)
	h := engine.NewServer(e, engine.ServerConfig{MaxInFlight: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A slow body keeps the handler (and its semaphore slot) busy
		// until release is closed.
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", &gatedReader{
			started: started, release: release,
		})
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started
	w := post(t, h, "/v1/analyze", `{"requests": []}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 while server is saturated", w.Code)
	}
	close(release)
	wg.Wait()
	// Capacity is released: the same request now gets through to
	// request validation (400, not 503).
	if w := post(t, h, "/v1/analyze", `{"requests": []}`); w.Code != http.StatusBadRequest {
		t.Errorf("status %d after release, want 400", w.Code)
	}
}

// gatedReader signals first use, then blocks until released, then EOFs.
type gatedReader struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read([]byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return 0, fmt.Errorf("closed")
}
