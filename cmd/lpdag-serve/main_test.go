package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	lpdag "repro"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes the
// serving goroutine makes while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// startServer runs the command on an ephemeral port and returns its
// base URL plus a shutdown function that waits for a clean exit.
func startServer(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr)
	}()
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with %d: %s", code, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if addr == "" {
		cancel()
		t.Fatalf("server never reported its address: %s", stderr.String())
	}
	return "http://" + addr, func() int {
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(5 * time.Second):
			t.Fatal("server did not shut down")
			return -1
		}
	}
}

func TestServeEndToEnd(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "2")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	raw, err := lpdag.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"cores": 4, "requests": [{"taskset": %s}]}`, raw)
	resp, err = http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, data)
	}
	var parsed struct {
		Results []struct {
			Error       string `json:"error"`
			Schedulable bool   `json:"schedulable"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("decode: %v: %s", err, data)
	}
	want, err := lpdag.Analyze(lpdag.PaperExample(), 4, lpdag.LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Results) != 1 || parsed.Results[0].Error != "" ||
		parsed.Results[0].Schedulable != want.Schedulable {
		t.Fatalf("analyze result drifted: %s", data)
	}

	// The campaign orchestrator is mounted beside the engine endpoints:
	// a small sweep must stream parseable ndjson.
	resp, err = http.Post(base+"/v1/campaign", "application/json", strings.NewReader(
		`{"seed":3,"ms":[2],"u_fracs":[0.5],"sets_per_point":2,"scenarios":["mixed"]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d: %s", resp.StatusCode, data)
	}
	var point struct {
		Index int            `json:"index"`
		Sched map[string]int `json:"sched"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(data), &point); err != nil {
		t.Fatalf("campaign line: %v: %s", err, data)
	}
	if len(point.Sched) != 3 {
		t.Fatalf("campaign point has %d methods: %s", len(point.Sched), data)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}

// TestServeCampaignLeavesCache sends an analyze batch, then a campaign
// stream, then the same batch again, to a node with a small µ-table
// cache. The campaign's freshly generated sets must neither look
// tables up nor add or evict entries, so the repeated batch is served
// entirely from the entries the first one made.
func TestServeCampaignLeavesCache(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "2", "-cache", "256")
	g := lpdag.NewGenerator(5, lpdag.PaperGenParams(lpdag.GroupMixed))
	reqs := make([]string, 4)
	for i := range reqs {
		raw, err := g.TaskSet(3).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = fmt.Sprintf(`{"taskset": %s}`, raw)
	}
	batch := fmt.Sprintf(`{"cores": 8, "requests": [%s]}`, strings.Join(reqs, ","))
	postOK := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	type cacheStats struct {
		Hits, Misses, Waits, Evictions, Entries int
	}
	stats := func() cacheStats {
		t.Helper()
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Cache cacheStats `json:"cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Cache
	}

	first := postOK("/v1/analyze", batch)
	before := stats()
	if before.Misses == 0 || before.Entries != before.Misses || before.Evictions != 0 {
		t.Fatalf("first batch: cache %+v, want one entry per miss and no eviction", before)
	}
	// 2 families × 3 core counts × 2 utilizations × 20 sets: far more
	// graphs than the cache holds.
	postOK("/v1/campaign", `{"seed":3,"ms":[2,4,8],"u_fracs":[0.4,0.8],"sets_per_point":20,"scenarios":["mixed","parallel"]}`)
	if after := stats(); after != before {
		t.Fatalf("campaign touched the cache: %+v, before %+v", after, before)
	}
	if second := postOK("/v1/analyze", batch); !bytes.Equal(second, first) {
		t.Fatalf("repeated batch answered differently:\n%s\nfirst:\n%s", second, first)
	}
	lookups := before.Hits + before.Misses + before.Waits
	want := before
	want.Hits += lookups
	if got := stats(); got != want {
		t.Fatalf("repeated batch: cache %+v, want all %d lookups hits: %+v", got, lookups, want)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}

// TestServeDrainGrace pins the drain window: once shutdown begins (with
// -drain-grace holding the listener open) /healthz flips to 503
// "draining", so load balancers reroute before the listener closes.
func TestServeDrainGrace(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "2", "-drain-grace", "1s")

	// Begin shutdown in the background; during the grace window the
	// listener stays open and must report draining.
	exited := make(chan int, 1)
	go func() { exited <- shutdown() }()
	sawDraining := false
	for deadline := time.Now().Add(900 * time.Millisecond); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // grace elapsed, listener gone
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "draining") {
			sawDraining = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("healthz never reported draining during the grace window")
	}
	if code := <-exited; code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}

// TestServeBinaryAcceptGetsJSON pins the fallback for clients that still
// send "Accept: application/x-lpdag-bin", the retired binary result
// codec: every route that used to honour it answers the JSON (ndjson on
// /v1/campaign) that the same request without the header gets, byte for
// byte.
func TestServeBinaryAcceptGetsJSON(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "2")
	defer shutdown()
	raw, err := lpdag.PaperExample().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	createBody := fmt.Sprintf(`{"cores": 4, "method": "lp-max", "taskset": %s}`, raw)
	// sessionID returns the id of a create response ("" for any other
	// body), so two creates compare equal up to their fresh ids.
	sessionID := func(data []byte) string {
		var v struct {
			ID string `json:"id"`
		}
		json.Unmarshal(data, &v)
		return v.ID
	}
	create := func() string {
		_, data := do(http.MethodPost, "/v1/sessions", createBody, "")
		id := sessionID(data)
		if id == "" {
			t.Fatalf("create: %s", data)
		}
		return id
	}
	sess := create()
	fixed := func(path string) func() string { return func() string { return path } }

	for _, tc := range []struct {
		name, method string
		path         func() string // called per request: edits commit, so each gets a fresh session
		body         string
		status       int
		ctype        string
	}{
		{"analyze", http.MethodPost, fixed("/v1/analyze"),
			fmt.Sprintf(`{"cores": 4, "requests": [{"taskset": %s}, {"taskset": %s, "method": "fp-ideal"}, {"method": "nope"}]}`, raw, raw),
			http.StatusOK, "application/json"},
		{"create", http.MethodPost, fixed("/v1/sessions"), createBody, http.StatusCreated, "application/json"},
		{"report", http.MethodGet, fixed("/v1/sessions/" + sess + "/report"), "", http.StatusOK, "application/json"},
		{"edits", http.MethodPost, func() string { return "/v1/sessions/" + create() + "/edits" },
			`{"edits": [{"op": "set_cores", "cores": 8}, {"op": "remove", "index": 0}]}`, http.StatusOK, "application/json"},
		{"admit", http.MethodPost, fixed("/v1/sessions/" + sess + "/admit"),
			`{"task": {"name": "c", "wcet": [1], "edges": [], "deadline": 1000, "period": 1000}}`, http.StatusOK, "application/json"},
		{"repair", http.MethodPost, fixed("/v1/sessions/" + sess + "/repair"), `{"seed": 7}`, http.StatusOK, "application/json"},
		{"campaign", http.MethodPost, fixed("/v1/campaign"),
			`{"seed": 3, "ms": [2], "u_fracs": [0.4, 0.8], "sets_per_point": 2, "scenarios": ["mixed"]}`,
			http.StatusOK, "application/x-ndjson"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, want := do(tc.method, tc.path(), tc.body, "")
			bin, got := do(tc.method, tc.path(), tc.body, "application/x-lpdag-bin")
			for _, r := range []*http.Response{plain, bin} {
				if r.StatusCode != tc.status || r.Header.Get("Content-Type") != tc.ctype {
					t.Fatalf("%s: status %d, Content-Type %q, want %d %q",
						r.Request.Header.Get("Accept"), r.StatusCode, r.Header.Get("Content-Type"), tc.status, tc.ctype)
				}
			}
			if id := sessionID(got); id != "" {
				got = bytes.ReplaceAll(got, []byte(id), []byte(sessionID(want)))
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("binary Accept changed the body:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad addr: exit %d, want 2", code)
	}
	// The analyze batch is a limits bound, not a knob.
	if code := run(context.Background(), []string{"-max-batch", "5"}, &stdout, &stderr); code != 2 {
		t.Errorf("-max-batch: exit %d, want 2", code)
	}
}

// TestPprofOptIn pins the profiling surface: off by default (nothing
// listens, nothing is mounted on the service mux), served on the
// separate -pprof-addr listener when asked.
func TestPprofOptIn(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "1")
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the service address without -pprof-addr")
	}
	shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1",
			"-pprof-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	pprofRE := regexp.MustCompile(`pprof on (\S+)/debug/pprof/`)
	deadline := time.Now().Add(5 * time.Second)
	var paddr string
	for time.Now().Before(deadline) && paddr == "" {
		if m := pprofRE.FindStringSubmatch(stderr.String()); m != nil {
			paddr = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	if paddr == "" {
		t.Fatalf("pprof address never reported: %s", stderr.String())
	}
	resp, err = http.Get("http://" + paddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index: status %d body %.80s", resp.StatusCode, body)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}
