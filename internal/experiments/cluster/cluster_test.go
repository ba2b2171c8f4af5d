package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/wire"
)

// testWorker is one in-process lpdag-serve worker node: an engine, its
// HTTP server (healthz/stats + drain flag), and the shard endpoint,
// wired exactly like cmd/lpdag-serve.
type testWorker struct {
	srv *engine.Server
	ts  *httptest.Server
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", NewWorkerHandler(eng, WorkerConfig{
		Heartbeat: 100 * time.Millisecond, Load: srv,
	}))
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}
}

// e2eCampaign is the ~200-point campaign of the end-to-end tests:
// 2 scenario families × 2 core counts × 49 utilization fractions with
// one task set per point = 196 points.
func e2eCampaign(t *testing.T) experiments.CampaignConfig {
	t.Helper()
	var fracs []float64
	for f := 0.02; f < 0.99; f += 0.02 {
		fracs = append(fracs, f)
	}
	mixed, err := experiments.ScenarioByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	light, err := experiments.ScenarioByName("light")
	if err != nil {
		t.Fatal(err)
	}
	return experiments.CampaignConfig{
		Seed:         42,
		Ms:           []int{2, 4},
		UFracs:       fracs,
		SetsPerPoint: 1,
		Scenarios:    []experiments.Scenario{mixed, light},
	}
}

// runLocalReference runs the campaign in-process with a single worker
// and returns its JSONL and CSV byte streams: the determinism oracle.
func runLocalReference(t *testing.T, cfg experiments.CampaignConfig) (jsonl, csv []byte) {
	t.Helper()
	local := cfg
	local.Workers = 1
	var jb, cb bytes.Buffer
	if _, err := experiments.RunCampaign(local, experiments.RunOptions{JSONL: &jb, CSV: &cb}); err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestClusterEndToEndWorkerDeath is the ISSUE's acceptance test: a
// 3-worker cluster runs a 196-point campaign, one worker is killed
// mid-campaign (connections severed, listener closed), and the merged
// JSONL/CSV must still be byte-identical to a local single-worker run.
func TestClusterEndToEndWorkerDeath(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, wantCSV := runLocalReference(t, cfg)

	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}

	var (
		kill   sync.Once
		killed = make(chan struct{})
	)
	var jb, cb bytes.Buffer
	results, err := Run(Config{
		Campaign:     cfg,
		Workers:      urls, // four leases each, so the kill lands mid-campaign
		LeaseTimeout: 3 * time.Second,
	}, experiments.RunOptions{
		JSONL: &jb,
		CSV:   &cb,
		OnProgress: func(p experiments.Progress) {
			// Kill worker 0 once a quarter of the campaign has merged:
			// in-flight shard streams sever mid-flight and their leases
			// must fail over to the surviving workers.
			if p.Done >= p.Total/4 {
				kill.Do(func() {
					workers[0].ts.CloseClientConnections()
					workers[0].ts.Close()
					close(killed)
				})
			}
		},
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("worker 0 was never killed: the campaign finished too fast for the test to mean anything")
	}
	if len(results) != 196 {
		t.Fatalf("got %d results, want 196", len(results))
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Errorf("cluster JSONL differs from local run (%d vs %d bytes)", jb.Len(), len(wantJSONL))
	}
	if !bytes.Equal(cb.Bytes(), wantCSV) {
		t.Errorf("cluster CSV differs from local run (%d vs %d bytes)", cb.Len(), len(wantCSV))
	}

	// The surviving workers carried shards: their load gauges saw them.
	var served uint64
	for _, w := range workers[1:] {
		served += workerShardsServed(t, w)
	}
	if served == 0 {
		t.Error("surviving workers report zero shards served")
	}
}

func workerShardsServed(t *testing.T, w *testWorker) uint64 {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ShardsServed uint64 `json:"shards_served"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ShardsServed
}

// TestClusterDrainingWorker marks one of two workers as draining
// mid-campaign: the coordinator must stop scheduling to it (healthz
// gate or shard-endpoint 503 — both paths hand the lease back without
// consuming a retry) and still produce byte-identical output.
func TestClusterDrainingWorker(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, _ := runLocalReference(t, cfg)

	w0, w1 := newTestWorker(t), newTestWorker(t)
	var drain sync.Once
	var jb bytes.Buffer
	_, err := Run(Config{
		Campaign:     cfg,
		Workers:      []string{w0.ts.URL, w1.ts.URL},
		LeaseTimeout: 3 * time.Second,
	}, experiments.RunOptions{
		JSONL: &jb,
		OnProgress: func(p experiments.Progress) {
			if p.Done >= p.Total/4 {
				drain.Do(w0.srv.StartDraining)
			}
		},
	})
	if err != nil {
		t.Fatalf("cluster run with draining worker: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("draining-failover JSONL differs from local run")
	}
}

// TestClusterResume feeds a prefix of a previous run's JSONL as
// Completed: carried points are emitted verbatim, only the rest is
// computed remotely, and the full stream is byte-identical.
func TestClusterResume(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, _ := runLocalReference(t, cfg)

	// Re-read the first 50 lines as the carried prefix, like -resume.
	lines := bytes.SplitAfter(wantJSONL, []byte("\n"))
	prefix := bytes.Join(lines[:50], nil)
	carried, err := experiments.ReadCampaignJSONL(bytes.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}

	w := newTestWorker(t)
	var jb bytes.Buffer
	_, err = Run(Config{
		Campaign:     cfg,
		Workers:      []string{w.ts.URL},
		LeaseTimeout: 3 * time.Second,
	}, experiments.RunOptions{JSONL: &jb, Completed: carried})
	if err != nil {
		t.Fatalf("resumed cluster run: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("resumed cluster JSONL differs from local run")
	}
}

// TestClusterLeaseCapRespected pins the admission-cap interplay: when
// the default lease plan (four leases per worker) would produce leases
// larger than the workers' -max-shard-points limit, the coordinator
// raises the lease count instead of dispatching leases every worker
// rejects.
func TestClusterLeaseCapRespected(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", NewWorkerHandler(eng, WorkerConfig{MaxPoints: 1, Heartbeat: 100 * time.Millisecond}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := e2eCampaign(t)
	cfg.UFracs = cfg.UFracs[:2] // 8 points
	wantJSONL, _ := runLocalReference(t, cfg)

	var jb bytes.Buffer
	_, err := Run(Config{
		Campaign:       cfg,
		Workers:        []string{ts.URL},
		LeaseTimeout:   3 * time.Second,
		MaxLeasePoints: 1, // four 2-point leases without the cap
	}, experiments.RunOptions{JSONL: &jb})
	if err != nil {
		t.Fatalf("capped cluster run: %v", err)
	}
	if !bytes.Equal(jb.Bytes(), wantJSONL) {
		t.Error("capped-lease JSONL differs from local run")
	}
}

// TestClusterAllWorkersDead pins the no-workers failure mode: the
// campaign errors out instead of hanging.
func TestClusterAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	cfg := e2eCampaign(t)
	cfg.UFracs = []float64{0.5} // tiny: 4 points
	_, err := Run(Config{
		Campaign:        cfg,
		Workers:         []string{dead.URL},
		LeaseTimeout:    500 * time.Millisecond,
		WorkerFailLimit: 2,
	}, experiments.RunOptions{})
	if err == nil {
		t.Fatal("campaign against a dead worker should fail")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("error should name the worker exhaustion: %v", err)
	}
}

// TestClusterContextCancel pins prompt cancellation.
func TestClusterContextCancel(t *testing.T) {
	w := newTestWorker(t)
	cfg := e2eCampaign(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := Run(Config{
			Campaign:     cfg,
			Workers:      []string{w.ts.URL},
			LeaseTimeout: 3 * time.Second,
		}, experiments.RunOptions{
			Context: ctx,
			OnProgress: func(experiments.Progress) {
				once.Do(cancel)
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled campaign should return an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

// TestWorkerHandlerValidation pins the shard endpoint's admission
// checks and the draining gate.
func TestWorkerHandlerValidation(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	h := NewWorkerHandler(eng, WorkerConfig{MaxPoints: 4, Load: srv})

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/shard", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	if w := post(`{"campaign": {"seed": 1}, "points": []}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty lease: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"seed": 1}, "points": [0,1,2,3,4]}`); w.Code != http.StatusBadRequest {
		t.Errorf("oversized lease: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"scenarios": ["no-such"]}, "points": [0]}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown scenario: status %d, want 400", w.Code)
	}
	if w := post(`{"campaign": {"seed": 1, "shards": 2}, "points": [0]}`); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "unknown field") {
		t.Errorf("retired shards field: status %d (%s), want 400 unknown field", w.Code, w.Body)
	}
	// An older coordinator names the solver in every lease.
	if w := post(`{"campaign": {"seed": 1, "backend": "combinatorial"}, "points": [0]}`); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), `unknown field \"backend\"`) {
		t.Errorf("retired backend field: status %d (%s), want 400 unknown field", w.Code, w.Body)
	}
	if w := post(`{"campaign": {"seed": 1}, "points": [3,1]}`); w.Code != http.StatusOK {
		t.Errorf("descending points: status %d, want 200 (stream with error line)", w.Code)
	} else if !strings.Contains(w.Body.String(), "increasing") {
		t.Errorf("descending points should fail in-stream: %s", w.Body)
	}

	srv.StartDraining()
	if w := post(`{"campaign": {"seed": 1}, "points": [0]}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining worker: status %d, want 503", w.Code)
	}
}

// TestWorkerStreamMatchesLocalSubset pins the worker's stream bytes to
// a local RunCampaignSubset of the same lease, heartbeat lines aside.
func TestWorkerStreamMatchesLocalSubset(t *testing.T) {
	w := newTestWorker(t)
	campaign := experiments.CampaignRequest{
		Seed: 7, Ms: []int{2}, UFracs: []float64{0.3, 0.6}, SetsPerPoint: 2,
		Scenarios: []string{"mixed"},
	}
	body, _ := json.Marshal(ShardRequest{Campaign: campaign, Points: []int{0, 1}})
	resp, err := http.Post(w.ts.URL+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard: status %d", resp.StatusCode)
	}
	got, err := experiments.ReadCampaignJSONL(resp.Body)
	if err != nil {
		t.Fatalf("worker stream does not re-parse as campaign JSONL: %v", err)
	}

	cfg, err := campaign.Config()
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if _, err := experiments.RunCampaignSubset(cfg, []int{0, 1}, experiments.RunOptions{JSONL: &local}); err != nil {
		t.Fatal(err)
	}
	want, err := experiments.ReadCampaignJSONL(&local)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("worker stream %v\nlocal subset %v", got, want)
	}
}

// probeWorker is a worker whose shard endpoint records, per lease, the
// request's Accept header and the response's Content-Type, so tests can
// assert what the codec negotiation actually picked.
func probeWorker(t *testing.T) (*testWorker, func() []string) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	srv := engine.NewServer(eng, engine.ServerConfig{})
	shard := NewWorkerHandler(eng, WorkerConfig{Heartbeat: 100 * time.Millisecond, Load: srv})
	var (
		mu     sync.Mutex
		leases []string
	)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shard.ServeHTTP(w, r)
		mu.Lock()
		leases = append(leases, r.Header.Get("Accept")+" -> "+w.Header().Get("Content-Type"))
		mu.Unlock()
	}))
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &testWorker{srv: srv, ts: ts}, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), leases...)
	}
}

// acceptTransport sets one Accept header on every request.
type acceptTransport string

func (a acceptTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("Accept", string(a))
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterBinaryLeaseByteIdentical pins the fallback for coordinators
// that still ask for the retired binary shard codec: workers answer
// ndjson, and the merged JSONL/CSV output is byte-identical to a local
// run.
func TestClusterBinaryLeaseByteIdentical(t *testing.T) {
	cfg := e2eCampaign(t)
	wantJSONL, wantCSV := runLocalReference(t, cfg)
	accept := wire.ContentType + ", application/x-ndjson" // what such coordinators send

	t.Run("jsonl-fallback", func(t *testing.T) {
		w1, leases1 := probeWorker(t)
		w2, leases2 := probeWorker(t)
		var jb, cb bytes.Buffer
		results, err := Run(Config{
			Campaign:     cfg,
			Workers:      []string{w1.ts.URL, w2.ts.URL},
			Client:       &http.Client{Transport: acceptTransport(accept)},
			LeaseTimeout: 3 * time.Second,
		}, experiments.RunOptions{JSONL: &jb, CSV: &cb})
		if err != nil {
			t.Fatalf("cluster run: %v", err)
		}
		if len(results) != 196 {
			t.Fatalf("got %d results, want 196", len(results))
		}
		if !bytes.Equal(jb.Bytes(), wantJSONL) {
			t.Errorf("merged JSONL differs from local run (%d vs %d bytes)", jb.Len(), len(wantJSONL))
		}
		if !bytes.Equal(cb.Bytes(), wantCSV) {
			t.Errorf("merged CSV differs from local run (%d vs %d bytes)", cb.Len(), len(wantCSV))
		}
		served := append(leases1(), leases2()...)
		if len(served) == 0 {
			t.Fatal("no shard leases recorded")
		}
		for _, lease := range served {
			if want := accept + " -> application/x-ndjson"; lease != want {
				t.Fatalf("shard lease %q, want %q", lease, want)
			}
		}
	})
}

// TestClusterRejectsInvalidShardLines feeds the coordinator, from a fake
// worker, shard lines that ReadCampaignJSONL rejects: every lease must
// fail on the line and nothing may be merged. A worker's terminal error
// line surfaces as "worker error: …".
func TestClusterRejectsInvalidShardLines(t *testing.T) {
	mixed, err := experiments.ScenarioByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.CampaignConfig{
		Seed: 1, Ms: []int{2}, UFracs: []float64{0.5}, SetsPerPoint: 1,
		Scenarios: []experiments.Scenario{mixed},
	}
	points, err := cfg.Points()
	if err != nil {
		t.Fatal(err)
	}
	// Point 0's metadata is right, so only the line checks can refuse it.
	head := fmt.Sprintf(`{"index":0,"scenario":%q,"m":%d,"u":%v,"sets":1`, points[0].Scenario.Name, points[0].M, points[0].U)
	valid := head + `,"sched":{"LP-ILP":1}}`
	if _, err := experiments.DecodeResultLine([]byte(valid)); err != nil {
		t.Fatalf("scaffold line rejected: %v", err)
	}
	for _, tc := range []struct{ name, line, want string }{
		{"negative sched count", head + `,"sched":{"LP-ILP":-1}}`, `negative sched count -1 for "LP-ILP"`},
		{"invalid method name", head + `,"sched":{"LP ILP":1}}`, `bad method "LP ILP"`},
		{"trailing data", valid + ` {"index":1}`, "trailing data"},
		{"worker error", `{"error":"boom"}`, "shard stream: worker error: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" {
					fmt.Fprint(w, `{"status":"ok"}`)
					return
				}
				w.Header().Set("Content-Type", "application/x-ndjson")
				fmt.Fprintln(w, tc.line)
			}))
			defer worker.Close()
			var jb, cb bytes.Buffer
			_, err := Run(Config{
				Campaign: cfg, Workers: []string{worker.URL},
				LeaseTimeout: 3 * time.Second, MaxShardRetries: 1,
			}, experiments.RunOptions{JSONL: &jb, CSV: &cb})
			if err == nil || !strings.Contains(err.Error(), "retries exhausted") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("cluster run error %v, want the lease to fail on %q", err, tc.want)
			}
			if jb.Len() != 0 || cb.Len() != 0 {
				t.Fatalf("merged output from a rejected line:\n%s%s", jb.Bytes(), cb.Bytes())
			}
		})
	}
}
