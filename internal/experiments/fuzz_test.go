package experiments

// Fuzz targets for the experiment-result streaming codecs, alongside the
// dag/model fuzzers: anything the readers accept must round-trip
// canonically (decode → encode → decode is the identity, and the
// re-encoded bytes are a fixed point). FuzzCampaignBody fuzzes the
// request bodies of every POST route.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

func jsonlSeedCorpus() []string {
	return []string{
		`{"index":0,"scenario":"mixed","m":4,"u":1.2,"sets":25,"sched":{"FP-ideal":25,"LP-ILP":20,"LP-max":18}}`,
		`{"index":1,"scenario":"wide","m":64,"u":57.6,"sets":3,"sched":{"LP-ILP":0}}`,
		`{"index":2,"scenario":"npr-fine","m":8,"u":0.8,"sets":1,"sched":{}}` + "\n" +
			`{"index":3,"scenario":"deep","m":2,"u":1.9999999999999998,"sets":1,"sched":{"LP-max":1}}`,
		"",
		"\n\n",
		`{"index":-5,"scenario":"","m":0,"u":0,"sets":0,"sched":null}`,
		`not json`,
		`{"index":1e999}`,
	}
}

// FuzzCampaignJSONLRoundTrip: any accepted JSONL stream must re-encode
// and re-decode to the same results, and the re-encoded bytes must be a
// fixed point of the codec.
func FuzzCampaignJSONLRoundTrip(f *testing.F) {
	for _, s := range jsonlSeedCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := ReadCampaignJSONL(strings.NewReader(string(data)))
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc, err := CampaignJSONL(results)
		if err != nil {
			t.Fatalf("accepted results failed to encode: %v", err)
		}
		back, err := ReadCampaignJSONL(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\n%s", err, enc)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip changed result count %d -> %d", len(results), len(back))
		}
		if !reflect.DeepEqual(results, back) {
			t.Fatalf("round trip changed results:\n%#v\nvs\n%#v", results, back)
		}
		enc2, err := CampaignJSONL(back)
		if err != nil || enc2 != enc {
			t.Fatalf("encoding not a fixed point (err %v):\n%q\nvs\n%q", err, enc, enc2)
		}
	})
}

func csvSeedCorpus() []string {
	return []string{
		"index,scenario,m,u,sets,FP-ideal,LP-ILP,LP-max\n0,mixed,4,1.2,25,25,20,18\n1,mixed,4,2.4,25,20,11,9\n",
		"index,scenario,m,u,sets,LP-ILP\n7,wide,64,57.6,3,0\n",
		"index,scenario,m,u,sets,a\n",
		"index,scenario,m,u,sets,a\n-1,x_y.z-w,2,0.5,0,-3\n",
		"",
		"bogus header\n",
		"index,scenario,m,u,sets,a,a\n", // duplicate method column
		"index,scenario,m,u,sets,a\n0,name,2,NaN,1,1\n",
	}
}

// FuzzCampaignCSVRoundTrip: same canonical-round-trip contract for the
// CSV stream.
func FuzzCampaignCSVRoundTrip(f *testing.F) {
	for _, s := range csvSeedCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, methods, err := ParseCampaignCSV(string(data))
		if err != nil {
			return
		}
		enc := CampaignCSV(results, methods)
		back, methods2, err := ParseCampaignCSV(enc)
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(methods, methods2) {
			t.Fatalf("round trip changed methods %v -> %v", methods, methods2)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip changed row count %d -> %d", len(results), len(back))
		}
		if !reflect.DeepEqual(results, back) {
			t.Fatalf("round trip changed rows:\n%#v\nvs\n%#v", results, back)
		}
		if enc2 := CampaignCSV(back, methods2); enc2 != enc {
			t.Fatalf("encoding not a fixed point:\n%q\nvs\n%q", enc, enc2)
		}
	})
}

// FuzzCampaignBody posts arbitrary bytes to every POST route of a
// node's one HTTP front end — analyze, simulate, generate, the session
// create, the edits, admit, sensitivity and repair routes of a live
// session, the hand-off route and /v1/campaign — under an
// already-cancelled request context, so no job runs: no route may
// panic, each answers a status of its route's set, and the bytes
// allocated during the call stay under 64 × len(body) + 1 MiB, so no
// body can make a node build a grid or allocate a size it only declares.
func FuzzCampaignBody(f *testing.F) {
	campaign, shard := hugeGridBodies()
	small := `{"seed":1,"ms":[2,4],"u_fracs":[0.5],"sets_per_point":2,"scenarios":["wide"]}`
	set := `{"tasks":[{"name":"a","wcet":[2,4,3],"edges":[[0,1],[0,2]],"deadline":20,"period":20}]}`
	for _, body := range []string{campaign, shard, small, `{"campaign":` + small + `,"points":[1]}`,
		// The hand-off probe: a frame header that declares an 8 MiB
		// payload and sends none.
		string(binary.AppendUvarint([]byte{wire.FrameSnapshot}, engine.DefaultMaxBodyBytes)),
		`{"cores":2,"requests":[{"taskset":` + set + `}]}`,
		`{"cores":2,"taskset":` + set + `}`,
		`{"edits":[{"op":"remove","name":"a"}]}`,
		`{"task":{"name":"b","wcet":[1],"edges":[],"deadline":9,"period":9}}`,
		`{"index":0}`,
		`{"seed":7,"budgets":[1]}`,
	} {
		f.Add([]byte(body))
	}
	for _, body := range nodeDenseBodies() {
		f.Add([]byte(body.body))
	}
	eng := engine.New(engine.Config{Workers: 1})
	f.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"cores":2,"taskset":`+set+`}`)))
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); w.Code != http.StatusCreated || err != nil {
		f.Fatalf("create session: status %d, err %v: %s", w.Code, err, w.Body)
	}
	live := "/v1/sessions/" + created.ID
	// A cancelled job answers 503 on the session routes and 400 on
	// simulate and generate (statusForJobError). Only /v1/analyze (a
	// batch whose every element failed), hand-off (which runs no job)
	// and the campaign stream (its 200 goes out before any point runs)
	// can answer 200.
	routes := []struct {
		path  string
		codes []int
	}{
		{"/v1/analyze", []int{200, 400, 413, 503}},
		{"/v1/simulate", []int{400, 413}},
		{"/v1/generate", []int{400, 413}},
		{"/v1/sessions", []int{400, 413, 503}},
		{live + "/edits", []int{400, 413, 503}},
		{live + "/admit", []int{400, 413, 503}},
		{live + "/sensitivity", []int{400, 413, 503}},
		{live + "/repair", []int{400, 413, 503}},
		{"/v1/sessions/handoff", []int{200, 400, 503}},
		{"/v1/campaign", []int{200, 400, 413}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range routes {
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(string(body))).WithContext(cancelled)
			alloc := allocDuring(func() { srv.ServeHTTP(w, req) })
			if !slices.Contains(rt.codes, w.Code) {
				t.Fatalf("%s: status %d for %q: %s", rt.path, w.Code, body, w.Body)
			}
			if limit := uint64(64*len(body) + 1<<20); alloc > limit {
				t.Fatalf("%s: a %d-byte body allocated %d bytes, over %d", rt.path, len(body), alloc, limit)
			}
		}
	})
}

// nodeDenseBodies are request bodies that cost ~100 bytes per node once
// built against 1–2 on the wire: a 100 KB hand-off snapshot of a
// 100 000-node graph (it allocated 9.98 MB), a 200 KB /v1/analyze body
// of one 100 000-node task (14.0 MB) and a 40 KB one of a 20 000-node
// antichain, whose µ search took 69 s.
func nodeDenseBodies() []struct{ path, body string } {
	snap := []byte{1} // snapshot version
	snap = wire.AppendString(snap, "dense")
	snap = wire.AppendUvarint(snap, 1)                       // epoch
	snap = wire.AppendZigzag(snap, 0)                        // last touch
	snap = wire.AppendZigzag(snap, 4)                        // cores
	snap = append(snap, 2, 0, 0)                             // LP-ILP, combinatorial, no final-NPR refinement
	snap = wire.AppendUvarint(snap, 1)                       // tasks
	snap = wire.AppendString(snap, "t")                      // name
	snap = wire.AppendZigzag(snap, 1<<40)                    // deadline
	snap = wire.AppendZigzag(snap, 1<<40)                    // period
	snap = wire.AppendUvarint(snap, 100_000)                 // nodes
	snap = append(snap, bytes.Repeat([]byte{2}, 100_000)...) // WCET 1 each
	snap = wire.AppendUvarint(snap, 0)                       // edges
	analyze := func(n int) string {
		return `{"cores":4,"requests":[{"taskset":{"tasks":[{"name":"t","wcet":[` +
			strings.TrimSuffix(strings.Repeat("1,", n), ",") + `],"edges":[],"deadline":1000000,"period":1000000}]}}]}`
	}
	return []struct{ path, body string }{
		{"/v1/sessions/handoff", string(wire.AppendFrame(nil, wire.FrameSnapshot, snap))},
		{"/v1/analyze", analyze(100_000)},
		{"/v1/analyze", analyze(20_000)},
	}
}

// TestNodeDenseBodiesRefused pins the node bound on the probes behind
// it: each node-dense body is a 400 naming the bound before any graph is
// built, within refusalBudget (10 ms; the fastest of three, so a
// scheduler hiccup does not fail it) and inside FuzzCampaignBody's
// 64 × body + 1 MiB.
func TestNodeDenseBodiesRefused(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	srv := mountedServer(eng, engine.ServerConfig{})
	for _, tc := range nodeDenseBodies() {
		fastest, alloc := time.Hour, uint64(0)
		for range 3 {
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			start := time.Now()
			alloc = allocDuring(func() { srv.ServeHTTP(w, req) })
			fastest = min(fastest, time.Since(start))
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "invalid nodes: ") {
				t.Fatalf("%s, %d bytes: status %d %.200s, want 400 invalid nodes", tc.path, len(tc.body), w.Code, w.Body)
			}
		}
		if fastest > refusalBudget {
			t.Errorf("%s, %d bytes: 400 took %v, want under %v", tc.path, len(tc.body), fastest, refusalBudget)
		}
		if limit := uint64(64*len(tc.body) + 1<<20); alloc > limit {
			t.Errorf("%s, %d bytes: allocated %d bytes, over %d", tc.path, len(tc.body), alloc, limit)
		}
		if st := eng.Stats(); st.JobsServed() != 0 || st.Failed != 0 {
			t.Errorf("%s: a refused body ran a job", tc.path)
		}
	}
}
