package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// refAnalyzeItem and refAnalyzeRequest are the struct form the /v1/analyze
// envelope was decoded into with json.Decoder before the one-pass
// decoder; they stay here as its differential oracle.
type refAnalyzeItem struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    *int            `json:"cores,omitempty"`
	Method   *string         `json:"method,omitempty"`
	Backend  *string         `json:"backend,omitempty"`
	FinalNPR *bool           `json:"final_npr,omitempty"`
}

type refAnalyzeRequest struct {
	Cores    int              `json:"cores,omitempty"`
	Method   string           `json:"method,omitempty"`
	Backend  string           `json:"backend,omitempty"`
	FinalNPR bool             `json:"final_npr,omitempty"`
	Requests []refAnalyzeItem `json:"requests"`
}

// refDecodeAnalyze is the former decode: json.Decoder with unknown
// fields disallowed, plus the one rule the one-pass decoder adds — only
// whitespace may follow the value.
func refDecodeAnalyze(body []byte) (refAnalyzeRequest, error) {
	var req refAnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return req, fmt.Errorf("trailing data")
	}
	return req, nil
}

// checkAnalyzeAgainstRef fails t unless the one-pass decoder and the
// reference agree on acceptance and, when both accept, on every batch
// element: overrides, set presence, and the decoded set or its failure.
func checkAnalyzeAgainstRef(t *testing.T, body []byte) {
	t.Helper()
	const maxBatch = 8
	want, wantErr := refDecodeAnalyze(body)
	got, gotErr := decodeAnalyzeRequest(body, maxBatch)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("acceptance differs on %q:\none-pass: %v\nencoding/json: %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.cores != want.Cores || got.method != want.Method || got.backend != want.Backend ||
		got.finalNPR != want.FinalNPR || got.batch != len(want.Requests) {
		t.Fatalf("envelope differs on %q: %+v vs %+v", body, got, want)
	}
	if got.batch > maxBatch {
		return // rejected on size; elements past the limit are not kept
	}
	for i, ref := range want.Requests {
		it := got.items[i]
		if !reflect.DeepEqual(it.cores, ref.Cores) || !reflect.DeepEqual(it.method, ref.Method) ||
			!reflect.DeepEqual(it.backend, ref.Backend) || !reflect.DeepEqual(it.finalNPR, ref.FinalNPR) {
			t.Fatalf("element %d overrides differ on %q", i, body)
		}
		if it.hasSet != (len(ref.TaskSet) > 0) {
			t.Fatalf("element %d: taskset present=%v, reference %q", i, it.hasSet, ref.TaskSet)
		}
		if !it.hasSet {
			continue
		}
		ts := new(model.TaskSet)
		refErr := ts.UnmarshalJSON(ref.TaskSet)
		if (it.setErr == nil) != (refErr == nil) {
			t.Fatalf("element %d set acceptance differs on %q: %v vs %v", i, body, it.setErr, refErr)
		}
		if refErr == nil {
			a, _ := it.set.MarshalJSON()
			b, _ := ts.MarshalJSON()
			if !bytes.Equal(a, b) {
				t.Fatalf("element %d set differs on %q:\n%s\nvs\n%s", i, body, a, b)
			}
		}
	}
}

var analyzeBodies = []string{
	`{"cores":8,"method":"lp-max","requests":[{"taskset":{"tasks":[{"name":"a","wcet":[2,3],"edges":[[0,1]],"deadline":9,"period":9}]}}]}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"cores":2,"method":"fp-ideal","backend":"paper-ilp","final_npr":true}]}`,
	`{"requests":[{"taskset":{"tasks":[]}},{},null,{"taskset":null},{"taskset":5},{"taskset":{"tasks":[{"wcet":"x"}]}}]}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"cores":8},{"method":"lp-max"}],"requests":[{"cores":null},null]}`,
	`{"requests":[{"cores":1},{"cores":2},{"cores":3}],"requests":[{"method":"x"}],"requests":[{},{"backend":"y"}]}`,
	`{"requests":[{"cores":1},{"cores":2}],"requests":[],"requests":[{},{}]}`,
	`{"REQUESTS":[{"TaskSet":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"Final_NPR":false}],"Cores":3}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]}}],"bogus":1}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"bogus":{}}]}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}],"bogus":1}}]}`,
	`{"cores":"8","requests":[{}]}`,
	`{"cores":1.5,"requests":[{}]}`,
	`{"requests":[{"cores":[8]}]}`,
	`{"requests":[{"final_npr":1}]}`,
	`{"requests":{}}`,
	`{"requests":[1]}`,
	`{"requests":[]}{}`,
	`{"requests":[{}]} `,
	`{"requests":[{}]} x`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]}}`,
	`{"requests":[{},{},{},{},{},{},{},{},{}]}`,
	`{"requests":[{},{},{},{},{},{},{},{},{}],"requests":[{"cores":4}]}`,
	`null`, `[]`, `""`, ``, `{}`,
}

// FuzzAnalyzeRequest pins the one-pass /v1/analyze decoder to the
// json.Decoder form it replaced.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, s := range analyzeBodies {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAnalyzeAgainstRef(t, body) })
}

// TestAnalyzeDecodeMatchesEncodingJSON runs the differential check over
// the seed bodies and seeded random mutations of them.
func TestAnalyzeDecodeMatchesEncodingJSON(t *testing.T) {
	tokens := []string{`null`, `,`, `[`, `]`, `{`, `}`, `"`, `:`, `{}`, `"cores":2,`, `"taskset":`, `"requests":`, `1`, ` `, `"x"`}
	rng := rand.New(rand.NewSource(29))
	for _, s := range analyzeBodies {
		checkAnalyzeAgainstRef(t, []byte(s))
	}
	for i := 0; i < 10000; i++ {
		b := []byte(analyzeBodies[rng.Intn(len(analyzeBodies))])
		for k := rng.Intn(3) + 1; k > 0; k-- {
			p := rng.Intn(len(b) + 1)
			switch rng.Intn(3) {
			case 0:
				if p < len(b) {
					b[p] = byte(rng.Intn(256))
				}
			case 1:
				if p < len(b) {
					b = append(b[:p], b[p+1:]...)
				}
			default:
				tok := tokens[rng.Intn(len(tokens))]
				b = append(b[:p], append([]byte(tok), b[p:]...)...)
			}
		}
		checkAnalyzeAgainstRef(t, b)
	}
}

// TestAnalyzeResponseJSONMatchesEncoder pins the append-style response
// encoder to the json.Encoder output it replaced, over random results
// and the string and float corners.
func TestAnalyzeResponseJSONMatchesEncoder(t *testing.T) {
	encode := func(results []analyzeResult) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(analyzeResponse{Results: results})
		return buf.Bytes(), err
	}
	names := []string{"tau1", "", "<a&b>", "q\"\\\n\t\x01", " é\xff"}
	utils := []float64{0, 1, 2.5, 0.1, 1e-7, 3e21, -0.5, 123456789.123}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		results := make([]analyzeResult, rng.Intn(4)+1)
		for i := range results {
			r := &results[i]
			if rng.Intn(4) == 0 {
				r.Error = names[rng.Intn(len(names))]
				continue
			}
			r.Schedulable = rng.Intn(2) == 0
			r.Method = []string{"", "LP-ILP", "FP-ideal"}[rng.Intn(3)]
			r.Cores = rng.Intn(3) * 4
			r.Utilization = utils[rng.Intn(len(utils))]
			for k := rng.Intn(3); k > 0; k-- {
				r.Tasks = append(r.Tasks, taskReportJSON{
					Name: names[rng.Intn(len(names))], Schedulable: rng.Intn(2) == 0, Analyzed: rng.Intn(2) == 0,
					ResponseTime: rng.Int63n(1e6) - 10, Deadline: rng.Int63(), DeltaM: rng.Int63n(100),
					DeltaM1: rng.Int63n(100), Preemptions: rng.Int63n(9), Iterations: rng.Intn(20),
				})
			}
		}
		want, _ := encode(results)
		got, err := appendAnalyzeResponseJSON(nil, results)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("response JSON differs (err %v):\n%s\nwant:\n%s", err, got, want)
		}
	}
	nan := []analyzeResult{{Utilization: math.NaN()}}
	if _, err := encode(nan); err == nil {
		t.Fatal("encoding/json accepted NaN")
	}
	if _, err := appendAnalyzeResponseJSON(nil, nan); err == nil {
		t.Fatal("append encoder accepted NaN")
	}
}

// TestAnalyzePhaseHistograms checks that one served batch lands once in
// each lpdag_http_phase_seconds series of its route.
func TestAnalyzePhaseHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	s := NewServer(e, ServerConfig{})
	body := `{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]}}]}`
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	for i, h := range s.analyzePhases {
		if h.Count() != 1 {
			t.Errorf("phase %d observed %d times, want 1", i, h.Count())
		}
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, phase := range []string{"decode", "analyze", "encode"} {
		series := `lpdag_http_phase_seconds_count{route="POST /v1/analyze",phase="` + phase + `"} 1`
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("scrape lacks %s", series)
		}
	}
}

// failingWriter errors on the first body write, as a closed client
// connection would.
type failingWriter struct {
	http.ResponseWriter
}

func (f failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestWriteErrorsCounted pins the lpdag_http_write_errors_total
// counter: both encode failures and mid-body write failures count.
func TestWriteErrorsCounted(t *testing.T) {
	e := New(Config{Obs: obs.NewRegistry()})
	t.Cleanup(e.Close)
	s := NewServer(e, ServerConfig{})
	if n := atomic.LoadUint64(&s.writeErrs); n != 0 {
		t.Fatalf("fresh server writeErrs = %d", n)
	}

	// Encode failure: channels are not JSON-serialisable.
	w := httptest.NewRecorder()
	s.writeJSON(w, http.StatusOK, make(chan int))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure status %d, want 500", w.Code)
	}
	if n := atomic.LoadUint64(&s.writeErrs); n != 1 {
		t.Fatalf("writeErrs after encode failure = %d, want 1", n)
	}

	// Mid-body write failure.
	s.writeJSON(failingWriter{httptest.NewRecorder()}, http.StatusOK, map[string]string{"ok": "yes"})
	if n := atomic.LoadUint64(&s.writeErrs); n != 2 {
		t.Fatalf("writeErrs after write failure = %d, want 2", n)
	}

	// The counter is exported on /metrics.
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", mw.Code)
	}
	if !strings.Contains(mw.Body.String(), "lpdag_http_write_errors_total 2") {
		t.Fatalf("/metrics missing lpdag_http_write_errors_total 2:\n%s", mw.Body)
	}
}
