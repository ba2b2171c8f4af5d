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

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
)

// refAnalyzeItem and refAnalyzeRequest are the struct form the /v1/analyze
// envelope was decoded into with json.Decoder before the one-pass
// decoder; they stay here as its differential oracle.
type refAnalyzeItem struct {
	TaskSet  json.RawMessage `json:"taskset"`
	Cores    *int            `json:"cores,omitempty"`
	Method   *string         `json:"method,omitempty"`
	FinalNPR *bool           `json:"final_npr,omitempty"`
}

type refAnalyzeRequest struct {
	Cores    int              `json:"cores,omitempty"`
	Method   string           `json:"method,omitempty"`
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
	if got.cores != want.Cores || got.method != want.Method ||
		got.finalNPR != want.FinalNPR || got.batch != len(want.Requests) {
		t.Fatalf("envelope differs on %q: %+v vs %+v", body, got, want)
	}
	if got.batch > maxBatch {
		return // rejected on size; elements past the limit are not kept
	}
	for i, ref := range want.Requests {
		it := got.items[i]
		if !reflect.DeepEqual(it.cores, ref.Cores) || !reflect.DeepEqual(it.method, ref.Method) ||
			!reflect.DeepEqual(it.finalNPR, ref.FinalNPR) {
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
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"cores":2,"method":"fp-ideal","final_npr":true}]}`,
	`{"requests":[{"taskset":{"tasks":[]}},{},null,{"taskset":null},{"taskset":5},{"taskset":{"tasks":[{"wcet":"x"}]}}]}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"cores":8},{"method":"lp-max"}],"requests":[{"cores":null},null]}`,
	`{"requests":[{"cores":1},{"cores":2},{"cores":3}],"requests":[{"method":"x"}],"requests":[{},{"final_npr":true}]}`,
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
	`{"backend":"paper-ilp","requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]}}]}`,
	`{"requests":[{"taskset":{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]},"backend":"combinatorial"}]}`,
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

// taskReportJSON, analyzeResult, analyzeResponse, transformJSON and
// repairResponse are the struct forms writeJSON encoded the /v1/analyze
// and POST …/repair bodies from before they were appended by hand, and
// reportJSON is the copy of a core.Report they were filled from. With
// the maps the other session responses were encoded from
// (checkSessionEnvelopes) they are the appenders' oracle.
type taskReportJSON struct {
	Name         string `json:"name"`
	Schedulable  bool   `json:"schedulable"`
	Analyzed     bool   `json:"analyzed"`
	ResponseTime int64  `json:"response_time"`
	Deadline     int64  `json:"deadline"`
	DeltaM       int64  `json:"delta_m"`
	DeltaM1      int64  `json:"delta_m1"`
	Preemptions  int64  `json:"preemptions"`
	Iterations   int    `json:"iterations"`
}

type analyzeResult struct {
	Error       string           `json:"error,omitempty"`
	Schedulable bool             `json:"schedulable"`
	Method      string           `json:"method,omitempty"`
	Cores       int              `json:"cores,omitempty"`
	Utilization float64          `json:"utilization,omitempty"`
	Tasks       []taskReportJSON `json:"tasks,omitempty"`
}

func reportJSON(rep *core.Report) analyzeResult {
	out := analyzeResult{
		Schedulable: rep.Schedulable,
		Method:      rep.Method.String(),
		Cores:       rep.Cores,
		Utilization: rep.Utilization,
		Tasks:       make([]taskReportJSON, len(rep.Tasks)),
	}
	for i, tr := range rep.Tasks {
		out.Tasks[i] = taskReportJSON{
			Name:         tr.Name,
			Schedulable:  tr.Schedulable,
			Analyzed:     tr.Analyzed,
			ResponseTime: tr.ResponseTime,
			Deadline:     tr.Deadline,
			DeltaM:       tr.DeltaM,
			DeltaM1:      tr.DeltaM1,
			Preemptions:  tr.Preemptions,
			Iterations:   tr.Iterations,
		}
	}
	return out
}

type analyzeResponse struct {
	Results []analyzeResult `json:"results"`
}

type transformJSON struct {
	Op     string `json:"op"`
	Task   string `json:"task"`
	MaxNPR int64  `json:"max_npr,omitempty"`
	To     int    `json:"to,omitempty"`
}

type repairResponse struct {
	Fixed         bool            `json:"fixed"`
	Stopped       bool            `json:"stopped"`
	Applied       bool            `json:"applied"`
	Candidates    int             `json:"candidates"`
	FailingBefore int             `json:"failing_before"`
	FailingAfter  int             `json:"failing_after"`
	SlackBefore   int64           `json:"slack_before"`
	SlackAfter    int64           `json:"slack_after"`
	Transforms    []transformJSON `json:"transforms"`
	Report        analyzeResult   `json:"report"`
}

func repairResponseOf(res *repair.Result, applied bool) repairResponse {
	out := repairResponse{
		Fixed:         res.Fixed,
		Stopped:       res.Stopped,
		Applied:       applied,
		Candidates:    res.Candidates,
		FailingBefore: res.FailingBefore,
		FailingAfter:  res.FailingAfter,
		SlackBefore:   res.SlackBefore,
		SlackAfter:    res.SlackAfter,
		Transforms:    make([]transformJSON, len(res.Transforms)),
		Report:        reportJSON(res.Report),
	}
	for i, tr := range res.Transforms {
		out.Transforms[i] = transformJSON{Op: tr.Op.String(), Task: tr.Task, MaxNPR: tr.MaxNPR, To: tr.To}
	}
	return out
}

// encodeIndented is writeJSON's encoding: json.Encoder indenting by two
// spaces.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkSessionEnvelopes fails t unless every report-bearing session
// response around rep — create with id, report and edits (one
// envelope), admit, and repair of res with rep as its report — appends
// to the bytes encodeIndented writes for its old form, or both fail.
func checkSessionEnvelopes(t testing.TB, id string, rep *core.Report, res *repair.Result, applied bool) {
	t.Helper()
	r := reportJSON(rep)
	res.Report = rep
	for _, c := range []struct {
		name string
		old  any
		lead []byte
	}{
		{"create", map[string]any{"id": id, "report": r}, createLead(id)},
		{"report", map[string]any{"report": r}, nil},
		{"admit", map[string]any{"admitted": rep.Schedulable, "report": r}, admitLead(rep.Schedulable)},
		{"repair", repairResponseOf(res, applied), repairLead(res, applied)},
	} {
		want, wantErr := encodeIndented(c.old)
		got, err := appendSessionJSON(nil, c.lead, rep)
		if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s response differs (err %v, encoding/json %v):\n%s\nwant:\n%s", c.name, err, wantErr, got, want)
		}
	}
}

// FuzzSessionResponseJSON pins the session response appenders to the
// json.Encoder forms they replaced, non-finite utilizations included.
func FuzzSessionResponseJSON(f *testing.F) {
	f.Add("tau1", "0123abcd", true, false, int64(42), 3, 1.5, int64(25), 2)
	f.Add("<a&b>", "", false, true, int64(-7), 0, 0.0, int64(0), 0)
	f.Add("q\"\\\n\t\x01 é\xff\u2028", "x\u2029", true, true, int64(1)<<62, 1<<20, 1e-7, int64(-1), -3)
	f.Add("n", "id", false, false, int64(0), 1, math.NaN(), int64(1), 1)
	f.Add("n", "id", true, false, int64(9), 2, math.Inf(1), int64(3), 0)
	f.Add("n", "id", false, true, int64(9), 2, math.Inf(-1), int64(0), 5)
	f.Fuzz(func(t *testing.T, name, id string, b1, b2 bool, v int64, n int, util float64, maxNPR int64, to int) {
		rep := &core.Report{Schedulable: b1, Method: core.Methods()[uint(n)%3], Cores: n, Utilization: util,
			Tasks: []core.TaskReport{
				{Name: name, Schedulable: b1, Analyzed: b2, ResponseTime: v, Deadline: -v, DeltaM: maxNPR, Iterations: n},
				{Name: id, Schedulable: b2, Analyzed: b1, ResponseTime: maxNPR, DeltaM1: v, Preemptions: int64(to)},
			}}
		res := &repair.Result{Fixed: b1, Stopped: b2, Candidates: n, FailingBefore: to, FailingAfter: -n,
			SlackBefore: v, SlackAfter: maxNPR, Transforms: []repair.Transform{
				{Op: repair.OpSplit, Task: name, MaxNPR: maxNPR},
				{Op: repair.OpMove, Task: id, To: to},
			}}
		checkSessionEnvelopes(t, id, rep, res, b2)
		rep.Tasks, res.Transforms = nil, nil
		checkSessionEnvelopes(t, id, rep, res, b1)
	})
}

// TestAnalyzeResponseJSONMatchesEncoder pins the append-style response
// encoders to the json.Encoder output they replaced, over random
// /v1/analyze results and session responses and the string and float
// corners.
func TestAnalyzeResponseJSONMatchesEncoder(t *testing.T) {
	names := []string{"tau1", "", "<a&b>", "q\"\\\n\t\x01", " é\xff"}
	utils := []float64{0, 1, 2.5, 0.1, 1e-7, 3e21, -0.5, 123456789.123}
	rng := rand.New(rand.NewSource(3))
	randReport := func() *core.Report {
		rep := &core.Report{Schedulable: rng.Intn(2) == 0, Method: core.Methods()[rng.Intn(3)],
			Cores: rng.Intn(3) * 4, Utilization: utils[rng.Intn(len(utils))]}
		for k := rng.Intn(4); k > 0; k-- { // zero tasks too
			rep.Tasks = append(rep.Tasks, core.TaskReport{
				Name: names[rng.Intn(len(names))], Schedulable: rng.Intn(2) == 0, Analyzed: rng.Intn(2) == 0,
				ResponseTime: rng.Int63n(1e6) - 10, Deadline: rng.Int63(), DeltaM: rng.Int63n(100),
				DeltaM1: rng.Int63n(100), Preemptions: rng.Int63n(9), Iterations: rng.Intn(20),
			})
		}
		return rep
	}
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(4) + 1
		reps, fails, results := make([]*core.Report, n), make([]string, n), make([]analyzeResult, n)
		for i := range reps {
			if rng.Intn(4) == 0 { // a failed element, empty error text too
				fails[i] = names[rng.Intn(len(names))]
				results[i] = analyzeResult{Error: fails[i]}
				continue
			}
			reps[i] = randReport()
			results[i] = reportJSON(reps[i])
		}
		want, _ := encodeIndented(analyzeResponse{Results: results})
		got, err := appendAnalyzeResponseJSON(nil, reps, fails)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("response JSON differs (err %v):\n%s\nwant:\n%s", err, got, want)
		}

		res := &repair.Result{Fixed: rng.Intn(2) == 0, Stopped: rng.Intn(2) == 0, Candidates: rng.Intn(5000),
			FailingBefore: rng.Intn(4), FailingAfter: rng.Intn(4), SlackBefore: rng.Int63n(200) - 100,
			SlackAfter: rng.Int63n(200) - 100}
		for k := rng.Intn(4); k > 0; k-- { // empty transforms too
			res.Transforms = append(res.Transforms, repair.Transform{Op: repair.Op(rng.Intn(3)),
				Task: names[rng.Intn(len(names))], MaxNPR: rng.Int63n(3) * 25, To: rng.Intn(3)}) // zero max_npr and to too
		}
		checkSessionEnvelopes(t, names[rng.Intn(len(names))], randReport(), res, rng.Intn(2) == 0)
	}
	nan := &core.Report{Utilization: math.NaN()}
	if _, err := encodeIndented(analyzeResponse{Results: []analyzeResult{reportJSON(nan)}}); err == nil {
		t.Fatal("encoding/json accepted NaN")
	}
	if _, err := appendAnalyzeResponseJSON(nil, []*core.Report{nan}, []string{""}); err == nil {
		t.Fatal("append encoder accepted NaN")
	}
	if _, err := appendSessionJSON(nil, nil, nan); err == nil {
		t.Fatal("session appender accepted NaN")
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

	// The appended session responses fail the same way.
	w = httptest.NewRecorder()
	s.writeReport(w, http.StatusOK, nil, &core.Report{Utilization: math.Inf(1)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("session encode failure status %d, want 500", w.Code)
	}
	if n := atomic.LoadUint64(&s.writeErrs); n != 2 {
		t.Fatalf("writeErrs after session encode failure = %d, want 2", n)
	}

	// Mid-body write failure.
	s.writeJSON(failingWriter{httptest.NewRecorder()}, http.StatusOK, map[string]string{"ok": "yes"})
	if n := atomic.LoadUint64(&s.writeErrs); n != 3 {
		t.Fatalf("writeErrs after write failure = %d, want 3", n)
	}

	// The counter is exported on /metrics.
	mw := httptest.NewRecorder()
	s.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", mw.Code)
	}
	if !strings.Contains(mw.Body.String(), "lpdag_http_write_errors_total 3") {
		t.Fatalf("/metrics missing lpdag_http_write_errors_total 3:\n%s", mw.Body)
	}
}
