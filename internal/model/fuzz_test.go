package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
)

// refTaskJSON and the ref* functions are the encoding/json codec this
// package used before the one-pass one: json.Unmarshal into
// []json.RawMessage, then into this struct per task, and a marshal →
// unmarshal → MarshalIndent round trip to encode. They stay here as the
// differential oracle.
type refTaskJSON struct {
	Name     string   `json:"name"`
	WCET     []int64  `json:"wcet"`
	Edges    [][2]int `json:"edges"`
	Deadline int64    `json:"deadline"`
	Period   int64    `json:"period"`
}

func refUnmarshalTask(data []byte) (*Task, error) {
	var tj refTaskJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return nil, err
	}
	var b dag.Builder
	for _, c := range tj.WCET {
		b.AddNode(c)
	}
	for _, e := range tj.Edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("model: task %q: %w", tj.Name, err)
	}
	t := &Task{Name: tj.Name, G: g, Deadline: tj.Deadline, Period: tj.Period}
	return t, t.Validate()
}

func refUnmarshalTaskSet(data []byte) (*TaskSet, error) {
	var raw struct {
		Tasks []json.RawMessage `json:"tasks"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	ts := new(TaskSet)
	for _, r := range raw.Tasks {
		t, err := refUnmarshalTask(r)
		if err != nil {
			return nil, err
		}
		ts.Tasks = append(ts.Tasks, t)
	}
	return ts, ts.Validate()
}

func refTask(t *Task) refTaskJSON {
	edges := t.G.Edges()
	if edges == nil {
		edges = [][2]int{}
	}
	return refTaskJSON{Name: t.Name, WCET: t.G.WCETs(), Edges: edges, Deadline: t.Deadline, Period: t.Period}
}

func refMarshalTaskSet(ts *TaskSet) ([]byte, error) {
	out := struct {
		Tasks []refTaskJSON `json:"tasks"`
	}{Tasks: make([]refTaskJSON, 0, len(ts.Tasks))}
	for _, t := range ts.Tasks {
		out.Tasks = append(out.Tasks, refTask(t))
	}
	return json.MarshalIndent(out, "", "  ")
}

// sameTaskSet reports how a and b differ in anything the interchange
// format carries, or "" when they agree.
func sameTaskSet(a, b *TaskSet) string {
	if a.N() != b.N() {
		return fmt.Sprintf("%d tasks vs %d", a.N(), b.N())
	}
	for i := range a.Tasks {
		x, y := refTask(a.Tasks[i]), refTask(b.Tasks[i])
		if fmt.Sprint(x) != fmt.Sprint(y) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// checkAgainstRef decodes data with both codecs and fails t unless they
// agree on acceptance, on the decoded set, and on its encoding.
func checkAgainstRef(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refUnmarshalTaskSet(data)
	got := new(TaskSet)
	gotErr := got.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("acceptance differs on %q:\none-pass: %v\nencoding/json: %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if diff := sameTaskSet(got, want); diff != "" {
		t.Fatalf("decoded sets differ on %q: %s", data, diff)
	}
	enc, _ := got.MarshalJSON()
	ref, err := refMarshalTaskSet(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("MarshalJSON differs from encoding/json on %q:\n%s\nwant:\n%s", data, enc, ref)
	}
	for i, task := range got.Tasks {
		enc, _ := task.MarshalJSON()
		ref, _ := json.Marshal(refTask(task))
		if !bytes.Equal(enc, ref) {
			t.Fatalf("task %d MarshalJSON = %s, want %s", i, enc, ref)
		}
		back := new(Task)
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("task %d: re-decode: %v", i, err)
		}
	}
}

// FuzzTaskSetJSON feeds arbitrary bytes to the task-set decoder: it must
// never panic, it must accept exactly what the encoding/json decoder
// accepts and decode the same set, anything it accepts must satisfy the
// model invariants, re-encode byte-identically to encoding/json, and
// survive a round trip structurally intact.
func FuzzTaskSetJSON(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"name":"x","wcet":[1],"edges":[],"deadline":5,"period":5}]}`))
	f.Add([]byte(`{"tasks":[{"name":"y","wcet":[2,3],"edges":[[0,1]],"deadline":9,"period":9}]}`))
	f.Add([]byte(`{"tasks":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	for _, s := range trickySets {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, data)
		ts := new(TaskSet)
		if err := ts.UnmarshalJSON(data); err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must satisfy the model invariants…
		if err := ts.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid set: %v", err)
		}
		// …and survive a round trip structurally intact.
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.N() != ts.N() {
			t.Fatalf("round trip changed task count %d -> %d", ts.N(), back.N())
		}
		for i := range ts.Tasks {
			a, b := ts.Tasks[i], back.Tasks[i]
			if a.G.N() != b.G.N() || a.G.NumEdges() != b.G.NumEdges() ||
				a.G.Volume() != b.G.Volume() || a.Deadline != b.Deadline || a.Period != b.Period {
				t.Fatalf("round trip changed task %d structure", i)
			}
		}
	})
}

// trickySets are the corners where a hand-rolled decoder most easily
// parts ways with encoding/json: repeated keys (slice reuse and stale
// elements), nulls, case-folded and escaped keys, string escapes and
// invalid UTF-8, number forms and trailing data.
var trickySets = []string{
	`{"Tasks":[{"NAME":"a","Wcet":[1],"EDGES":[],"DeadLine":5,"PERIOD":5}]}`,
	`{"taſks":[{"name":"a","wcet":[1],"deadlıne":5,"perıod":5}]}`,
	"{\"tasKs\":[{\"name\":\"a\",\"wcet\":[1],\"deadline\":5,\"period\":5}]}", // Kelvin sign
	`{"tasks":[{"name":"a","wcet":[1],"DEADLINE":5,"Period":5}],"TASKS":[{"name":"b","wcet":[2],"deadline":6,"period":6}]}`,
	`{"\u0074asks":[{"n\u0061me":"\u00e9\ud83d\ude00\ud800x\udc00","wcet":[1],"deadline":5,"period":5}]}`,
	"{\"tasks\":[{\"name\":\"\xff\xfe<&>\u2028\",\"wcet\":[1],\"deadline\":5,\"period\":5}]}",
	`{"tasks":[{"name":"a\"\\\/\b\f\n\r\t","wcet":[1],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2,3],"wcet":[4],"wcet":[5,null,null],"edges":[[0,1]],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2],"wcet":[],"wcet":[null,3],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2],"wcet":null,"wcet":[null,3],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2,3],"edges":[[0,1],[1,2]],"edges":[null,[0,2,"x",{}]],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2,3],"edges":[[0,1],[1,2]],"edges":[[2]],"edges":[[null,1],null,null],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","wcet":[1,2],"edges":[[],[0]],"deadline":50,"period":50}]}`,
	`{"tasks":[{"name":"a","name":null,"wcet":[1],"deadline":5,"deadline":null,"period":5}]}`,
	`{"tasks":[{"wcet":"x"}],"tasks":[{"name":"b","wcet":[1],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"b","wcet":[1],"deadline":5,"period":5}],"tasks":[{"wcet":[0]}]}`,
	`{"tasks":[{"name":"b","wcet":[1],"deadline":5,"period":5}],"tasks":null}`,
	`{"tasks":[{"name":"b","wcet":[1],"deadline":5,"period":5}],"tasks":5}`,
	`{"tasks":[null]}`,
	`{"tasks":[5]}`,
	`{"tasks":{}}`,
	`[]`,
	`"tasks"`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]} x`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}]}` + " \t\r\n",
	`{"tasks":[{"name":"a","wcet":[1.0],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[1e2],"deadline":500,"period":500}]}`,
	`{"tasks":[{"name":"a","wcet":[-0],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[9223372036854775807],"deadline":9223372036854775807,"period":9223372036854775807}]}`,
	`{"tasks":[{"name":"a","wcet":[9223372036854775808],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"edges":[[0,18446744073709551616]],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[01],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":{"x":[1,2.5e-3,true,false,null,"s"]}}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":[1,]}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":tru}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":"\x"}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":"\u12"}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5,"extra":"` + "\x01" + `"}]}`,
	`{"tasks":[{"name":"a","wcet":[true],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":7,"wcet":[1],"deadline":5,"period":5}]}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":"5","period":5}]}`,
}

// deepSets sit at encoding/json's nesting limit (10000 levels). They
// stay out of the fuzz corpus, where minimizing a 20 KB input stalls the
// fuzzer for minutes.
var deepSets = []string{
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}],"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"tasks":[{"name":"a","wcet":[1],"deadline":5,"period":5}],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
}

// TestDecodeMatchesEncodingJSON runs the differential check over the
// tricky corners and over seeded random mutations of valid sets: byte
// flips, deletions, and insertions of JSON tokens.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range append(trickySets, deepSets...) {
		checkAgainstRef(t, []byte(s))
	}
	bases := []string{
		`{"tasks":[{"name":"x","wcet":[1],"edges":[],"deadline":5,"period":5}]}`,
		`{"tasks": [{"name": "fork", "wcet": [3, 4, 5], "edges": [[0, 1], [0, 2]], "deadline": 15, "period": 20}, {"name": "c", "wcet": [7], "edges": [], "deadline": 9, "period": 9}]}`,
	}
	tokens := []string{`null`, `,`, `[`, `]`, `{`, `}`, `"`, `:`, `\`, `0`, `-`, `.5`, `e3`, `"tasks"`, `"wcet"`, `"edges"`, `[0,1]`, `1`, ` `, "\xff", `\u00`, `true`}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		b := []byte(bases[rng.Intn(len(bases))])
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
		checkAgainstRef(t, b)
	}
}
