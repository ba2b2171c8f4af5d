package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildServer compiles lpdag-serve from the module under test.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and launches lpdag-serve")
	}
	bin := filepath.Join(t.TempDir(), "lpdag-serve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/lpdag-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("go build lpdag-serve: %v\n%s", err, out)
	}
	return bin
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// result runs the benchmark and parses its last line.
func result(t *testing.T, args ...string) (names []string, correct bool, attempted int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := mainErr(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for n, m := range out.Metrics {
		names = append(names, n+" "+m.Unit)
		if m.Value == 0 && m.Unit != "ratio" {
			t.Errorf("metric %s is 0", n)
		}
	}
	sort.Strings(names)
	return names, out.Correct, out.Attempted
}

// Each workload, run tiny, goes through verification and prints exactly
// the declared end-to-end metrics; the traced run prints exactly the
// declared per-layer metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildServer(t)
	dir := t.TempDir()
	want := strings.Join(declared(t, "end_to_end"), ",")
	for _, w := range []string{"analyze", "campaign", "session"} {
		t.Run(w, func(t *testing.T) {
			names, correct, attempted := result(t, "-serve", bin, "-dir", dir,
				"--workload", w, "--seed", "3", "--seconds", "0.6", "--trace", "0")
			if !correct || attempted == 0 {
				t.Errorf("correct=%v attempted=%d", correct, attempted)
			}
			if got := strings.Join(names, ","); got != want {
				t.Errorf("metrics\n got %s\nwant %s", got, want)
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		names, correct, _ := result(t, "-serve", bin, "-dir", dir,
			"--workload", "analyze", "--seed", "3", "--seconds", "1.5", "--trace", "1")
		if !correct {
			t.Error("traced run not correct")
		}
		if got, want := strings.Join(names, ","), strings.Join(declared(t, "per_layer"), ","); got != want {
			t.Errorf("metrics\n got %s\nwant %s", got, want)
		}
	})
}

// A wrong number in a server answer is a mismatch, which makes the run
// incorrect.
func TestAnalyzeVerifyCatchesMismatch(t *testing.T) {
	r := &run{tally: newTally()}
	in := newAnalyzeInputs(5)
	c := &analyzeClient{r: r, in: in}
	refs := in.refs(0)[:2]
	rec := analyzeRecord{refs: refs, results: make([][]triple, len(refs))}
	for i, ref := range refs {
		s := in.spec(ref)
		rep, err := coreAnalyze(s)
		if err != nil {
			t.Fatal(err)
		}
		rec.results[i] = reportTriples(rep)
	}
	c.recs = []analyzeRecord{rec}
	c.verify()
	if r.mismatches != 0 {
		t.Fatalf("faithful answers flagged: %v", r.notes)
	}
	rec.results[1] = append([]triple(nil), rec.results[1]...)
	rec.results[1][0].rt++
	c.recs = []analyzeRecord{rec}
	c.verify()
	if r.mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", r.mismatches)
	}
}
