package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const schedulableSet = `{"tasks":[
  {"name":"hi","wcet":[2],"edges":[],"deadline":40,"period":40},
  {"name":"lo","wcet":[3,4],"edges":[[0,1]],"deadline":50,"period":50}
]}`

const doomedSet = `{"tasks":[
  {"name":"bad","wcet":[90],"edges":[],"deadline":10,"period":10}
]}`

func TestAnalyzeSchedulable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m", "2", "-method", "lp-ilp"},
		strings.NewReader(schedulableSet), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"SCHEDULABLE", "hi", "lo", "LP-ILP"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeUnschedulableExitCode(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-m", "2"}, strings.NewReader(doomedSet), &out, &bytes.Buffer{})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "NOT SCHEDULABLE") {
		t.Errorf("missing verdict:\n%s", out.String())
	}
}

func TestAnalyzeCompare(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-m", "2", "-compare"}, strings.NewReader(schedulableSet), &out, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"FP-ideal", "LP-ILP", "LP-max"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q", want)
		}
	}
}

func TestAnalyzeFinalNPRFlag(t *testing.T) {
	var plain, refined bytes.Buffer
	run([]string{"-m", "2"}, strings.NewReader(schedulableSet), &plain, &bytes.Buffer{})
	run([]string{"-m", "2", "-final-npr"}, strings.NewReader(schedulableSet), &refined, &bytes.Buffer{})
	if plain.Len() == 0 || refined.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestAnalyzeBadInputs(t *testing.T) {
	cases := []struct {
		args  []string
		stdin string
	}{
		{[]string{"-method", "bogus"}, schedulableSet},
		{[]string{"-backend", "paper-ilp"}, schedulableSet}, // no solver flag: every analysis solves combinatorially
		{[]string{"-badflag"}, schedulableSet},
		{[]string{}, "not json"},
		{[]string{"-f", "/nonexistent-xyz.json"}, ""},
	}
	for _, tc := range cases {
		code := run(tc.args, strings.NewReader(tc.stdin), &bytes.Buffer{}, &bytes.Buffer{})
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2", tc.args, code)
		}
	}
}

// TestSessionREPL drives the -session shell with a scripted what-if
// dialogue: report, admission probe (no commit), commit, reprioritize,
// sensitivity, remove.
func TestSessionREPL(t *testing.T) {
	f := writeTemp(t, schedulableSet)
	script := strings.Join([]string{
		`report`,
		`tasks`,
		`admit {"name":"new","wcet":[5],"edges":[],"deadline":60,"period":60}`,
		`tasks`,
		`add 0 {"name":"new","wcet":[5],"edges":[],"deadline":60,"period":60}`,
		`move 0 2`,
		`sensitivity new`,
		`rm new`,
		`cores 4`,
		`report`,
		`quit`,
	}, "\n") + "\n"
	var out, errb bytes.Buffer
	code := run([]string{"-m", "2", "-session", "-f", f}, strings.NewReader(script), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"session: 2 tasks",
		"SCHEDULABLE",
		`ADMIT "new"`,
		`added "new" at priority 0`,
		"sustains WCET",
		`removed "new"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\nstdout: %s\nstderr: %s", want, out.String(), errb.String())
		}
	}
	// The admit probe must not commit: between `admit` and `add` the
	// session still lists 2 tasks (the second `tasks` dump).
	if strings.Count(out.String(), "new") < 3 {
		t.Errorf("expected new task to appear in later output:\n%s", out.String())
	}
}

// TestSessionREPLUnschedulableExit pins the exit status on a doomed
// final set.
func TestSessionREPLUnschedulableExit(t *testing.T) {
	f := writeTemp(t, doomedSet)
	var out, errb bytes.Buffer
	code := run([]string{"-m", "2", "-session", "-f", f}, strings.NewReader("quit\n"), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestSessionREPLBadCommandKeepsGoing pins that errors are reported and
// the shell continues.
func TestSessionREPLBadCommandKeepsGoing(t *testing.T) {
	f := writeTemp(t, schedulableSet)
	script := "bogus\nmove 9 0\nreport\nquit\n"
	var out, errb bytes.Buffer
	code := run([]string{"-m", "2", "-session", "-f", f}, strings.NewReader(script), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), `unknown command "bogus"`) {
		t.Errorf("missing unknown-command error: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "invalid from: 9") {
		t.Errorf("missing move error: %s", errb.String())
	}
	if !strings.Contains(out.String(), "SCHEDULABLE") {
		t.Errorf("report after errors missing: %s", out.String())
	}
}

// writeTemp writes content to a temp file and returns its path.
func writeTemp(t *testing.T, content string) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(f, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}
