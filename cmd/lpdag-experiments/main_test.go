package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTables(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-tables"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"Table I", "Table II", "Table III",
		"Δ⁴ = 19, Δ³ = 15", "Δ⁴ = 20, Δ³ = 16", "p(4) = 5",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig2SmallWithCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig.csv")
	var out bytes.Buffer
	code := run([]string{"-fig2", "-m", "2", "-sets", "5", "-csv", path}, &out, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "utilization,FP-ideal,LP-ILP,LP-max\n") {
		t.Errorf("bad CSV: %q", string(data)[:40])
	}
}

func TestGroup2Small(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-group2", "-m", "2", "-sets", "5"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "gap") {
		t.Errorf("missing gap summary:\n%s", out.String())
	}
}

func TestVariantsSmall(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-variants", "-m", "2", "-sets", "5"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "finalNPR") {
		t.Errorf("missing variants output:\n%s", out.String())
	}
}

func TestPessimismSmall(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-pessimism", "-m", "2", "-u", "1.2", "-sets", "5"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "pessimism") {
		t.Errorf("missing pessimism output:\n%s", out.String())
	}
}

func TestTimingSmall(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-timing", "-sets", "2"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "avg/set") {
		t.Errorf("missing timing table:\n%s", out.String())
	}
}

// TestCampaignByteIdenticalAcrossWorkers is the acceptance contract of
// the orchestrator: -workers 1 and -workers N produce byte-identical
// JSONL for the same campaign seed.
func TestCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	base := []string{"-campaign", "-ms", "2,4", "-ufracs", "0.3,0.6", "-sets", "3",
		"-scenarios", "mixed,wide", "-seed", "99"}
	var out bytes.Buffer
	if code := run(append(base, "-workers", "1", "-jsonl", a), &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if code := run(append(base, "-workers", "8", "-jsonl", b), &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 || !bytes.Equal(da, db) {
		t.Errorf("JSONL differs between -workers 1 and -workers 8 (%d vs %d bytes)", len(da), len(db))
	}
}

func TestCampaignSummaryAndCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.csv")
	var out bytes.Buffer
	code := run([]string{"-campaign", "-ms", "2", "-ufracs", "0.4,0.8", "-sets", "2",
		"-scenarios", "mixed", "-csv", path}, &out, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "campaign: 2 points") {
		t.Errorf("missing summary:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "index,scenario,m,u,sets,") {
		t.Errorf("bad campaign CSV header: %q", string(data))
	}
}

func TestCampaignResumeFlag(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	base := []string{"-campaign", "-ms", "2", "-ufracs", "0.4,0.8", "-sets", "2", "-seed", "5"}
	if code := run(append(base, "-jsonl", full), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.jsonl")
	var errBuf bytes.Buffer
	if code := run(append(base, "-resume", partial, "-jsonl", resumed), &bytes.Buffer{}, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("resumed campaign JSONL differs from the uninterrupted run")
	}
	if !strings.Contains(errBuf.String(), "resuming: 1 points") {
		t.Errorf("missing resume note: %s", errBuf.String())
	}
}

// TestCampaignJSONLStdoutIsPure: with -jsonl -, stdout must be a clean
// JSONL stream (the summary moves to stderr) so it can feed -resume.
func TestCampaignJSONLStdoutIsPure(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-campaign", "-ms", "2", "-ufracs", "0.4,0.8", "-sets", "2",
		"-jsonl", "-"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for i, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") {
			t.Fatalf("stdout line %d is not JSON: %q", i+1, line)
		}
	}
	if !strings.Contains(errBuf.String(), "campaign: 2 points") {
		t.Errorf("summary missing from stderr: %s", errBuf.String())
	}
}

// TestCampaignResumeForeignFileRejected: resuming with a file from a
// different campaign must fail, not silently corrupt output.
func TestCampaignResumeForeignFileRejected(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.jsonl")
	if code := run([]string{"-campaign", "-ms", "4", "-ufracs", "0.9", "-sets", "5", "-seed", "1",
		"-scenarios", "wide", "-jsonl", foreign}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var errBuf bytes.Buffer
	if code := run([]string{"-campaign", "-ms", "2", "-ufracs", "0.5", "-sets", "2", "-seed", "9",
		"-resume", foreign}, &bytes.Buffer{}, &errBuf); code != 1 {
		t.Fatalf("foreign resume exited %d, want 1 (%s)", code, errBuf.String())
	}
}

func TestSoundnessSmall(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-soundness", "-points", "16"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("soundness summary missing:\n%s", out.String())
	}
}

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list-scenarios"}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"mixed", "wide", "deep", "npr-fine", "heavy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scenario list missing %q", want)
		}
	}
}

func TestCampaignBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad ms":       {"-campaign", "-ms", "2,x"},
		"bad ufracs":   {"-campaign", "-ufracs", "0.1,?"},
		"bad scenario": {"-campaign", "-scenarios", "bogus"},
		"gone shards":  {"-campaign", "-shards", "3"},
		// The campaign cluster is retired: its three flags are unknown.
		"gone cluster":       {"-campaign", "-ms", "2", "-ufracs", "0.5", "-sets", "1", "-cluster", "http://127.0.0.1:1"},
		"gone lease timeout": {"-campaign", "-ms", "2", "-ufracs", "0.5", "-sets", "1", "-lease-timeout", "1s"},
		"gone shard retries": {"-campaign", "-ms", "2", "-ufracs", "0.5", "-sets", "1", "-shard-retries", "1"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
	if code := run([]string{"-campaign", "-ms", "2", "-ufracs", "0.4", "-sets", "1",
		"-resume", "/nonexistent-xyz.jsonl"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Error("missing resume file not reported")
	}
}

func TestNoActionShowsUsage(t *testing.T) {
	if code := run([]string{}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestBadFlagsAndBackend(t *testing.T) {
	if code := run([]string{"-badflag"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Error("bad flag accepted")
	}
	// There is no solver flag: -backend is unknown.
	var stderr bytes.Buffer
	if code := run([]string{"-tables", "-backend", "paper-ilp"}, &bytes.Buffer{}, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "flag provided but not defined: -backend") {
		t.Errorf("-backend: exit %d, stderr %q; want 2 and an unknown-flag error", code, stderr.String())
	}
	if code := run([]string{"-fig2", "-m", "2", "-sets", "2", "-csv", "/nonexistent-dir-xyz/x.csv"},
		&bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Error("unwritable CSV path not reported")
	}
}

// TestFigureZeroCores pins that every figure sweep rejects a core count
// below 1 with one error line and exit 1, like -campaign -ms 0, instead
// of panicking.
func TestFigureZeroCores(t *testing.T) {
	for _, args := range [][]string{
		{"-fig2", "-m", "0"},
		{"-group2", "-m", "0"},
		{"-tasks-sweep", "-m", "0"},
		{"-variants", "-m", "0"},
		{"-pessimism", "-m", "0"},
		{"-campaign", "-ms", "0"},
	} {
		var stderr bytes.Buffer
		if code := run(append(args, "-sets", "2"), &bytes.Buffer{}, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "lpdag-experiments: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: want one lpdag-experiments error line, got %q", args, msg)
		}
	}
}
