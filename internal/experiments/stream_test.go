package experiments

// Tests of the campaign stream codecs' validation and error-reporting
// paths: the JSONL reader's field invariants, oversized-line
// annotation in both text readers, and byte-identity of the pooled
// append-style JSON encoder against encoding/json.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestReadCampaignJSONLRejectsInvalid pins the reader's field
// invariants: results that could not round-trip (or would corrupt the
// CSV emitter) are rejected with the offending line number.
func TestReadCampaignJSONLRejectsInvalid(t *testing.T) {
	valid := `{"index":0,"scenario":"mixed","m":4,"u":1.2,"sets":25,"sched":{"FP-ideal":25}}`
	cases := []struct {
		name, input, wantErr string
	}{
		{"negative sched count",
			`{"index":0,"scenario":"s","m":1,"u":0.5,"sets":1,"sched":{"LP-max":-1}}`,
			`line 1: negative sched count -1 for "LP-max"`},
		{"negative sched count after valid line",
			valid + "\n" + `{"index":1,"scenario":"s","m":1,"u":0.5,"sets":1,"sched":{"a":-7}}`,
			"line 2: negative sched count"},
		{"empty scenario",
			`{"index":0,"scenario":"","m":1,"u":0.5,"sets":1,"sched":null}`,
			`line 1: bad scenario ""`},
		{"scenario with comma",
			`{"index":0,"scenario":"a,b","m":1,"u":0.5,"sets":1,"sched":null}`,
			`bad scenario "a,b"`},
		{"method with space",
			`{"index":0,"scenario":"s","m":1,"u":0.5,"sets":1,"sched":{"LP max":1}}`,
			`bad method "LP max"`},
		{"trailing data",
			valid + ` {"extra":1}`,
			"line 1: trailing data"},
		{"terminal error line",
			valid + "\n" + `{"error":"boom"}`,
			"line 2: worker error: boom"},
		{"malformed json",
			"\n\n" + `{"index":`,
			"line 3:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCampaignJSONL(strings.NewReader(c.input))
			if err == nil {
				t.Fatalf("accepted %q", c.input)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	// The valid line really is valid (the table above fails for the
	// stated reasons, not because the scaffold is broken).
	rs, err := ReadCampaignJSONL(strings.NewReader(valid))
	if err != nil || len(rs) != 1 {
		t.Fatalf("control line rejected: %v", err)
	}
}

// TestScannerErrorsCarryLineNumbers feeds both text readers a line past
// the 16 MiB scanner cap and requires the previously-bare
// bufio.ErrTooLong to surface with the line it happened on.
func TestScannerErrorsCarryLineNumbers(t *testing.T) {
	long := strings.Repeat("x", 17*1024*1024)

	valid := `{"index":0,"scenario":"mixed","m":4,"u":1.2,"sets":25,"sched":null}`
	_, err := ReadCampaignJSONL(strings.NewReader(valid + "\n" + long))
	if err == nil {
		t.Fatal("oversized JSONL line accepted")
	}
	if !strings.Contains(err.Error(), "jsonl line 2:") || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("jsonl error not annotated: %v", err)
	}

	_, _, err = ParseCampaignCSV("index,scenario,m,u,sets,a\n0,s,1,0.5,1,1\n" + long)
	if err == nil {
		t.Fatal("oversized CSV line accepted")
	}
	if !strings.Contains(err.Error(), "csv line 3:") || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("csv error not annotated: %v", err)
	}

	// An oversized header is line 1.
	_, _, err = ParseCampaignCSV(long)
	if err == nil || !strings.Contains(err.Error(), "csv line 1:") {
		t.Fatalf("csv header error not annotated: %v", err)
	}
}

// TestAppendPointResultMatchesEncodingJSON pins the pooled append-style
// encoder byte for byte to encoding/json across the string and float
// shapes the stdlib treats specially.
func TestAppendPointResultMatchesEncodingJSON(t *testing.T) {
	nastyStrings := []string{
		"plain", "with\"quote", `back\slash`, "<html>&stuff",
		"ctrl\x01\x1f", "tab\tnewline\nreturn\r", "bell\bfeed\f",
		"\u2028line\u2029seps", "invalid\xff\xfeutf8", "é-ok-ünïcode",
		"", "ends-with-backslash\\",
	}
	nastyFloats := []float64{
		0, math.Copysign(0, -1), 0.6, 1.2, 2.4000000000000004,
		1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20,
		1e22, -1e-9, 57.6, 1.9999999999999998,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -42.5,
	}
	var st encState
	check := func(r PointResult) {
		t.Helper()
		got, err := st.appendPointResult(nil, r)
		if err != nil {
			t.Fatalf("appendPointResult(%+v): %v", r, err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", r, err)
		}
		want = append(want, '\n')
		if string(got) != string(want) {
			t.Fatalf("encoding drifted for %+v:\n got %q\nwant %q", r, got, want)
		}
	}
	for i, s := range nastyStrings {
		check(PointResult{Index: i, Scenario: s, M: 4, U: nastyFloats[i%len(nastyFloats)], Sets: 1,
			Sched: map[string]int{s + "-m": i, "b" + s: 2 * i}})
	}
	for i, f := range nastyFloats {
		check(PointResult{Index: -i, Scenario: fmt.Sprintf("s%d", i), M: i, U: f, Sets: i})
	}
	// nil vs empty sched must stay distinguishable ("null" vs "{}").
	check(PointResult{Scenario: "s", Sched: nil})
	check(PointResult{Scenario: "s", Sched: map[string]int{}})

	// Non-finite floats error like encoding/json instead of emitting
	// invalid JSON.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := st.appendPointResult(nil, PointResult{Scenario: "s", U: f}); err == nil {
			t.Fatalf("non-finite %v encoded without error", f)
		}
	}
}
