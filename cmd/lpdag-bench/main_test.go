package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAnalyzePoint-8         	    1000	       950.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkAnalyzePoint-8         	    1000	       710.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCampaignThroughput     	      50	  47042648 ns/op	15534114 B/op	  372141 allocs/op
BenchmarkMuTableCold-8          	   20000	     61234 ns/op	    5312 B/op	      19 allocs/op
BenchmarkMuTableCold-8          	   20000	     64890 ns/op	    5280 B/op	      18 allocs/op
BenchmarkNoMem-8                	     100	      1234 ns/op
PASS
ok  	repro	1.234s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	// Best-of-count, column by column: the faster AnalyzePoint
	// repetition is also the leaner one, while the faster MuTableCold
	// repetition allocates more than the slower one.
	ap := got["AnalyzePoint"]
	if ap.NsPerOp != 710.5 || ap.AllocsPerOp != 0 || ap.BytesPerOp != 0 {
		t.Errorf("AnalyzePoint = %+v, want best-of-count {710.5 0 0}", ap)
	}
	if mu := got["MuTableCold"]; mu != (Measurement{NsPerOp: 61234, BytesPerOp: 5280, AllocsPerOp: 18}) {
		t.Errorf("MuTableCold = %+v, want each column's minimum {61234 5280 18}", mu)
	}
	if got["CampaignThroughput"].AllocsPerOp != 372141 {
		t.Errorf("CampaignThroughput = %+v", got["CampaignThroughput"])
	}
	if got["NoMem"].NsPerOp != 1234 {
		t.Errorf("NoMem = %+v", got["NoMem"])
	}
}

func TestCompare(t *testing.T) {
	base := Entry{Benchmarks: map[string]Measurement{
		"A":                  {NsPerOp: 100, AllocsPerOp: 0},
		"B":                  {NsPerOp: 1000, AllocsPerOp: 5},
		"C":                  {NsPerOp: 50, AllocsPerOp: 200},
		"E":                  {NsPerOp: 50, AllocsPerOp: 200},
		"SessionEdit":        {NsPerOp: 10e3, AllocsPerOp: 30},
		"SessionEditDurable": {NsPerOp: 150e3, AllocsPerOp: 60},
	}}
	cur := Entry{Benchmarks: map[string]Measurement{
		"A":                  {NsPerOp: 115, AllocsPerOp: 1},    // +15% ns, +1 alloc — inside both gates
		"B":                  {NsPerOp: 1300, AllocsPerOp: 5},   // +30% — ns regression
		"C":                  {NsPerOp: 40, AllocsPerOp: 204},   // faster but allocs grew past 1%+1
		"D":                  {NsPerOp: 1, AllocsPerOp: 0},      // new benchmark — ignored
		"E":                  {NsPerOp: 50, AllocsPerOp: 203},   // +3 allocs = 1%+1 of 200 — tolerated
		"SessionEdit":        {NsPerOp: 20e3, AllocsPerOp: 30},  // 2× ns — regression
		"SessionEditDurable": {NsPerOp: 300e3, AllocsPerOp: 62}, // 2× ns left to its budget row; +2 allocs — regression
	}}
	regs := Compare(base, cur, 20)
	if len(regs) != 4 {
		t.Fatalf("got %d regressions, want 4: %v", len(regs), regs)
	}
	joined := strings.Join(regs, "\n")
	for _, want := range []string{"B: ns/op", "C: allocs/op", "SessionEdit: ns/op", "SessionEditDurable: allocs/op"} {
		if !strings.Contains(joined, want) {
			t.Errorf("regression %q missing from %v", want, regs)
		}
	}
}

func TestCheckInversion(t *testing.T) {
	mk := func(cachedNs float64, cachedAllocs int64, uncachedNs float64, uncachedAllocs int64) Entry {
		return Entry{Benchmarks: map[string]Measurement{
			"EngineCachedSweep":   {NsPerOp: cachedNs, AllocsPerOp: cachedAllocs},
			"EngineUncachedSweep": {NsPerOp: uncachedNs, AllocsPerOp: uncachedAllocs},
		}}
	}
	if got := CheckInversion(mk(25000, 96, 26000, 96)); len(got) != 0 {
		t.Errorf("cached faster, equal allocs: want pass, got %v", got)
	}
	// ns/op within the noise slack is tolerated; allocs are exact.
	if got := CheckInversion(mk(26500, 96, 26000, 96)); len(got) != 0 {
		t.Errorf("cached +2%% ns/op: want pass (inside slack), got %v", got)
	}
	if got := CheckInversion(mk(47000, 96, 23000, 96)); len(got) != 1 || !strings.Contains(got[0], "ns/op") {
		t.Errorf("2x ns/op inversion: want 1 ns/op violation, got %v", got)
	}
	if got := CheckInversion(mk(23000, 258, 23000, 96)); len(got) != 1 || !strings.Contains(got[0], "allocs/op") {
		t.Errorf("alloc inversion: want 1 allocs/op violation, got %v", got)
	}
	if got := CheckInversion(mk(47000, 258, 23000, 96)); len(got) != 2 {
		t.Errorf("full inversion: want both violations, got %v", got)
	}
	// A partial -bench run (either sweep absent) can't judge the gate.
	partial := Entry{Benchmarks: map[string]Measurement{
		"EngineCachedSweep": {NsPerOp: 1e9, AllocsPerOp: 1e6},
	}}
	if got := CheckInversion(partial); len(got) != 0 {
		t.Errorf("partial entry: want no judgement, got %v", got)
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	traj := Trajectory{Entries: []Entry{{
		Label: "seed", Date: "2026-07-28", GoVersion: "go1.24.0", Count: 3,
		Benchmarks: map[string]Measurement{"A": {NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3}},
	}}}
	if err := WriteTrajectory(path, traj); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Benchmarks["A"] != traj.Entries[0].Benchmarks["A"] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCheckBudgets(t *testing.T) {
	for _, b := range Budgets {
		t.Run(b.Bench, func(t *testing.T) {
			entry := func(v float64) Entry {
				m := Measurement{NsPerOp: v}
				switch b.Metric {
				case "allocs/op":
					m = Measurement{NsPerOp: 1e6, AllocsPerOp: int64(v)}
				case "B/op":
					m = Measurement{NsPerOp: 1e6, BytesPerOp: int64(v)}
				}
				return Entry{Benchmarks: map[string]Measurement{b.Bench: m}}
			}
			if v := CheckBudgets(entry(b.Max), Budgets); len(v) != 0 {
				t.Errorf("at-budget entry flagged: %v", v)
			}
			if v := CheckBudgets(entry(b.Max+1), Budgets); len(v) != 1 || !strings.Contains(v[0], b.Bench+" ") {
				t.Errorf("over-budget entry not flagged once: %v", v)
			}
		})
	}
	// The bounds are the standing contract; moving one is a reviewed act.
	want := map[string]float64{"CampaignThroughput allocs/op": 3900, "CampaignThroughput B/op": 140e3,
		"MuTableCold allocs/op": 27, "SessionEditDurable ns/op": 25e6, "SessionRepair ns/op": 10e6,
		"ServeAnalyze allocs/op": 600, "ServeSessionQuery allocs/op": 110}
	if len(Budgets) != len(want) {
		t.Errorf("%d budgets, want %d", len(Budgets), len(want))
	}
	for _, b := range Budgets {
		if row := b.Bench + " " + b.Metric; b.Max != want[row] {
			t.Errorf("%s budget %g, want %g", row, b.Max, want[row])
		}
	}
	// A partial -bench run without the benchmarks can't judge.
	if v := CheckBudgets(Entry{Benchmarks: map[string]Measurement{}}, Budgets); len(v) != 0 {
		t.Errorf("absent benchmarks flagged: %v", v)
	}
}
