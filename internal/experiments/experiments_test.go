package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// smallFig2 keeps test runtimes low; the cmd runs the full-size version.
func smallFig2(m int) Fig2Config {
	cfg := PaperFig2Config(m, 40, 12345)
	cfg.UStep = float64(m) / 6
	return cfg
}

func TestFigure2aShape(t *testing.T) {
	points, err := Figure2(smallFig2(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("only %d points", len(points))
	}
	if issues := CheckCurveShape(points); len(issues) > 0 {
		t.Errorf("Figure 2(a) shape violations:\n  %s\n%s",
			strings.Join(issues, "\n  "), CurveChart("fig2a", points))
	}
}

func TestFigure2bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := Figure2(smallFig2(8))
	if err != nil {
		t.Fatal(err)
	}
	if issues := CheckCurveShape(points); len(issues) > 0 {
		t.Errorf("Figure 2(b) shape violations:\n  %s\n%s",
			strings.Join(issues, "\n  "), CurveChart("fig2b", points))
	}
}

func TestCurveMonotoneTrend(t *testing.T) {
	// Schedulability percentages must broadly fall with utilization:
	// compare first and last grid point per method.
	points, err := Figure2(smallFig2(4))
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0], points[len(points)-1]
	for _, m := range core.Methods() {
		if last.Pct[m] > first.Pct[m] {
			t.Errorf("%v: %% rose from %.1f to %.1f over the grid", m, first.Pct[m], last.Pct[m])
		}
	}
	// At U = m every method must be (essentially) dead.
	for _, m := range core.Methods() {
		if last.Pct[m] > 20 {
			t.Errorf("%v still schedules %.1f%% at U=m", m, last.Pct[m])
		}
	}
}

func TestFigure2Deterministic(t *testing.T) {
	cfg := smallFig2(4)
	cfg.SetsPerPoint = 15
	a, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for _, m := range core.Methods() {
			if a[i].Pct[m] != b[i].Pct[m] {
				t.Fatalf("point %d method %v: %.2f vs %.2f", i, m, a[i].Pct[m], b[i].Pct[m])
			}
		}
	}
}

func TestCurveCSV(t *testing.T) {
	points := []CurvePoint{
		{U: 1, Pct: map[core.Method]float64{core.FPIdeal: 100, core.LPILP: 90, core.LPMax: 80}},
	}
	csv := CurveCSV(points)
	if !strings.HasPrefix(csv, "utilization,FP-ideal,LP-ILP,LP-max\n") {
		t.Errorf("bad header: %q", csv)
	}
	if !strings.Contains(csv, "1.000,100.00,90.00,80.00") {
		t.Errorf("bad row: %q", csv)
	}
}

func TestCheckCurveShapeCatchesViolations(t *testing.T) {
	bad := []CurvePoint{
		{U: 1, Pct: map[core.Method]float64{core.FPIdeal: 50, core.LPILP: 100, core.LPMax: 100}},
		{U: 2, Pct: map[core.Method]float64{core.FPIdeal: 0, core.LPILP: 10, core.LPMax: 10}},
	}
	if issues := CheckCurveShape(bad); len(issues) == 0 {
		t.Error("violations not reported")
	}
}

func TestGroup2Gap(t *testing.T) {
	cfg := smallFig2(4)
	cfg.SetsPerPoint = 40
	res, err := Group2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Section VI-B: on uniformly parallel sets LP-max and LP-ILP perform
	// "very similar". With small samples allow a loose but meaningful
	// bound on the mean gap.
	if res.MeanGap > 15 {
		t.Errorf("mean LP-ILP vs LP-max gap %.1f%% too large for group 2", res.MeanGap)
	}
	if res.MaxGap < res.MeanGap {
		t.Error("max gap below mean gap")
	}
}

// TestGroup2GapSmallerThanGroup1 is the actual claim of Section VI-B:
// the LP-max pessimism shrinks when every task is highly parallel.
func TestGroup2GapSmallerThanGroup1(t *testing.T) {
	cfg := smallFig2(4)
	cfg.SetsPerPoint = 60
	g2, err := Group2(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg1 := cfg
	cfg1.Group = gen.GroupMixed
	points, err := Figure2(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	var g1sum float64
	for _, p := range points {
		g1sum += p.Pct[core.LPILP] - p.Pct[core.LPMax]
	}
	g1mean := g1sum / float64(len(points))
	if g2.MeanGap > g1mean {
		t.Errorf("group-2 mean gap %.1f%% should undercut group-1 %.1f%%", g2.MeanGap, g1mean)
	}
}

func TestTimingTrend(t *testing.T) {
	res := Timing(TimingConfig{Ms: []int{2, 4}, Sets: 5, Seed: 9})
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.AvgPerSet <= 0 {
			t.Errorf("m=%d: non-positive timing", r.M)
		}
	}
	if res[0].Scenarios != 2 || res[1].Scenarios != 5 {
		t.Errorf("scenario counts p(2)=%d p(4)=%d, want 2 and 5", res[0].Scenarios, res[1].Scenarios)
	}
	table := TimingTable(res)
	if !strings.Contains(table, "avg/set") {
		t.Errorf("timing table malformed:\n%s", table)
	}
}

func TestTableTexts(t *testing.T) {
	t1 := TableIText()
	for _, want := range []string{"µ1[c]", " 3", " 5", " 6", "11", "12"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I text missing %q:\n%s", want, t1)
		}
	}
	t2 := TableIIText()
	for _, want := range []string{"p(4) = 5", "{1, 1, 1, 1}", "{4}"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II text missing %q:\n%s", want, t2)
		}
	}
	t3 := TableIIIText()
	for _, want := range []string{"= 19", "= 15", "= 20", "= 16", "ρ[{2, 1, 1}"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table III text missing %q:\n%s", want, t3)
		}
	}
}

func TestCurveChartRenders(t *testing.T) {
	points, err := Figure2(Fig2Config{
		M: 2, UStart: 0.5, UEnd: 2, UStep: 0.5, SetsPerPoint: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	chart := CurveChart("m=2", points)
	for _, want := range []string{"m=2", "FP-ideal", "LP-ILP", "LP-max"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
}

func TestTasksSweep(t *testing.T) {
	points, err := TasksSweep(TasksSweepConfig{
		M: 4, U: 1.5, NStart: 2, NEnd: 5, SetsPerPoint: 15, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		fp, li, lm := p.Pct[core.FPIdeal], p.Pct[core.LPILP], p.Pct[core.LPMax]
		if li > fp+1e-9 || lm > li+1e-9 {
			t.Errorf("n=%d: ordering violated FP=%.1f ILP=%.1f MAX=%.1f", p.N, fp, li, lm)
		}
	}
	csv := TasksSweepCSV(points)
	if !strings.HasPrefix(csv, "tasks,FP-ideal,LP-ILP,LP-max\n") {
		t.Errorf("bad CSV header: %q", csv)
	}
}

func TestTaskSetNExact(t *testing.T) {
	g := gen.New(5, gen.PaperParams(gen.GroupMixed))
	for _, n := range []int{1, 3, 8} {
		ts := g.TaskSetN(n, 2.0)
		if ts.N() != n {
			t.Fatalf("TaskSetN(%d) produced %d tasks", n, ts.N())
		}
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVariantsOrdering(t *testing.T) {
	cfg := smallFig2(4)
	cfg.SetsPerPoint = 30
	points, err := Variants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("only %d points", len(points))
	}
	anyRefinedGain, anyAblatedGain := false, false
	for _, p := range points {
		// Refinement and ablation can only accept more sets than plain.
		if p.Refined < p.Plain-1e-9 {
			t.Errorf("U=%.2f: refined %.1f%% below plain %.1f%%", p.U, p.Refined, p.Plain)
		}
		if p.Ablated < p.Plain-1e-9 {
			t.Errorf("U=%.2f: ablated %.1f%% below plain %.1f%%", p.U, p.Ablated, p.Plain)
		}
		if p.Refined > p.Plain {
			anyRefinedGain = true
		}
		if p.Ablated > p.Plain {
			anyAblatedGain = true
		}
	}
	if !anyRefinedGain && !anyAblatedGain {
		t.Log("note: neither variant moved any point on this small sample")
	}
	csv := VariantsCSV(points)
	if !strings.HasPrefix(csv, "utilization,LP-ILP,LP-ILP+finalNPR,LP-ILP-noRepeatBlocking\n") {
		t.Errorf("bad CSV header: %q", csv)
	}
}

func TestPessimismStudy(t *testing.T) {
	res, err := Pessimism(PessimismConfig{M: 4, U: 2.0, Sets: 25, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sets != 25 || res.Accepted+res.Rejected != res.Sets {
		t.Fatalf("inconsistent counts: %+v", res)
	}
	if res.RejectedAlive > res.Rejected {
		t.Fatalf("alive rejects exceed rejects: %+v", res)
	}
	if res.UpperBoundPct < 0 || res.UpperBoundPct > 100 {
		t.Fatalf("bad percentage: %+v", res)
	}
}
