package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/rta"
)

func chain(wcets ...int64) *dag.Graph {
	var b dag.Builder
	prev := -1
	for _, c := range wcets {
		v := b.AddNode(c)
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	return b.MustBuild()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Cores: 0}); err == nil {
		t.Error("Cores=0 accepted")
	}
	if _, err := New(Options{Cores: 2, Method: Method(99)}); err == nil {
		t.Error("bad method accepted")
	}
	a, err := New(Options{Cores: 4, Method: LPILP})
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if a.Options().Cores != 4 {
		t.Error("Options() lost configuration")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad options")
		}
	}()
	MustNew(Options{Cores: -1})
}

func TestAnalyzeFixture(t *testing.T) {
	ts := fixture.TaskSet()
	a := MustNew(Options{Cores: fixture.M, Method: LPILP})
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tasks) != ts.N() {
		t.Fatalf("report has %d tasks, want %d", len(rep.Tasks), ts.N())
	}
	if rep.Tasks[0].DeltaM != fixture.DeltaILP4 {
		t.Errorf("τk Δ⁴ = %d, want %d", rep.Tasks[0].DeltaM, fixture.DeltaILP4)
	}
	if rep.Cores != fixture.M || rep.Method != LPILP {
		t.Error("report metadata wrong")
	}
	if rep.Utilization <= 0 {
		t.Error("utilization missing")
	}
	ok, err := a.Schedulable(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if ok != rep.Schedulable {
		t.Error("Schedulable disagrees with Analyze")
	}
}

func TestCompareMethodsOrdering(t *testing.T) {
	ts := fixture.TaskSet()
	a := MustNew(Options{Cores: fixture.M})
	reps, err := a.CompareMethods(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	for i := range ts.Tasks {
		fp := reps[FPIdeal].Tasks[i]
		li := reps[LPILP].Tasks[i]
		lm := reps[LPMax].Tasks[i]
		if fp.Analyzed && li.Analyzed && fp.ResponseTimeM > li.ResponseTimeM {
			t.Errorf("task %d: FP-ideal Rm %d > LP-ILP Rm %d", i, fp.ResponseTimeM, li.ResponseTimeM)
		}
		if li.Analyzed && lm.Analyzed && li.ResponseTimeM > lm.ResponseTimeM {
			t.Errorf("task %d: LP-ILP Rm %d > LP-max Rm %d", i, li.ResponseTimeM, lm.ResponseTimeM)
		}
	}
}

func TestReportString(t *testing.T) {
	hi := &model.Task{Name: "hi", G: chain(2), Deadline: 40, Period: 40}
	lo := &model.Task{Name: "lo", G: chain(3, 4), Deadline: 50, Period: 50}
	ts, _ := model.NewTaskSet(hi, lo)
	rep, err := MustNew(Options{Cores: 2, Method: LPILP}).Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"LP-ILP", "m=2", "hi", "lo", "SCHEDULABLE"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}

	// Unschedulable set renders the failure and skips the rest.
	bad := &model.Task{Name: "bad", G: chain(90), Deadline: 10, Period: 10}
	rest := &model.Task{Name: "rest", G: chain(1), Deadline: 99, Period: 99}
	ts2, _ := model.NewTaskSet(bad, rest)
	rep2, err := MustNew(Options{Cores: 2, Method: FPIdeal}).Analyze(context.Background(), ts2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := rep2.String()
	for _, want := range []string{"NOT SCHEDULABLE", "MISS", "skipped"} {
		if !strings.Contains(s2, want) {
			t.Errorf("report missing %q:\n%s", want, s2)
		}
	}
}

func TestResponseTimeCeilingConsistent(t *testing.T) {
	ts := fixture.TaskSet()
	rep, err := MustNew(Options{Cores: fixture.M, Method: LPMax}).Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tasks {
		if !tr.Analyzed {
			continue
		}
		m := int64(fixture.M)
		if tr.ResponseTime != (tr.ResponseTimeM+m-1)/m {
			t.Errorf("task %s: ceiling %d inconsistent with Rm %d",
				tr.Name, tr.ResponseTime, tr.ResponseTimeM)
		}
	}
}

func TestCriticalScaling(t *testing.T) {
	// A set with lots of slack: factor must exceed 1000 permille.
	hi := &model.Task{Name: "hi", G: chain(2), Deadline: 100, Period: 100}
	lo := &model.Task{Name: "lo", G: chain(3, 4), Deadline: 200, Period: 200}
	ts, _ := model.NewTaskSet(hi, lo)
	a := MustNew(Options{Cores: 2, Method: LPILP})
	alpha, err := a.CriticalScaling(context.Background(), ts, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if alpha <= 1000 {
		t.Fatalf("slack set scaling = %d permille, want > 1000", alpha)
	}
	// The verdict must flip exactly at alpha: schedulable at alpha,
	// unschedulable at alpha+1.
	if ok, _ := a.scaledSchedulable(context.Background(), ts, alpha); !ok {
		t.Fatalf("claimed factor %d not schedulable", alpha)
	}
	if ok, _ := a.scaledSchedulable(context.Background(), ts, alpha+1); ok {
		t.Fatalf("factor %d+1 still schedulable; bisection stopped early", alpha)
	}
}

func TestCriticalScalingUnschedulableSet(t *testing.T) {
	bad := &model.Task{Name: "bad", G: chain(90), Deadline: 10, Period: 10}
	ts, _ := model.NewTaskSet(bad)
	a := MustNew(Options{Cores: 2, Method: FPIdeal})
	alpha, err := a.CriticalScaling(context.Background(), ts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if alpha >= 1000 {
		t.Fatalf("doomed set scaling = %d, want < 1000", alpha)
	}
}

func TestCriticalScalingSaturatesAtMax(t *testing.T) {
	tiny := &model.Task{Name: "t", G: chain(1), Deadline: 1000000, Period: 1000000}
	ts, _ := model.NewTaskSet(tiny)
	a := MustNew(Options{Cores: 4, Method: LPILP})
	alpha, err := a.CriticalScaling(context.Background(), ts, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if alpha != 5000 {
		t.Fatalf("got %d, want saturation at 5000", alpha)
	}
}

// TestScaleTaskDoesNotWrap pins ⌈C·α/1000⌉ taken without overflow: a
// WCET of 2^61 at 2000‰ is exactly 2^62 (the product once wrapped and
// was floored to 1), rounding still goes up, and a task whose scaled
// WCET or volume leaves int64 is refused with rta.ErrOverflow.
func TestScaleTaskDoesNotWrap(t *testing.T) {
	task := func(wcets ...int64) *model.Task {
		return &model.Task{Name: "t", G: chain(wcets...), Deadline: math.MaxInt64, Period: math.MaxInt64}
	}
	for _, tc := range []struct {
		wcet     int64
		permille int
		want     int64
	}{
		{1 << 61, 2000, 1 << 62},
		{1 << 61, 1000, 1 << 61},
		{1001, 1, 2}, // ⌈1.001⌉
		{1000, 1, 1}, // exact
		{7, 0, 1},    // floored at 1
		{1, 1 << 62, (1<<62 + 999) / 1000},
		{math.MaxInt64, 1000, math.MaxInt64},
	} {
		st, err := ScaleTask(task(tc.wcet), tc.permille)
		if err != nil {
			t.Fatalf("ScaleTask(%d, %d‰): %v", tc.wcet, tc.permille, err)
		}
		if got := st.G.WCET(0); got != tc.want {
			t.Errorf("ScaleTask(%d, %d‰) = %d, want %d", tc.wcet, tc.permille, got, tc.want)
		}
	}
	for _, tc := range []struct {
		wcets    []int64
		permille int
	}{
		{[]int64{1 << 61}, 4000},          // 2^63
		{[]int64{math.MaxInt64}, 1001},    // past int64 by a hair
		{[]int64{1 << 12}, 1 << 62},       // ⌈2^74/1000⌉
		{[]int64{1 << 61, 1 << 61}, 2000}, // each WCET fits, the volume does not
	} {
		if _, err := ScaleTask(task(tc.wcets...), tc.permille); !errors.Is(err, rta.ErrOverflow) {
			t.Errorf("ScaleTask(%v, %d‰) error %v, want rta.ErrOverflow", tc.wcets, tc.permille, err)
		}
	}
}

// TestCriticalScalingHugeWCET is the probe that once wrapped: one node
// of WCET 2^61 with D = T = 2^62 on one core is schedulable up to
// exactly 2000‰. Past 4000‰ its WCET leaves int64; that probe counts as
// not schedulable, so the bisection answers 2000 instead of the
// search's maximum.
func TestCriticalScalingHugeWCET(t *testing.T) {
	ts, _ := model.NewTaskSet(&model.Task{Name: "t", G: chain(1 << 61), Deadline: 1 << 62, Period: 1 << 62})
	a := MustNew(Options{Cores: 1, Method: LPILP})
	for _, maxPermille := range []int{4000, 1 << 62} {
		alpha, err := a.CriticalScaling(context.Background(), ts, maxPermille)
		if err != nil {
			t.Fatal(err)
		}
		if alpha != 2000 {
			t.Errorf("max %d‰: CriticalScaling = %d, want 2000", maxPermille, alpha)
		}
	}
}

func TestCriticalScalingErrors(t *testing.T) {
	ts, _ := model.NewTaskSet(&model.Task{Name: "x", G: chain(1), Deadline: 5, Period: 5})
	a := MustNew(Options{Cores: 1, Method: FPIdeal})
	if _, err := a.CriticalScaling(context.Background(), ts, 0); err == nil {
		t.Error("maxPermille=0 accepted")
	}
	if _, err := a.CriticalScaling(context.Background(), &model.TaskSet{}, 1000); err == nil {
		t.Error("invalid set accepted")
	}
}

func TestCriticalScalingMonotoneAcrossMethods(t *testing.T) {
	// FP-ideal dominates LP-ILP dominates LP-max, so the critical factors
	// must order the same way.
	hi := &model.Task{Name: "hi", G: chain(2), Deadline: 60, Period: 60}
	lo := &model.Task{Name: "lo", G: chain(9, 8), Deadline: 120, Period: 120}
	ts, _ := model.NewTaskSet(hi, lo)
	var factors []int
	for _, meth := range []Method{LPMax, LPILP, FPIdeal} {
		a := MustNew(Options{Cores: 2, Method: meth})
		f, err := a.CriticalScaling(context.Background(), ts, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		factors = append(factors, f)
	}
	if !(factors[0] <= factors[1] && factors[1] <= factors[2]) {
		t.Fatalf("factors not ordered LP-max ≤ LP-ILP ≤ FP-ideal: %v", factors)
	}
}

// TestOptionsValidationErrors pins the error-message contract of
// Options validation: every path names the offending field (by its
// Options spelling, not an internal alias like "m") and the offending
// value.
func TestOptionsValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"zero cores", Options{Cores: 0, Method: LPILP}, "invalid Options.Cores: 0"},
		{"negative cores", Options{Cores: -3, Method: LPILP}, "invalid Options.Cores: -3"},
		{"bad method", Options{Cores: 4, Method: Method(99)}, "invalid Options.Method: Method(99)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts)
			if err == nil {
				t.Fatalf("New(%+v) succeeded, want error containing %q", tc.opts, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New(%+v) error = %q, want it to contain %q", tc.opts, err, tc.want)
			}
		})
	}
}

// TestVolumeOverflowRejected is the "values wrap" probe: one task of two
// independent nodes of WCET 2^62 with D = T = 2^62, whose volume used to
// wrap to −2^63, so that LP-ILP on one core reported it schedulable with
// a negative bound. The task-set decoder every entry point uses now
// refuses it where the graph is built, and the same task at half the
// WCETs analyzes to its exact bound R = vol = 2^62.
func TestVolumeOverflowRejected(t *testing.T) {
	probe := func(c int64) string {
		return fmt.Sprintf(`{"tasks":[{"name":"t","wcet":[%d,%d],"edges":[],"deadline":%d,"period":%d}]}`, c, c, int64(1)<<62, int64(1)<<62)
	}
	_, err := model.ReadJSON(strings.NewReader(probe(1 << 62)))
	if err == nil || !strings.Contains(err.Error(), "WCET sum overflows int64") {
		t.Fatalf("decoding the probe: error %v, want the WCET sum overflow", err)
	}
	ts, err := model.ReadJSON(strings.NewReader(probe(1 << 61)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MustNew(Options{Cores: 1, Method: LPILP}).Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if tr := rep.Tasks[0]; !rep.Schedulable || tr.ResponseTime != 1<<62 || rep.Utilization != 1 {
		t.Fatalf("half probe: schedulable %v, R = %d, U = %v; want true, 2^62, 1", rep.Schedulable, tr.ResponseTime, rep.Utilization)
	}
}

// TestCriticalScalingCountsRangeErrorUnschedulable pins that a scaling
// the analysis refuses as out of int64 range counts as not schedulable:
// with D = T = 2^62 on three cores, m·D leaves int64 at every factor,
// so the critical factor is 0, not an error.
func TestCriticalScalingCountsRangeErrorUnschedulable(t *testing.T) {
	ts, _ := model.NewTaskSet(&model.Task{Name: "t", G: chain(1 << 40), Deadline: 1 << 62, Period: 1 << 62})
	alpha, err := MustNew(Options{Cores: 3, Method: LPILP}).CriticalScaling(context.Background(), ts, 4000)
	if err != nil || alpha != 0 {
		t.Fatalf("CriticalScaling = %d, %v; want 0", alpha, err)
	}
}
