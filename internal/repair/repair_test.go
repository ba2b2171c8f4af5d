package repair_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/rta"
)

func chainTask(t *testing.T, name string, wcets []int64, d, p int64) *model.Task {
	t.Helper()
	var b dag.Builder
	prev := -1
	for _, c := range wcets {
		v := b.AddNode(c)
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	task := &model.Task{Name: name, G: b.MustBuild(), Deadline: d, Period: p}
	if err := task.Validate(); err != nil {
		t.Fatalf("fixture task %s: %v", name, err)
	}
	return task
}

// blockedSet is the pinned repair fixture: on two cores, the
// high-priority task's deadline is tight enough that the low-priority
// task's single huge NPR blocks it past the deadline; splitting that
// NPR is the repair.
func blockedSet(t *testing.T) []*model.Task {
	t.Helper()
	return []*model.Task{
		chainTask(t, "hi", []int64{5, 5}, 25, 40),
		chainTask(t, "lo", []int64{200}, 900, 1000),
	}
}

func evalWith(t *testing.T, opts core.Options) repair.Eval {
	t.Helper()
	an, err := core.New(opts)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return func(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
		return an.Analyze(ctx, &model.TaskSet{Tasks: tasks})
	}
}

func TestSearchFixesBlockedSet(t *testing.T) {
	opts := core.Options{Cores: 2, Method: core.LPILP}
	eval := evalWith(t, opts)
	ctx := context.Background()
	tasks := blockedSet(t)

	base, err := eval(ctx, tasks)
	if err != nil {
		t.Fatalf("base analyze: %v", err)
	}
	if base.Schedulable {
		t.Fatal("fixture is schedulable; it must start broken")
	}

	for _, strategy := range []repair.Strategy{repair.Greedy, repair.Exhaustive} {
		t.Run(strategy.String(), func(t *testing.T) {
			res, err := repair.Search(ctx, tasks, repair.Config{Strategy: strategy}, eval)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if !res.Fixed {
				t.Fatalf("not fixed: %+v", res)
			}
			if len(res.Transforms) == 0 || res.Stopped {
				t.Fatalf("want a non-empty completed repair, got %+v", res)
			}
			if res.FailingBefore == 0 || res.FailingAfter != 0 {
				t.Fatalf("failing counts: before=%d after=%d", res.FailingBefore, res.FailingAfter)
			}
			// The reported repair must replay: applying the transforms
			// to the input yields the returned ordering...
			replayed, err := repair.Apply(tasks, res.Transforms)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if len(replayed) != len(res.Tasks) {
				t.Fatalf("replay length %d != %d", len(replayed), len(res.Tasks))
			}
			for i := range replayed {
				if replayed[i].Name != res.Tasks[i].Name ||
					replayed[i].G.Fingerprint() != res.Tasks[i].G.Fingerprint() {
					t.Fatalf("replay diverges at %d: %s vs %s", i, replayed[i].Name, res.Tasks[i].Name)
				}
			}
			// ...and an independent from-scratch analysis of a clone
			// (no µ tables memoized by the search) agrees it is
			// schedulable.
			rep, err := eval(ctx, (&model.TaskSet{Tasks: replayed}).Clone().Tasks)
			if err != nil {
				t.Fatalf("re-analyze: %v", err)
			}
			if !rep.Schedulable {
				t.Fatal("reported fix is not schedulable under a fresh analysis")
			}
			// The input must not have been mutated.
			if tasks[1].G.MaxWCET() != 200 {
				t.Fatal("Search mutated its input tasks")
			}
		})
	}
}

func TestSearchDeterministic(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	ctx := context.Background()
	cfg := repair.Config{Seed: 42}
	first, err := repair.Search(ctx, blockedSet(t), cfg, eval)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	for i := 0; i < 3; i++ {
		again, err := repair.Search(ctx, blockedSet(t), cfg, eval)
		if err != nil {
			t.Fatalf("Search #%d: %v", i, err)
		}
		if len(again.Transforms) != len(first.Transforms) {
			t.Fatalf("run %d: %v != %v", i, again.Transforms, first.Transforms)
		}
		for j := range again.Transforms {
			if again.Transforms[j] != first.Transforms[j] {
				t.Fatalf("run %d: %v != %v", i, again.Transforms, first.Transforms)
			}
		}
		if again.Candidates != first.Candidates {
			t.Fatalf("run %d: candidates %d != %d", i, again.Candidates, first.Candidates)
		}
	}
}

func TestSearchAlreadySchedulable(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	tasks := []*model.Task{chainTask(t, "only", []int64{5, 5}, 100, 100)}
	res, err := repair.Search(context.Background(), tasks, repair.Config{}, eval)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.Fixed || len(res.Transforms) != 0 || res.Candidates != 1 || res.Stopped {
		t.Fatalf("want trivial fixed result, got %+v", res)
	}
}

// TestSearchCancelReturnsBestSoFar is the anytime contract: cancelling
// mid-search promptly returns the best partial repair, not an error.
func TestSearchCancelReturnsBestSoFar(t *testing.T) {
	opts := core.Options{Cores: 2, Method: core.LPILP}
	an, err := core.New(opts)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	eval := func(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
		if calls.Add(1) == 3 {
			cancel() // mid-search: after the base and one candidate
		}
		return an.Analyze(ctx, &model.TaskSet{Tasks: tasks})
	}
	res, err := repair.Search(ctx, blockedSet(t), repair.Config{}, eval)
	if err != nil {
		t.Fatalf("Search after cancel: %v", err)
	}
	if !res.Stopped {
		t.Fatalf("want Stopped on cancellation, got %+v", res)
	}
	if res.Candidates > 4 {
		t.Fatalf("search kept going after cancellation: %d candidates", res.Candidates)
	}
	if res.Report == nil || res.Tasks == nil {
		t.Fatal("best-so-far result missing tasks/report")
	}
}

// TestSearchCandidateCap: the MaxCandidates budget is the other
// anytime exit.
func TestSearchCandidateCap(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	res, err := repair.Search(context.Background(), blockedSet(t),
		repair.Config{MaxCandidates: 1}, eval)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.Stopped || res.Fixed || res.Candidates != 1 {
		t.Fatalf("want capped unfixed result, got %+v", res)
	}
	if res.FailingAfter != res.FailingBefore || len(res.Transforms) != 0 {
		t.Fatalf("best-so-far must be the input set, got %+v", res)
	}
}

func TestSearchEvalErrorPropagates(t *testing.T) {
	boom := errors.New("backend down")
	calls := 0
	eval := func(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
		calls++
		if calls == 1 {
			an, err := core.New(core.Options{Cores: 2, Method: core.LPILP})
			if err != nil {
				return nil, err
			}
			return an.Analyze(ctx, &model.TaskSet{Tasks: tasks})
		}
		return nil, boom
	}
	_, err := repair.Search(context.Background(), blockedSet(t), repair.Config{}, eval)
	if !errors.Is(err, boom) {
		t.Fatalf("want eval error to propagate, got %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  repair.Config
		want string
	}{
		{repair.Config{MaxSteps: -1}, "invalid Config.MaxSteps"},
		{repair.Config{Beam: -2}, "invalid Config.Beam"},
		{repair.Config{MaxCandidates: -1}, "invalid Config.MaxCandidates"},
		{repair.Config{Budgets: []int64{10, 0}}, "invalid Config.Budgets[1]"},
		{repair.Config{Strategy: repair.Strategy(9)}, "invalid Config.Strategy"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want %q", tc.cfg, err, tc.want)
		}
	}
	if err := (repair.Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate, got %v", err)
	}
}

func TestApplyErrors(t *testing.T) {
	tasks := blockedSet(t)
	cases := []struct {
		tr   repair.Transform
		want string
	}{
		{repair.Transform{Op: repair.OpSplit, Task: "nope", MaxNPR: 10}, "unknown task"},
		{repair.Transform{Op: repair.OpSplit, Task: "lo", MaxNPR: 0}, "invalid MaxNPR"},
		{repair.Transform{Op: repair.OpMove, Task: "lo", To: 5}, "invalid To"},
		{repair.Transform{Op: repair.Op(7), Task: "lo"}, "invalid Op"},
	}
	for _, tc := range cases {
		_, err := repair.Apply(tasks, []repair.Transform{tc.tr})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Apply(%v) = %v, want %q", tc.tr, err, tc.want)
		}
	}
}

func TestApplyTransforms(t *testing.T) {
	tasks := blockedSet(t)
	out, err := repair.Apply(tasks, []repair.Transform{
		{Op: repair.OpSplit, Task: "lo", MaxNPR: 50},
		{Op: repair.OpMove, Task: "lo", To: 0},
		{Op: repair.OpCoarsen, Task: "hi", MaxNPR: 10},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if out[0].Name != "lo" || out[1].Name != "hi" {
		t.Fatalf("move not applied: %s, %s", out[0].Name, out[1].Name)
	}
	if got := out[0].G.MaxWCET(); got != 50 {
		t.Errorf("split: max NPR %d, want 50", got)
	}
	if got := out[0].G.N(); got != 4 {
		t.Errorf("split: %d nodes, want 4", got)
	}
	if got := out[1].G.N(); got != 1 {
		t.Errorf("coarsen: %d nodes, want 1", got)
	}
	// Inputs untouched.
	if tasks[0].Name != "hi" || tasks[0].G.N() != 2 || tasks[1].G.N() != 1 {
		t.Fatal("Apply mutated its input")
	}
}

func TestDeriveBudgets(t *testing.T) {
	tasks := blockedSet(t) // largest NPR 200
	got := repair.DeriveBudgets(tasks)
	want := []int64{100, 50, 25}
	if len(got) != len(want) {
		t.Fatalf("DeriveBudgets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DeriveBudgets = %v, want %v", got, want)
		}
	}
	tiny := []*model.Task{chainTask(t, "t", []int64{2}, 10, 10)}
	got = repair.DeriveBudgets(tiny)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeriveBudgets(tiny) = %v, want [1]", got)
	}
}

func TestSearchInputValidation(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	ctx := context.Background()
	if _, err := repair.Search(ctx, nil, repair.Config{}, eval); err == nil {
		t.Error("empty task set must error")
	}
	if _, err := repair.Search(ctx, blockedSet(t), repair.Config{}, nil); err == nil {
		t.Error("nil eval must error")
	}
	dup := []*model.Task{
		chainTask(t, "same", []int64{5}, 50, 50),
		chainTask(t, "same", []int64{5}, 50, 50),
	}
	if _, err := repair.Search(ctx, dup, repair.Config{}, eval); err == nil ||
		!strings.Contains(err.Error(), "duplicate name") {
		t.Error("duplicate names must error")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, s := range []repair.Strategy{repair.Greedy, repair.Exhaustive} {
		got, err := repair.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := repair.ParseStrategy("magic"); err == nil {
		t.Error("ParseStrategy must reject unknown spellings")
	}
	for _, o := range []repair.Op{repair.OpSplit, repair.OpCoarsen, repair.OpMove} {
		got, err := repair.ParseOp(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOp(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := repair.ParseOp("magic"); err == nil {
		t.Error("ParseOp must reject unknown spellings")
	}
}

// TestSearchSkipsSplitsPastTheShapeBounds pins the one shape bound an
// in-process graph obeys: a split whose Σ⌈C_v/q⌉ nodes pass
// limits.Nodes is counted before dag.Split and never evaluated, so a
// repaired session always restores from its own snapshot. Splitting a
// 2000-WCET node at 1 would build 2000 nodes; at 2 it builds 1000.
func TestSearchSkipsSplitsPastTheShapeBounds(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	tasks := []*model.Task{
		chainTask(t, "hi", []int64{5, 5}, 25, 40),
		chainTask(t, "lo", []int64{2000}, 9000, 10000),
	}
	res, err := repair.Search(context.Background(), tasks, repair.Config{Budgets: []int64{1}}, eval)
	if err != nil || res.Fixed || res.Candidates != 1 {
		t.Fatalf("budget 1: %+v, %v; want unfixed after the base analysis alone", res, err)
	}
	res, err = repair.Search(context.Background(), tasks, repair.Config{Budgets: []int64{1, 2}}, eval)
	if err != nil || !res.Fixed || fmt.Sprint(res.Transforms) != "[split lo at 2]" || res.Candidates != 2 {
		t.Fatalf("budgets 1, 2: %+v, %v; want fixed by splitting lo at 2", res, err)
	}
	if n := res.Tasks[1].G.N(); n != 1000 {
		t.Fatalf("repaired lo has %d nodes, want 1000", n)
	}
}

// TestSearchSkipsCandidatesPastInt64 pins that a candidate the analysis
// refuses as out of int64 range is skipped, not fatal. On two cores the
// base set analyzes within int64, but splitting hi's 64-unit node at 1
// raises its q to 63, and q·Δ^{m−1} = 63 · 2^58 (lo's NPR) leaves
// int64. The exhaustive
// search, which splits the failing task itself, counts the refused
// candidate and answers unfixed.
func TestSearchSkipsCandidatesPastInt64(t *testing.T) {
	eval := evalWith(t, core.Options{Cores: 2, Method: core.LPILP})
	tasks := []*model.Task{
		chainTask(t, "hi", []int64{64}, 1000, 1000),
		chainTask(t, "lo", []int64{1 << 58}, 1<<59, 1<<59),
	}
	if rep, err := eval(context.Background(), tasks); err != nil || rep.Schedulable {
		t.Fatalf("base set: %v, want unschedulable", err)
	}
	split, err := repair.Apply(tasks, []repair.Transform{{Op: repair.OpSplit, Task: "hi", MaxNPR: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval(context.Background(), split); !errors.Is(err, rta.ErrOverflow) {
		t.Fatalf("split set: %v, want rta.ErrOverflow", err)
	}
	cfg := repair.Config{Strategy: repair.Exhaustive, Budgets: []int64{1}}
	res, err := repair.Search(context.Background(), tasks, cfg, eval)
	if err != nil || res.Fixed || res.Candidates != 2 || len(res.Transforms) != 0 {
		t.Fatalf("search: %+v, %v; want unfixed after the base and the refused split", res, err)
	}
}
