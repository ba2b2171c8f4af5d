package rta

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// randomTask builds one fresh random task with a unique name.
func randomTask(rng *rand.Rand, serial int) *model.Task {
	t := randomTaskSet(rng, 1).Tasks[0]
	t.Name = fmt.Sprintf("t%d", serial)
	return t
}

// applyRandomEdit mutates the list like a session edit would: insert a
// fresh task, remove one, or move one to a new priority. It returns the
// new list (the input slice is not aliased).
func applyRandomEdit(rng *rand.Rand, tasks []*model.Task, serial int) []*model.Task {
	out := append([]*model.Task(nil), tasks...)
	op := rng.Intn(3)
	if len(out) == 0 {
		op = 0
	}
	switch op {
	case 0: // add
		at := rng.Intn(len(out) + 1)
		out = append(out, nil)
		copy(out[at+1:], out[at:])
		out[at] = randomTask(rng, serial)
	case 1: // remove
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	case 2: // move
		from, to := rng.Intn(len(out)), rng.Intn(len(out))
		t := out[from]
		out = append(out[:from], out[from+1:]...)
		out = append(out, nil)
		copy(out[to+1:], out[to:])
		out[to] = t
	}
	return out
}

// TestAnalyzeIncrementalMatchesFromScratch quick-checks the tentpole
// contract of the session API: after ANY sequence of edits, the
// incremental analyzer's Result is bit-identical (every field of every
// TaskResult) to a from-scratch analysis of the final list, run on a
// clone so it solves its own µ tables.
func TestAnalyzeIncrementalMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{
		{M: 2, Method: FPIdeal},
		{M: 3, Method: LPMax},
		{M: 4, Method: LPILP},
		{M: 4, Method: LPILP, FinalNPRRefinement: true},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%v-m%d-refine%v", cfg.Method, cfg.M, cfg.FinalNPRRefinement), func(t *testing.T) {
			inc, err := NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tasks := append([]*model.Task(nil), randomTaskSet(rng, 2+rng.Intn(5)).Tasks...)
				serial := 100
				for step := 0; step < 8; step++ {
					tasks = applyRandomEdit(rng, tasks, serial)
					serial++
					if len(tasks) == 0 {
						continue
					}
					ts := &model.TaskSet{Tasks: tasks}
					got, err := inc.AnalyzeIncremental(ctx, ts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := scratch.AnalyzeInPlace(ctx, ts.Clone())
					if err != nil {
						t.Fatal(err)
					}
					if got.Schedulable != want.Schedulable || got.M != want.M ||
						got.Method != want.Method || len(got.Tasks) != len(want.Tasks) {
						t.Logf("seed=%d step=%d: header mismatch: got %+v want %+v", seed, step, got, want)
						return false
					}
					for i := range got.Tasks {
						if got.Tasks[i] != want.Tasks[i] {
							t.Logf("seed=%d step=%d task=%d:\n got %+v\nwant %+v",
								seed, step, i, got.Tasks[i], want.Tasks[i])
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAnalyzeIncrementalReconfigure pins that a Reconfigure (the
// session's SetCores/SetMethod) invalidates the incremental state and
// the next analysis matches from-scratch under the new configuration —
// including core counts served from µ tables the graphs memoized at a
// larger one, which the clone-based reference solves afresh.
func TestAnalyzeIncrementalReconfigure(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	ts := randomTaskSet(rng, 5)
	inc, err := NewAnalyzer(Config{M: 2, Method: LPMax})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AnalyzeIncremental(ctx, ts); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{M: 4, Method: LPMax},
		{M: 4, Method: LPILP},
		{M: 4, Method: FPIdeal},
		{M: 3, Method: LPILP, FinalNPRRefinement: true},
	} {
		if err := inc.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		got, err := inc.AnalyzeIncremental(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(ctx, ts.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schedulable != want.Schedulable || len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("cfg %+v: header mismatch", cfg)
		}
		for i := range got.Tasks {
			if got.Tasks[i] != want.Tasks[i] {
				t.Fatalf("cfg %+v task %d: got %+v want %+v", cfg, i, got.Tasks[i], want.Tasks[i])
			}
		}
	}
}

// TestAnalyzeIncrementalCancelRecovery pins that a cancelled incremental
// analysis leaves the analyzer in a state from which the next call
// recovers with correct (from-scratch-identical) results.
func TestAnalyzeIncrementalCancelRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := randomTaskSet(rng, 6)
	inc, err := NewAnalyzer(Config{M: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inc.AnalyzeIncremental(cancelled, ts); err == nil {
		t.Fatal("cancelled analysis should fail")
	}
	got, err := inc.AnalyzeIncremental(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(context.Background(), ts.Clone(), Config{M: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			t.Fatalf("task %d: got %+v want %+v", i, got.Tasks[i], want.Tasks[i])
		}
	}
}
