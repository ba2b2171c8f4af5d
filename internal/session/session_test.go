package session

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine/cache"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/model"
)

// taskPool builds a pool of distinct, uniquely named random tasks to
// draw session edits from.
func taskPool(seed int64, n int) []*model.Task {
	g := gen.New(seed, gen.PaperParams(gen.GroupMixed))
	pool := make([]*model.Task, 0, n)
	for len(pool) < n {
		for _, t := range g.TaskSet(2.0).Tasks {
			if len(pool) == n {
				break
			}
			pool = append(pool, &model.Task{
				Name: fmt.Sprintf("p%d", len(pool)), G: t.G,
				Deadline: t.Deadline, Period: t.Period,
			})
		}
	}
	return pool
}

// fromScratch analyzes the session's current set with a fresh one-shot
// analyzer — the stateless API a session must be indistinguishable from
// — on a clone, so it solves every µ table instead of reading the ones
// the session memoized on its graphs.
func fromScratch(t *testing.T, sess *Session) *core.Report {
	t.Helper()
	tasks := sess.Tasks()
	if len(tasks) == 0 {
		return &core.Report{
			Schedulable: true,
			Method:      sess.Options().Method,
			Cores:       sess.Options().Cores,
			Tasks:       []core.TaskReport{},
		}
	}
	opts := sess.Options()
	opts.Cache = nil
	a, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(context.Background(), (&model.TaskSet{Tasks: tasks}).Clone())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSessionEditSequenceEquivalence quick-checks the acceptance
// contract: ANY random edit sequence on a Session yields reports
// bit-identical to a from-scratch Analyze of the final set.
func TestSessionEditSequenceEquivalence(t *testing.T) {
	ctx := context.Background()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := taskPool(seed, 12)
		next := 0
		take := func() *model.Task {
			t := pool[next%len(pool)]
			next++
			// Re-wrap so a task re-added after removal is a fresh pointer
			// with a fresh name (sessions treat tasks as immutable and
			// names as unique).
			return &model.Task{Name: fmt.Sprintf("%s-%d", t.Name, next), G: t.G,
				Deadline: t.Deadline, Period: t.Period}
		}
		method := []core.Method{core.FPIdeal, core.LPMax, core.LPILP}[rng.Intn(3)]
		sess, err := New(core.Options{Cores: 2 + rng.Intn(3), Method: method})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			n := sess.Len()
			switch op := rng.Intn(6); {
			case op <= 1 || n == 0: // add (biased: sessions must grow)
				if err := sess.AddTask(take(), rng.Intn(n+1)); err != nil {
					t.Fatal(err)
				}
			case op == 2:
				if _, err := sess.RemoveTask(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			case op == 3:
				if err := sess.SetPriority(rng.Intn(n), rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			case op == 4:
				if err := sess.SetCores(1 + rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := sess.TryAdmit(ctx, take(), -1); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sess.Report(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := fromScratch(t, sess)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed=%d step=%d:\n got %+v\nwant %+v", seed, step, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSessionSetCoresDownNeedsNoLookup pins that µ tables live on the
// graphs, not in the analyzer: a set_cores edit from 8 to 4 re-analyzes
// from the prefixes of the tables solved at 8, with zero lookups in the
// shared cache, and still matches a from-scratch analysis.
func TestSessionSetCoresDownNeedsNoLookup(t *testing.T) {
	ctx := context.Background()
	memo := cache.New(0)
	sess, err := New(core.Options{Cores: 8, Method: core.LPILP, Cache: memo}, fixture.TaskSet().Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Report(ctx); err != nil {
		t.Fatal(err)
	}
	lookups := func() uint64 { s := memo.Stats(); return s.Hits + s.Misses + s.Waits }
	before := lookups()
	if before == 0 {
		t.Fatal("the 8-core analysis never reached the cache")
	}
	if err := sess.Apply([]Edit{{Op: OpSetCores, Cores: 4}}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := lookups() - before; n != 0 {
		t.Errorf("set_cores 8 → 4 made %d cache lookups, want 0", n)
	}
	if want := fromScratch(t, sess); !reflect.DeepEqual(got, want) {
		t.Errorf("report after set_cores differs from scratch:\n%+v\nvs\n%+v", got, want)
	}
}

// TestSessionTryAdmitDoesNotCommit pins the probe semantics: the
// committed set, its report, and the admission verdict itself are
// exactly what AddTask + Report + undo would observe, with no commit.
func TestSessionTryAdmitDoesNotCommit(t *testing.T) {
	ctx := context.Background()
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPILP}, ts.Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	probe := &model.Task{Name: "probe", G: ts.Tasks[1].G, Deadline: 100, Period: 100}
	trialRep, err := sess.TryAdmit(ctx, probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trialRep.Tasks) != ts.N()+1 || trialRep.Tasks[2].Name != "probe" {
		t.Fatalf("trial report shape wrong: %+v", trialRep)
	}
	if sess.Len() != ts.N() {
		t.Fatalf("TryAdmit committed: %d tasks, want %d", sess.Len(), ts.N())
	}
	after, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("committed report changed across TryAdmit:\nbefore %+v\nafter  %+v", before, after)
	}
	// The verdict must equal what committing would have produced.
	if err := sess.AddTask(probe, 2); err != nil {
		t.Fatal(err)
	}
	committed, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trialRep, committed) {
		t.Fatalf("TryAdmit report differs from committed report:\ntrial %+v\nreal  %+v", trialRep, committed)
	}
}

// TestSessionEmptyStart pins that admission control can start from
// nothing: an empty session is trivially schedulable and admits.
func TestSessionEmptyStart(t *testing.T) {
	ctx := context.Background()
	sess, err := New(core.Options{Cores: 4, Method: core.LPILP})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable || len(rep.Tasks) != 0 {
		t.Fatalf("empty session report: %+v", rep)
	}
	tk := fixture.TaskSet().Tasks[0]
	adm, err := sess.TryAdmit(ctx, tk, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Schedulable {
		t.Fatal("single feasible task should be admissible")
	}
	if sess.Len() != 0 {
		t.Fatal("TryAdmit committed on empty session")
	}
}

// TestSessionApplyRollback pins the transactional edit batch: a failing
// edit mid-batch leaves the session exactly as before Apply.
func TestSessionApplyRollback(t *testing.T) {
	ctx := context.Background()
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: fixture.M, Method: core.LPMax}, ts.Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	beforeTasks := sess.Tasks()
	err = sess.Apply([]Edit{
		{Op: OpSetPriority, From: 0, To: 2},
		{Op: OpSetCores, Cores: 8},
		{Op: OpRemove, Index: 99}, // fails
	})
	if err == nil || !strings.Contains(err.Error(), "edit 2:") {
		t.Fatalf("Apply error = %v, want failure naming edit 2", err)
	}
	if !reflect.DeepEqual(sess.Tasks(), beforeTasks) {
		t.Fatal("failed Apply left edits behind")
	}
	if got := sess.Options(); got.Cores != fixture.M {
		t.Fatalf("failed Apply left Cores = %d", got.Cores)
	}
	after, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed Apply changed the report")
	}
	// A fully valid batch applies in order.
	if err := sess.Apply([]Edit{
		{Op: OpSetPriority, From: 0, To: 1},
		{Op: OpSetCores, Cores: 8},
		{Op: OpSetMethod, Method: core.LPILP},
	}); err != nil {
		t.Fatal(err)
	}
	if got := sess.Options(); got.Cores != 8 || got.Method != core.LPILP {
		t.Fatalf("Apply options: %+v", got)
	}
	if got := sess.Tasks()[1].Name; got != beforeTasks[0].Name {
		t.Fatalf("Apply reorder: task 1 = %q, want %q", got, beforeTasks[0].Name)
	}
}

// TestSessionSensitivitySingleTask pins Sensitivity against
// core.CriticalScaling on a single-task set, where scaling one task and
// scaling every task coincide.
func TestSessionSensitivitySingleTask(t *testing.T) {
	ctx := context.Background()
	tk := fixture.TaskSet().Tasks[0]
	opts := core.Options{Cores: 2, Method: core.LPILP}
	sess, err := New(opts, tk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Sensitivity(ctx, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	a := core.MustNew(opts)
	want, err := a.CriticalScaling(ctx, &model.TaskSet{Tasks: []*model.Task{tk}}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Sensitivity = %d, CriticalScaling = %d", got, want)
	}
	if got < 1000 {
		t.Fatalf("lone feasible task should sustain ≥ 1.0×, got %d", got)
	}
}

// TestSessionValidationErrors pins the error-message contract of the
// session edits (field + value, like every other layer).
func TestSessionValidationErrors(t *testing.T) {
	ts := fixture.TaskSet()
	sess, err := New(core.Options{Cores: 4, Method: core.LPILP}, ts.Tasks...)
	if err != nil {
		t.Fatal(err)
	}
	n := sess.Len()
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"add out of range", sess.AddTask(&model.Task{Name: "x", G: ts.Tasks[0].G, Deadline: 5, Period: 5}, n+3),
			fmt.Sprintf("invalid at: %d", n+3)},
		{"add duplicate name", sess.AddTask(&model.Task{Name: ts.Tasks[0].Name, G: ts.Tasks[0].G, Deadline: 5, Period: 5}, 0),
			"duplicate name"},
		{"add same pointer", sess.AddTask(ts.Tasks[0], 0), "already in the session"},
		{"remove out of range", func() error { _, err := sess.RemoveTask(-2); return err }(), "invalid index: -2"},
		{"move bad from", sess.SetPriority(17, 0), "invalid from: 17"},
		{"move bad to", sess.SetPriority(0, -4), "invalid to: -4"},
		{"bad cores", sess.SetCores(0), "invalid Options.Cores: 0"},
		{"bad method", sess.SetMethod(core.Method(9)), "invalid Options.Method"},
	}
	for _, tc := range cases {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want it to contain %q", tc.name, tc.err, tc.want)
		}
	}
	if sess.Len() != n {
		t.Fatalf("failed edits mutated the session: %d tasks, want %d", sess.Len(), n)
	}
}

// TestSessionConcurrentOps race-hammers sessions with concurrent
// queries and edits: the per-session serialization must keep every
// report internally consistent (this test's value is under -race). The
// inputs are one session, and sessions with different options hammered
// at once, which share the process-wide pool of rta scratch states that
// every analysis draws from and reconfigures.
func TestSessionConcurrentOps(t *testing.T) {
	ctx := context.Background()
	ts := fixture.TaskSet()
	for _, input := range [][]core.Options{
		{{Cores: fixture.M, Method: core.LPILP}},
		{
			{Cores: 2, Method: core.FPIdeal},
			{Cores: 3, Method: core.LPMax},
			{Cores: 4, Method: core.LPILP},
			{Cores: 2, Method: core.LPILP, FinalNPRRefinement: true},
			{Cores: 8, Method: core.LPMax, FinalNPRRefinement: true},
			{Cores: 5, Method: core.FPIdeal, FinalNPRRefinement: true},
		},
	} {
		sessions := make([]*Session, len(input))
		for i, opts := range input {
			sess, err := New(opts, ts.Tasks...)
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = sess
		}
		var wg sync.WaitGroup
		for w := 0; w < 4*len(sessions); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := sessions[w%len(sessions)]
				probe := &model.Task{Name: fmt.Sprintf("w%d", w), G: ts.Tasks[1].G, Deadline: 90, Period: 90}
				for i := 0; i < 20; i++ {
					switch i % 3 {
					case 0:
						rep, err := sess.Report(ctx)
						if err != nil || len(rep.Tasks) < ts.N() {
							t.Errorf("report: %v", err)
							return
						}
					case 1:
						if _, err := sess.TryAdmit(ctx, probe, -1); err != nil {
							t.Errorf("admit: %v", err)
							return
						}
					default:
						n := sess.Len()
						_ = sess.SetPriority(i%n, (i+1)%n)
					}
				}
			}(w)
		}
		wg.Wait()
		for _, sess := range sessions {
			got, err := sess.Report(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := fromScratch(t, sess); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: post-hammer report differs from from-scratch", sess.Options())
			}
		}
	}
}
