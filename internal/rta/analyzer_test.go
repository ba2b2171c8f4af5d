package rta

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"weak"

	"repro/internal/dag"
	"repro/internal/engine/cache"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestAnalyzerSteadyStateZeroAlloc pins the perf contract of the
// reusable analyzer: once an Analyzer has seen a task set's graphs, the
// whole analysis — scratch setup, suffix-incremental blocking
// aggregation, and the fixed-point loops — performs no heap allocation
// for any method, with or without a shared cache. (With one, steady
// state resolves every µ table in the memo on its graph, so the shared
// cache costs nothing once warm — the contract that keeps a cached
// engine no slower than an uncached one.)
func TestAnalyzerSteadyStateZeroAlloc(t *testing.T) {
	ts := fixture.TaskSet()
	for _, method := range []Method{FPIdeal, LPMax, LPILP} {
		for _, memo := range []*cache.Cache{nil, cache.New(0)} {
			a, err := NewAnalyzer(Config{M: fixture.M, Method: method, Cache: memo})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil { // warm the memos
				t.Fatal(err)
			}
			var sink *Result
			allocs := testing.AllocsPerRun(100, func() {
				r, err := a.AnalyzeInPlace(context.Background(), ts)
				if err != nil {
					panic(err)
				}
				sink = r
			})
			if allocs != 0 {
				t.Errorf("%v (cached=%v): steady-state AnalyzeInPlace allocates %.1f objects/op, want 0",
					method, memo != nil, allocs)
			}
			if sink == nil || len(sink.Tasks) != ts.N() {
				t.Fatalf("%v: bad result", method)
			}
		}
	}
}

// TestAnalyzerZeroAllocWithTrace pins that attaching a live metrics
// registry (Config.Trace, the analysis-phase tracing behind /metrics)
// keeps the steady-state analysis allocation-free: every span and
// counter the hot path records is an atomic write into pre-resolved
// series. This is the instrumented twin of
// TestAnalyzerSteadyStateZeroAlloc and the test-level guarantee behind
// BenchmarkAnalyzePoint's 0 allocs/op.
func TestAnalyzerZeroAllocWithTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTrace(reg)
	ts := fixture.TaskSet()
	for _, method := range []Method{FPIdeal, LPMax, LPILP} {
		a, err := NewAnalyzer(Config{M: fixture.M, Method: method, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil { // warm the memos
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: traced steady-state AnalyzeInPlace allocates %.1f objects/op, want 0", method, allocs)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"lpdag_analysis_full_runs_total",
		"lpdag_analysis_suffix_push_seconds",
		"lpdag_analysis_fixed_point_seconds",
		"lpdag_analysis_fixed_point_iterations",
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("scrape is missing %s after traced runs", series)
		}
	}
}

// TestAnalyzerEquivalence quick-checks that one reused Analyzer — with
// and without a shared cache — reports results identical to the
// one-shot Analyze for random task sets across methods and core counts.
// This is the referee for the suffix-incremental rewrite: every field of
// every TaskResult must match, not just the verdict. The one-shot
// reference runs on a clone, whose graphs start with empty µ memos, so
// it never reads a table the analyzers under test stored.
func TestAnalyzerEquivalence(t *testing.T) {
	for _, method := range []Method{FPIdeal, LPMax, LPILP} {
		reused, err := NewAnalyzer(Config{M: 4, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		memo := cache.New(0)
		cached, err := NewAnalyzer(Config{M: 4, Method: method, Cache: memo})
		if err != nil {
			t.Fatal(err)
		}
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			ts := randomTaskSet(rng, 1+rng.Intn(5))
			want, err := Analyze(context.Background(), ts.Clone(), Config{M: 4, Method: method})
			if err != nil {
				t.Fatal(err)
			}
			// cached runs first, so it finds the graphs' µ memos empty
			// and goes through the cache.
			for _, a := range []*Analyzer{cached, reused} {
				got, err := a.AnalyzeInPlace(context.Background(), ts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Schedulable != want.Schedulable || got.M != want.M || got.Method != want.Method ||
					len(got.Tasks) != len(want.Tasks) {
					return false
				}
				for i := range got.Tasks {
					if got.Tasks[i] != want.Tasks[i] {
						t.Logf("seed=%d method=%v task=%d: got %+v want %+v",
							seed, method, i, got.Tasks[i], want.Tasks[i])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%v: %v", method, err)
		}
	}
}

// TestCachedUncachedEquivalenceUnderEdits quick-checks the cache
// demotion invariant end to end: a cached analyzer and an uncached one
// report bit-identical results across methods and a random edit
// sequence applied to the task set (swap priorities, drop a task,
// append a fresh one — the session workload shape). One cache
// instance serves the whole sequence, so µ tables materialized for an
// earlier version of the set are re-served, content-addressed, to the
// edited versions; every TaskResult field must still match recompute.
// The uncached side analyzes a clone of every version, so it solves
// each µ table itself instead of reading the graph memo.
func TestCachedUncachedEquivalenceUnderEdits(t *testing.T) {
	for _, method := range []Method{LPMax, LPILP} {
		memo := cache.New(0)
		cached, err := NewAnalyzer(Config{M: 3, Method: method, Cache: memo})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewAnalyzer(Config{M: 3, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			ts := randomTaskSet(rng, 2+rng.Intn(3))
			for step := 0; ; step++ {
				got, err := cached.AnalyzeInPlace(context.Background(), ts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.AnalyzeInPlace(context.Background(), ts.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if got.Schedulable != want.Schedulable || len(got.Tasks) != len(want.Tasks) {
					return false
				}
				for i := range got.Tasks {
					if got.Tasks[i] != want.Tasks[i] {
						t.Logf("seed=%d method=%v step=%d task=%d: cached %+v uncached %+v",
							seed, method, step, i, got.Tasks[i], want.Tasks[i])
						return false
					}
				}
				if step == 3 {
					return true
				}
				tasks := append([]*model.Task(nil), ts.Tasks...)
				switch n := len(tasks); rng.Intn(3) {
				case 0: // swap two priorities
					i, j := rng.Intn(n), rng.Intn(n)
					tasks[i], tasks[j] = tasks[j], tasks[i]
				case 1: // drop one task (keep the set non-empty)
					if n > 1 {
						i := rng.Intn(n)
						tasks = append(tasks[:i], tasks[i+1:]...)
					}
				default: // append a fresh lowest-priority task
					tasks = append(tasks, randomTaskSet(rng, 1).Tasks[0])
				}
				ts = &model.TaskSet{Tasks: tasks}
			}
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%v: %v", method, err)
		}
	}
}

// TestAnalyzerPinsNoEarlierGraph pins that an analyzer holds no µ
// state of its own: a pooled long-lived analyzer fed a stream of freshly
// built sets — the campaign and server shape — keeps no graph of an
// earlier set (nor its O(V²) bitsets) alive, with or without a shared
// cache.
func TestAnalyzerPinsNoEarlierGraph(t *testing.T) {
	for _, memo := range []*cache.Cache{nil, cache.New(0)} {
		a, err := NewAnalyzer(Config{M: 4, Method: LPILP, Cache: memo})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var earlier []weak.Pointer[dag.Graph]
		for i := 0; i < 40; i++ {
			ts := randomTaskSet(rng, 3)
			if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil {
				t.Fatal(err)
			}
			for _, task := range ts.Tasks {
				earlier = append(earlier, weak.Make(task.G))
			}
		}
		// One more set takes over the analyzer's scratch.
		if _, err := a.AnalyzeInPlace(context.Background(), randomTaskSet(rng, 3)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		for i, w := range earlier {
			if w.Value() != nil {
				t.Fatalf("cached=%v: graph %d of an earlier set is still alive", memo != nil, i)
			}
		}
		runtime.KeepAlive(a) // the analyzer itself must be live across the GC
	}
}

// TestAnalyzerScratchTailCleared pins that analyzing a small set after
// a large one does not pin the large set's graphs in the scratch tail.
func TestAnalyzerScratchTailCleared(t *testing.T) {
	a, err := NewAnalyzer(Config{M: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := a.AnalyzeInPlace(context.Background(), randomTaskSet(rng, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeInPlace(context.Background(), randomTaskSet(rng, 2)); err != nil {
		t.Fatal(err)
	}
	for i, g := range a.graphs[len(a.graphs):cap(a.graphs)] {
		if g != nil {
			t.Fatalf("scratch tail index %d still pins a graph", i)
		}
	}
}

// TestAnalyzeOwnsResult pins that Analyze (unlike AnalyzeInPlace)
// returns a result that survives subsequent calls.
func TestAnalyzeOwnsResult(t *testing.T) {
	ts := fixture.TaskSet()
	a, err := NewAnalyzer(Config{M: fixture.M, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]TaskResult(nil), first.Tasks...)
	if _, err := a.AnalyzeInPlace(context.Background(), &model.TaskSet{Tasks: ts.Tasks[:1]}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if first.Tasks[i] != snapshot[i] {
			t.Fatalf("Analyze result mutated by a later AnalyzeInPlace call")
		}
	}
}

// TestAnalyzeInPlaceReconfigure pins that an analyzer reconfigured
// between calls, as core's process-wide pool does on every draw,
// matches a from-scratch analysis under each new configuration —
// including core counts served from µ tables the graphs memoized at a
// larger one, which the clone-based reference solves afresh.
func TestAnalyzeInPlaceReconfigure(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	ts := randomTaskSet(rng, 5)
	a, err := NewAnalyzer(Config{M: 2, Method: LPMax})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeInPlace(ctx, ts); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{M: 4, Method: LPMax},
		{M: 4, Method: LPILP},
		{M: 4, Method: FPIdeal},
		{M: 3, Method: LPILP, FinalNPRRefinement: true},
	} {
		if err := a.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		got, err := a.AnalyzeInPlace(ctx, ts)
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

// TestAnalyzeInPlaceCancelRecovery pins that a cancelled analysis
// leaves the analyzer in a state from which the next call returns
// from-scratch-identical results: a pooled analyzer goes back to the
// pool after a cancelled job and serves the next one.
func TestAnalyzeInPlaceCancelRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := randomTaskSet(rng, 6)
	a, err := NewAnalyzer(Config{M: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnalyzeInPlace(cancelled, ts); err == nil {
		t.Fatal("cancelled analysis should fail")
	}
	got, err := a.AnalyzeInPlace(context.Background(), ts)
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
