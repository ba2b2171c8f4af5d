package sim

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/gen"
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

func diamond(c ...int64) *dag.Graph {
	var b dag.Builder
	s := b.AddNode(c[0])
	a := b.AddNode(c[1])
	bb := b.AddNode(c[2])
	t := b.AddNode(c[3])
	b.AddEdge(s, a)
	b.AddEdge(s, bb)
	b.AddEdge(a, t)
	b.AddEdge(bb, t)
	return b.MustBuild()
}

func mustSet(t *testing.T, tasks ...*model.Task) *model.TaskSet {
	t.Helper()
	ts, err := model.NewTaskSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestSingleTaskMakespan(t *testing.T) {
	// Diamond (1,2,3,4) on 2 cores: source at [0,1), both branches in
	// parallel [1,3)/[1,4), sink [4,8) → response 8.
	ts := mustSet(t, &model.Task{Name: "d", G: diamond(1, 2, 3, 4), Deadline: 20, Period: 20})
	res, err := Run(ts, Config{M: 2, Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxResponse[0] != 8 {
		t.Errorf("response = %d, want 8", res.MaxResponse[0])
	}
	if res.Misses != 0 {
		t.Errorf("misses = %d", res.Misses)
	}
}

func TestSingleCoreSequentialisesDiamond(t *testing.T) {
	ts := mustSet(t, &model.Task{Name: "d", G: diamond(1, 2, 3, 4), Deadline: 20, Period: 20})
	res, err := Run(ts, Config{M: 1, Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxResponse[0] != 10 { // volume
		t.Errorf("response = %d, want 10 (volume)", res.MaxResponse[0])
	}
}

func TestNonPreemptiveBlocking(t *testing.T) {
	// Low-priority long NPR starts at 0 on the only core; high-priority
	// task released at 0 too, but scheduling is priority-ordered at
	// t = 0, so hi runs first. Give lo a head start with hi's sporadic
	// delay — hi released at 1 must wait for lo's node to finish at 10.
	hi := &model.Task{Name: "hi", G: chain(2), Deadline: 50, Period: 50}
	lo := &model.Task{Name: "lo", G: chain(10, 1), Deadline: 100, Period: 100}
	delays := func(task, job int) int64 { return 0 }
	_ = delays
	// Simulate with hi's first release delayed by 1 via a custom
	// scenario: shift hi's phase by giving it one extra delay. The
	// ReleaseDelay hook delays inter-arrivals, not the first release, so
	// emulate the phase shift by swapping roles: release both at 0 but
	// make lo higher priority… simpler: check eager behaviour directly
	// at t=0 with both ready: hi (higher priority) runs first.
	ts := mustSet(t, hi, lo)
	res, err := Run(ts, Config{M: 1, Duration: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxResponse[0] != 2 { // hi runs immediately
		t.Errorf("hi response = %d, want 2", res.MaxResponse[0])
	}
	if res.MaxResponse[1] != 13 { // 2 (blocked) + 11
		t.Errorf("lo response = %d, want 13", res.MaxResponse[1])
	}
}

// TestEagerNonPreemption pins the defining LP behaviour: a running NPR is
// never abandoned. Two tasks on one core; lo's 10-unit node occupies the
// core when hi arrives mid-flight (phase via period arithmetic), and hi
// must wait until the node boundary.
func TestEagerNonPreemption(t *testing.T) {
	// hi: period 7, first job at 0; lo: chain(10,1). At t=0 hi runs
	// (2 units), lo starts its 10-unit node at t=2. hi's second job at
	// t=7 finds the core busy until t=12 → response 12-7+2 = 7.
	hi := &model.Task{Name: "hi", G: chain(2), Deadline: 7, Period: 7}
	lo := &model.Task{Name: "lo", G: chain(10, 1), Deadline: 100, Period: 100}
	ts := mustSet(t, hi, lo)
	res, err := Run(ts, Config{M: 1, Duration: 14, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 of hi: release 7, blocked until 12, runs [12,14) → resp 7.
	var hiJob1 *JobStat
	for i := range res.Jobs {
		if res.Jobs[i].Task == 0 && res.Jobs[i].Job == 1 {
			hiJob1 = &res.Jobs[i]
		}
	}
	if hiJob1 == nil {
		t.Fatal("hi job 1 not completed")
	}
	if hiJob1.Response != 7 {
		t.Errorf("hi job 1 response = %d, want 7 (blocked by the NPR)", hiJob1.Response)
	}
	if hiJob1.Missed {
		t.Error("response == deadline is not a miss")
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	// Two unit-period heavy tasks on one core: guaranteed misses.
	a := &model.Task{Name: "a", G: chain(3), Deadline: 4, Period: 4}
	b := &model.Task{Name: "b", G: chain(3), Deadline: 4, Period: 4}
	res, err := Run(mustSet(t, a, b), Config{M: 1, Duration: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Error("expected deadline misses")
	}
}

func TestConfigValidation(t *testing.T) {
	ts := mustSet(t, &model.Task{Name: "x", G: chain(1), Deadline: 5, Period: 5})
	if _, err := Run(ts, Config{M: 0, Duration: 10}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Run(ts, Config{M: 1, Duration: 0}); err == nil {
		t.Error("Duration=0 accepted")
	}
	if _, err := Run(&model.TaskSet{}, Config{M: 1, Duration: 10}); err == nil {
		t.Error("invalid set accepted")
	}
}

func TestSporadicDelays(t *testing.T) {
	// Sporadic slack between releases reduces pressure: the overloaded
	// pair below misses constantly when strictly periodic, but with an
	// 8-unit gap only the synchronous initial release can collide.
	a := &model.Task{Name: "a", G: chain(3), Deadline: 4, Period: 4}
	b := &model.Task{Name: "b", G: chain(3), Deadline: 4, Period: 4}
	periodic, err := Run(mustSet(t, a, b), Config{M: 1, Duration: 40})
	if err != nil {
		t.Fatal(err)
	}
	sporadic, err := Run(mustSet(t, a, b), Config{
		M: 1, Duration: 40,
		ReleaseDelay: func(task, job int) int64 { return 8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sporadic.Misses >= periodic.Misses {
		t.Errorf("sporadic misses %d should be below periodic %d",
			sporadic.Misses, periodic.Misses)
	}
	// Only the synchronous releases at t = 0 collide: exactly one miss
	// (task b behind task a) per collision instant, and releases stay
	// synchronous at distance 12, so 4 release instants → 4 misses of b.
	if sporadic.Misses != 4 {
		t.Errorf("sporadic misses = %d, want 4 (b blocked at each synchronous release)",
			sporadic.Misses)
	}
}

func TestTraceAndGantt(t *testing.T) {
	ts := mustSet(t, &model.Task{Name: "d", G: diamond(1, 2, 3, 4), Deadline: 20, Period: 20})
	res, err := Run(ts, Config{M: 2, Duration: 20, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 4 {
		t.Fatalf("trace has %d spans, want 4", len(res.Trace))
	}
	// No core runs two spans at once.
	for i, s1 := range res.Trace {
		for _, s2 := range res.Trace[i+1:] {
			if s1.Core == s2.Core && s1.Start < s2.End && s2.Start < s1.End {
				t.Fatalf("overlapping spans on core %d: %+v %+v", s1.Core, s1, s2)
			}
		}
	}
	g := res.Gantt(ts, 10, 1)
	if !strings.Contains(g, "core0") || !strings.Contains(g, "core1") {
		t.Errorf("Gantt missing core rows:\n%s", g)
	}
	if !strings.Contains(g, "d") {
		t.Errorf("Gantt missing task label:\n%s", g)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	ts := mustSet(t, &model.Task{Name: "x", G: chain(5), Deadline: 10, Period: 10})
	res, err := Run(ts, Config{M: 1, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Utilization(1); got < 0.45 || got > 0.55 {
		t.Errorf("utilization = %.3f, want ≈0.5", got)
	}
}

// TestPrecedenceRespected replays random schedules and asserts no node
// starts before all its predecessors finished.
func TestPrecedenceRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.New(7, gen.PaperParams(gen.GroupMixed))
	for trial := 0; trial < 20; trial++ {
		ts := g.TaskSet(1.5 + rng.Float64()*2)
		m := 2 + rng.Intn(3)
		res, err := Run(ts, Config{M: m, Duration: 2000, RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		// start/end per (task, job, node)
		type key struct{ task, job, node int }
		start := map[key]int64{}
		end := map[key]int64{}
		for _, s := range res.Trace {
			k := key{s.Task, s.Job, s.Node}
			start[k] = s.Start
			end[k] = s.End
		}
		for k, st := range start {
			gr := ts.Tasks[k.task].G
			for _, p := range gr.Predecessors(k.node) {
				pk := key{k.task, k.job, p}
				if e, ok := end[pk]; ok && st < e {
					t.Fatalf("trial %d: node %v started %d before pred %d ended %d",
						trial, k, st, p, e)
				}
			}
		}
		// Never more than m spans run simultaneously (sweep-line count).
		type delta struct {
			t int64
			d int
		}
		var deltas []delta
		for _, s := range res.Trace {
			deltas = append(deltas, delta{s.Start, 1}, delta{s.End, -1})
		}
		sort.Slice(deltas, func(a, b int) bool {
			if deltas[a].t != deltas[b].t {
				return deltas[a].t < deltas[b].t
			}
			return deltas[a].d < deltas[b].d // ends before starts at equal t
		})
		running := 0
		for _, d := range deltas {
			running += d.d
			if running > m {
				t.Fatalf("trial %d: %d simultaneous spans on %d cores", trial, running, m)
			}
		}
	}
}

// TestAnalysisIsUpperBound is the central oracle property: for task sets
// the LP analysis deems schedulable, every simulated response time (a
// legal sporadic scenario: synchronous periodic, plus random sporadic
// jitter) must stay at or below the analytic bound.
func TestAnalysisIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 120 && checked < 30; trial++ {
		g := gen.New(int64(1000+trial), gen.PaperParams(gen.GroupMixed))
		ts := g.TaskSet(0.8 + rng.Float64()*1.2)
		m := 2 + rng.Intn(3)
		for _, method := range []rta.Method{rta.LPMax, rta.LPILP} {
			ana, err := rta.Analyze(context.Background(), ts, rta.Config{M: m, Method: method})
			if err != nil {
				t.Fatal(err)
			}
			if !ana.Schedulable {
				continue
			}
			checked++
			// Horizon: a few hyper-ish periods.
			var maxT int64
			for _, task := range ts.Tasks {
				if task.Period > maxT {
					maxT = task.Period
				}
			}
			for _, jitter := range []func(int, int) int64{
				nil,
				func(task, job int) int64 { return rng.Int63n(5) },
			} {
				res, err := Run(ts, Config{M: m, Duration: 6 * maxT, ReleaseDelay: jitter})
				if err != nil {
					t.Fatal(err)
				}
				if res.Misses > 0 {
					t.Fatalf("trial %d (%v): schedulable set missed a deadline in simulation",
						trial, method)
				}
				for i := range ts.Tasks {
					bound := ana.Tasks[i].ResponseTimeCeil(m)
					if res.MaxResponse[i] > bound {
						t.Fatalf("trial %d (%v): task %d simulated response %d > bound %d",
							trial, method, i, res.MaxResponse[i], bound)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no schedulable sets sampled; tune the generator")
	}
}

func BenchmarkSimulateFixture(b *testing.B) {
	ts := fixture.TaskSet()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ts, Config{M: fixture.M, Duration: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStats checks the recorded jobs against the run's summary: every
// task completes jobs, the largest response among a task's jobs is its
// MaxResponse, and task a, strictly periodic with no interference
// above it, responds in exactly 5 every time.
func TestStats(t *testing.T) {
	ts := mustSet(t,
		&model.Task{Name: "a", G: chain(5), Deadline: 10, Period: 10},
		&model.Task{Name: "b", G: chain(3), Deadline: 20, Period: 20},
	)
	res, err := Run(ts, Config{M: 1, Duration: 200})
	if err != nil {
		t.Fatal(err)
	}
	jobs, maxResp := make([]int, ts.N()), make([]int64, ts.N())
	for _, j := range res.Jobs {
		jobs[j.Task]++
		maxResp[j.Task] = max(maxResp[j.Task], j.Response)
		if j.Task == 0 && j.Response != 5 {
			t.Errorf("task a job %d responded in %d, want 5", j.Job, j.Response)
		}
	}
	for i := range jobs {
		if jobs[i] == 0 {
			t.Fatalf("task %d has no jobs", i)
		}
		if maxResp[i] != res.MaxResponse[i] {
			t.Fatalf("task %d jobs' max response %d != result max %d", i, maxResp[i], res.MaxResponse[i])
		}
	}
}
