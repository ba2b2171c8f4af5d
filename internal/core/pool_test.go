package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rta"
)

// TestPooledAnalyzersAcrossSpecs pins that the one process-wide pool of
// rta scratch states serves every configuration: 8 goroutines
// interleave core counts 1–8, all three methods, both backends and the
// final-NPR refinement on shared task sets, and every report equals the
// one-shot rta result on a clone (fresh graphs, empty µ memos).
func TestPooledAnalyzersAcrossSpecs(t *testing.T) {
	sets := map[Backend][]*model.TaskSet{}
	for _, be := range []Backend{Combinatorial, PaperILP} {
		params := gen.PaperParams(gen.GroupMixed)
		if be == PaperILP {
			params.DAG.MaxNodes = 12 // the ILP backend is slow on larger graphs
		}
		for seed := int64(1); seed <= 4; seed++ {
			sets[be] = append(sets[be], gen.New(seed, params).TaskSetN(3+int(seed)%3, 1.5))
		}
	}
	const goroutines, perGoroutine = 8, 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := g*perGoroutine + i
				opts := Options{
					Cores:              1 + k%8,
					Method:             Methods()[k/8%3],
					Backend:            []Backend{Combinatorial, PaperILP}[k/24%2],
					FinalNPRRefinement: k/48%2 == 1,
				}
				ts := sets[opts.Backend][k%len(sets[opts.Backend])]
				got, err := MustNew(opts).Analyze(context.Background(), ts)
				if err != nil {
					t.Errorf("%+v: %v", opts, err)
					return
				}
				clone := ts.Clone()
				res, err := rta.Analyze(context.Background(), clone, RTAConfig(opts))
				if err != nil {
					t.Errorf("%+v: reference: %v", opts, err)
					return
				}
				if want := ReportOf(res, clone); !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: pooled report\n%v\nwant\n%v", opts, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFreshAnalyzersPinNoEarlierGraph pins that an Analyzer leaves no
// pool of its own behind. A campaign builds one Analyzer per point and
// method and drops it after one ScheduleBatch; with a pool per
// Analyzer, every dropped pool kept its scratch state, and so the graphs
// it last analyzed, alive through the next GC. The test runs on one P:
// sync.Pool keeps one private slot per P, so with more Ps a scratch
// state left in another P's slot could legitimately pin one recent set
// each.
func TestFreshAnalyzersPinNoEarlierGraph(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sets, mayLive = 60, 10
	var earlier []weak.Pointer[dag.Graph]
	for i := 0; i < sets; i++ {
		ts := gen.New(int64(i), gen.PaperParams(gen.GroupMixed)).TaskSet(1.5)
		a, err := New(Options{Cores: 4, Method: LPILP})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ScheduleBatch(context.Background(), []*model.TaskSet{ts}); err != nil {
			t.Fatal(err)
		}
		if i < sets-mayLive {
			for _, task := range ts.Tasks {
				earlier = append(earlier, weak.Make(task.G))
			}
		}
	}
	runtime.GC()
	alive := 0
	for _, w := range earlier {
		if w.Value() != nil {
			alive++
		}
	}
	if alive > 0 {
		t.Errorf("%d of %d graphs of the first %d sets still alive after one GC", alive, len(earlier), sets-mayLive)
	}
}
