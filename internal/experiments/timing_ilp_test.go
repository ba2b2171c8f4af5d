package experiments

import (
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/dag"
	"repro/internal/gen"
)

// TestTimingPaperILPGrowth times the paper's full ILP pipeline, µ
// (Equation (6)) and ρ (Equations (7)-(8)) solved as the printed 0-1
// ILPs, on the task sets Timing generates at m = 2 and m = 4, and checks
// each Δ pair against the combinatorial solvers every analysis uses.
// The ILP cost explodes with m as the paper's CPLEX runtimes do (0.45 s,
// 4.75 s and 43 min at m = 4, 8, 16). On a 2-vCPU Xeon VM (go1.24) this
// test read 16 ms/set at m = 2 and 1.6 s/set at m = 4, while an LP-ILP
// analysis on ILP-solved µ tables of the lpdag-gen -u 2 sets of seeds 1
// and 2 took 1.2 s and 0.7 s at m = 4, and over 70 s and 24.7 s at
// m = 8, so the test stays at the cheap end. The growth with m must be
// visible even here.
func TestTimingPaperILPGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const sets, seed, uFrac = 2, 2016, 0.4
	var perSet [2]time.Duration
	for k, m := range []int{2, 4} {
		graphs := make([][]*dag.Graph, sets)
		for i := range graphs {
			ts := gen.New(SeedFor(seed, m, i), gen.PaperParams(gen.GroupMixed)).TaskSet(uFrac * float64(m))
			for _, task := range ts.Tasks {
				graphs[i] = append(graphs[i], task.G)
			}
		}
		got := make([]blocking.Interference, sets)
		start := time.Now()
		for i, gs := range graphs {
			got[i] = blocking.Compute(gs, m, blocking.LPILP, blocking.PaperILP)
		}
		perSet[k] = time.Since(start) / sets
		for i, gs := range graphs {
			if want := blocking.Compute(gs, m, blocking.LPILP, blocking.Combinatorial); got[i] != want {
				t.Errorf("m=%d set %d: paper ILP %+v, combinatorial %+v", m, i, got[i], want)
			}
		}
	}
	t.Logf("paper ILP: m=2 %v/set, m=4 %v/set", perSet[0], perSet[1])
	if perSet[1] < perSet[0] {
		t.Errorf("expected runtime growth with m: %v -> %v", perSet[0], perSet[1])
	}
	if perSet[0] <= 0 || perSet[1] > 5*time.Minute {
		t.Errorf("timings out of expected range: %v", perSet)
	}
}
