package blocking

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/partition"
)

// TestTableI reproduces Table I of the paper with both backends.
func TestTableI(t *testing.T) {
	want := fixture.TableI()
	for _, be := range []Backend{Combinatorial, PaperILP} {
		for i, g := range fixture.LowerPriorityGraphs() {
			mu := Mu(g, fixture.M, be)
			for c := 1; c <= fixture.M; c++ {
				if mu[c-1] != want[i][c-1] {
					t.Errorf("%v: µ%d[%d] = %d, want %d", be, i+1, c, mu[c-1], want[i][c-1])
				}
			}
		}
	}
}

// TestTableIII reproduces Table III: ρ_k[s_l] for every scenario of e_4,
// with both backends (m = 4 is leak-free, so they agree per scenario).
func TestTableIII(t *testing.T) {
	mus := MuTables(fixture.LowerPriorityGraphs(), fixture.M, Combinatorial)
	want := fixture.TableIII()
	for _, be := range []Backend{Combinatorial, PaperILP} {
		for _, s := range partition.All(fixture.M) {
			got := ScenarioWorkload(mus, fixture.M, s, be)
			if got != want[s.String()] {
				t.Errorf("%v: ρ[%s] = %d, want %d", be, s, got, want[s.String()])
			}
		}
	}
}

// TestWorkedExampleDeltas pins the headline numbers of Section IV-B3:
// Δ⁴ = 19 and Δ³ = 15 under LP-ILP versus 20 and 16 under LP-max.
func TestWorkedExampleDeltas(t *testing.T) {
	graphs := fixture.LowerPriorityGraphs()
	for _, be := range []Backend{Combinatorial, PaperILP} {
		ilpRes := Compute(graphs, fixture.M, LPILP, be)
		if ilpRes.DeltaM != fixture.DeltaILP4 || ilpRes.DeltaM1 != fixture.DeltaILP3 {
			t.Errorf("%v: LP-ILP Δ⁴/Δ³ = %d/%d, want %d/%d",
				be, ilpRes.DeltaM, ilpRes.DeltaM1, fixture.DeltaILP4, fixture.DeltaILP3)
		}
	}
	maxRes := Compute(graphs, fixture.M, LPMax, Combinatorial)
	if maxRes.DeltaM != fixture.DeltaMax4 || maxRes.DeltaM1 != fixture.DeltaMax3 {
		t.Errorf("LP-max Δ⁴/Δ³ = %d/%d, want %d/%d",
			maxRes.DeltaM, maxRes.DeltaM1, fixture.DeltaMax4, fixture.DeltaMax3)
	}
}

func TestTopNPRs(t *testing.T) {
	g := fixture.Tau3() // WCETs 6,2,4,3,2
	got := TopNPRs(g, 3)
	want := []int64{6, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopNPRs = %v, want %v", got, want)
		}
	}
	if all := TopNPRs(g, 10); len(all) != 5 {
		t.Errorf("TopNPRs capped at node count: got %d entries", len(all))
	}
}

func TestDeltaMaxEdgeCases(t *testing.T) {
	if got := DeltaMax(nil, 4); got != 0 {
		t.Errorf("Δ of empty lp set = %d, want 0", got)
	}
	if got := DeltaMax(fixture.LowerPriorityGraphs(), 0); got != 0 {
		t.Errorf("Δ⁰ = %d, want 0", got)
	}
	// Single task, m larger than its node count: sum of all nodes.
	g := fixture.Tau2() // 1+4+3+2 = 10
	if got := DeltaMax([]*dag.Graph{g}, 16); got != 10 {
		t.Errorf("Δ with m=16, one 4-node task = %d, want 10", got)
	}
}

func TestDeltaILPEmptyAndZeroCores(t *testing.T) {
	for _, be := range []Backend{Combinatorial, PaperILP} {
		if got := DeltaILP(nil, 4, be); got != 0 {
			t.Errorf("%v: Δ of empty µ set = %d, want 0", be, got)
		}
		if got := DeltaILP([][]int64{{5, 7}}, 0, be); got != 0 {
			t.Errorf("%v: Δ⁰ = %d, want 0", be, got)
		}
	}
}

// TestDeltaILPEqualsScenarioSweep verifies the documented equivalence:
// the knapsack DP equals the explicit max over integer partitions of the
// strict per-scenario assignment.
func TestDeltaILPEqualsScenarioSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(8)
		n := rng.Intn(5)
		mus := randomMus(rng, n, m)
		dp := DeltaILP(mus, m, Combinatorial)
		var sweep int64
		for _, s := range partition.All(m) {
			if v := ScenarioWorkload(mus, m, s, Combinatorial); v > sweep {
				sweep = v
			}
		}
		if dp != sweep {
			t.Fatalf("trial %d m=%d: DP %d != sweep %d (mus=%v)", trial, m, dp, sweep, mus)
		}
	}
}

// TestBackendsAgreeOnDelta cross-checks the two backends end to end on
// random DAG populations, including m ≥ 6 where per-scenario values may
// differ but Δ must not.
func TestBackendsAgreeOnDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(5) // 2..6
		var graphs []*dag.Graph
		for i := 0; i < 1+rng.Intn(3); i++ {
			graphs = append(graphs, randomDAG(rng, 2+rng.Intn(7)))
		}
		a := Compute(graphs, m, LPILP, Combinatorial)
		b := Compute(graphs, m, LPILP, PaperILP)
		if a != b {
			t.Fatalf("trial %d m=%d: combinatorial %+v != paper ILP %+v", trial, m, a, b)
		}
	}
}

// TestLPMaxDominatesLPILP: LP-max ignores precedence constraints, so its
// Δ can never be smaller than LP-ILP's (Section IV-B3 argues exactly
// this). Property-tested over random task populations.
func TestLPMaxDominatesLPILP(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(7)
		var graphs []*dag.Graph
		for i := 0; i < 1+rng.Intn(4); i++ {
			graphs = append(graphs, randomDAG(rng, 2+rng.Intn(10)))
		}
		lmax := Compute(graphs, m, LPMax, Combinatorial)
		lilp := Compute(graphs, m, LPILP, Combinatorial)
		if lilp.DeltaM > lmax.DeltaM || lilp.DeltaM1 > lmax.DeltaM1 {
			t.Fatalf("trial %d m=%d: LP-ILP %+v exceeds LP-max %+v", trial, m, lilp, lmax)
		}
	}
}

// TestSequentialTasksCollapse: for fully sequential lower-priority tasks
// (chains), at most one NPR per task can run, so LP-ILP reduces to the
// sequential-task bound of Thekkilakattil et al.: sum of the m largest
// per-task maxima.
func TestSequentialTasksCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(6)
		var graphs []*dag.Graph
		for i := 0; i < 1+rng.Intn(5); i++ {
			graphs = append(graphs, chainDAG(rng, 1+rng.Intn(6)))
		}
		got := Compute(graphs, m, LPILP, Combinatorial).DeltaM
		// Expected: m largest of the per-task max WCETs.
		var maxima []int64
		for _, g := range graphs {
			maxima = append(maxima, g.MaxWCET())
		}
		want := DeltaMaxFromTops(wrapSingles(maxima), m)
		if got != want {
			t.Fatalf("trial %d m=%d: Δ %d != sequential bound %d", trial, m, got, want)
		}
	}
}

func wrapSingles(v []int64) [][]int64 {
	out := make([][]int64, len(v))
	for i, x := range v {
		out[i] = []int64{x}
	}
	return out
}

// TestDeltaMonotoneInCores: more cores can only admit more blocking.
func TestDeltaMonotoneInCores(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		var graphs []*dag.Graph
		for i := 0; i < 1+rng.Intn(4); i++ {
			graphs = append(graphs, randomDAG(rng, 2+rng.Intn(9)))
		}
		prevMax, prevILP := int64(0), int64(0)
		for m := 1; m <= 8; m++ {
			dm := DeltaMax(graphs, m)
			mus := MuTables(graphs, m, Combinatorial)
			di := DeltaILP(mus, m, Combinatorial)
			if dm < prevMax || di < prevILP {
				t.Fatalf("trial %d m=%d: Δ not monotone (max %d<%d or ilp %d<%d)",
					trial, m, dm, prevMax, di, prevILP)
			}
			prevMax, prevILP = dm, di
		}
	}
}

// TestMuMemoOnGraph pins the µ memo on dag.Graph over random DAGs for
// both backends: a table solved at m = 8 serves m = 4 as a
// capacity-capped prefix without solving again; m = 16 solves again and
// keeps the longer table, which equals a fresh solve on a clone (whose
// first 8 entries are the m = 8 table); and each backend's slot stays
// empty until that backend solves, whatever the other one holds.
func TestMuMemoOnGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 20, 0.15)
		backends := []Backend{Combinatorial}
		if g.N() <= 12 { // the paper ILP is slow beyond that
			backends = append(backends, PaperILP)
		}
		held := map[Backend][]int64{}
		for _, be := range backends {
			if MemoMu(g, 1, be) != nil {
				t.Fatalf("trial %d %v: slot filled before solving", trial, be)
			}
			mu8 := Mu(g, 8, be)
			if mu4 := Mu(g, 4, be); &mu4[0] != &mu8[0] || len(mu4) != 4 || cap(mu4) != 4 {
				t.Fatalf("trial %d %v: m=4 not served as the capped prefix of the m=8 table", trial, be)
			}
			mu16 := Mu(g, 16, be)
			if len(mu16) != 16 || &mu16[0] == &mu8[0] {
				t.Fatalf("trial %d %v: m=16 was not solved again", trial, be)
			}
			if got := MemoMu(g, 8, be); &got[0] != &mu16[0] {
				t.Fatalf("trial %d %v: the m=16 table did not replace the m=8 one", trial, be)
			}
			fresh := Mu(g.Clone(), 16, be)
			if !slices.Equal(mu16, fresh) || !slices.Equal(mu8, fresh[:8]) {
				t.Fatalf("trial %d %v: memo %v/%v, fresh solve %v", trial, be, mu8, mu16, fresh)
			}
			held[be] = mu16
		}
		for be, mu := range held {
			if got := MemoMu(g, 16, be); &got[0] != &mu[0] {
				t.Fatalf("trial %d %v: slot overwritten by the other backend", trial, be)
			}
		}
	}
}

// TestMuMemoConcurrent drives one graph's µ slots from several
// goroutines at once, at mixed core counts on both backends, so tables
// are loaded while longer ones replace them. With -race this certifies
// the slot's locking; every table served must equal a fresh solve on a
// clone.
func TestMuMemoConcurrent(t *testing.T) {
	g := fixture.Tau1()
	want := map[Backend][]int64{}
	for _, be := range []Backend{Combinatorial, PaperILP} {
		want[be] = Mu(g.Clone(), 8, be)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				be, m := Backend((w+i)%2), 1+(w*7+i)%8
				if got := Mu(g, m, be); !slices.Equal(got, want[be][:m]) {
					t.Errorf("%v m=%d: got %v, want %v", be, m, got, want[be][:m])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func randomMus(rng *rand.Rand, n, m int) [][]int64 {
	mus := make([][]int64, n)
	for i := range mus {
		mus[i] = make([]int64, m)
		width := 1 + rng.Intn(m)
		for c := 0; c < width; c++ {
			mus[i][c] = int64(1 + rng.Intn(50))
		}
	}
	return mus
}

func randomDAG(rng *rand.Rand, n int) *dag.Graph {
	var b dag.Builder
	for i := 0; i < n; i++ {
		b.AddNode(int64(1 + rng.Intn(100)))
	}
	for v := 1; v < n; v++ {
		p := rng.Intn(v)
		b.AddEdge(p, v)
		for u := 0; u < v; u++ {
			if u != p && rng.Float64() < 0.25 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func chainDAG(rng *rand.Rand, n int) *dag.Graph {
	var b dag.Builder
	prev := -1
	for i := 0; i < n; i++ {
		v := b.AddNode(int64(1 + rng.Intn(100)))
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	return b.MustBuild()
}

func TestMethodBackendStrings(t *testing.T) {
	if LPMax.String() != "LP-max" || LPILP.String() != "LP-ILP" {
		t.Error("Method strings wrong")
	}
	if Combinatorial.String() != "combinatorial" || PaperILP.String() != "paper-ilp" {
		t.Error("Backend strings wrong")
	}
	if Method(9).String() == "" || Backend(9).String() == "" {
		t.Error("unknown values must still render")
	}
}

// BenchmarkComputeLPILPFigure1 rebuilds the graphs with the timer
// stopped every iteration: Mu memoizes on the graph, and reused graphs
// would time memo hits instead of solves.
func BenchmarkComputeLPILPFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		graphs := fixture.LowerPriorityGraphs()
		b.StartTimer()
		Compute(graphs, fixture.M, LPILP, Combinatorial)
	}
}

func BenchmarkComputeLPMaxFigure1(b *testing.B) {
	graphs := fixture.LowerPriorityGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(graphs, fixture.M, LPMax, Combinatorial)
	}
}
