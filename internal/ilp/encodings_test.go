package ilp

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/matching"
	"repro/internal/partition"
)

// TestMuTableI reproduces Table I of the paper through the ILP path.
func TestMuTableI(t *testing.T) {
	want := fixture.TableI()
	for i, g := range fixture.LowerPriorityGraphs() {
		isPar := g.IsParallelMatrix()
		for c := 1; c <= fixture.M; c++ {
			got := SolveMu(g.WCETs(), isPar, c)
			if got != want[i][c-1] {
				t.Errorf("ILP µ%d[%d] = %d, want %d", i+1, c, got, want[i][c-1])
			}
		}
	}
}

// TestMuMatchesClique cross-checks the ILP encoding against the
// combinatorial solver on random DAG parallelism structures, relabelled
// into the weight order the solver requires.
func TestMuMatchesClique(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		g := byWeight(randomDAG(rng, 2+rng.Intn(9)))
		isPar := g.IsParallelMatrix()
		par := g.Parallel()
		w := g.WCETs()
		for c := 1; c <= 4 && c <= g.N(); c++ {
			gotILP := SolveMu(w, isPar, c)
			gotCombi, _ := new(clique.Solver).MaxWeightKSet(w, par, c)
			if gotILP != gotCombi {
				t.Fatalf("trial %d c=%d: ILP %d != clique %d\n%s",
					trial, c, gotILP, gotCombi, g.DOT("g"))
			}
		}
	}
}

// TestPaperConstraintErratum documents why constraint (2) of Section V-A2
// cannot be the printed "= c": with the verbatim right-hand side the
// encoding is infeasible for c = 1 on any graph, and infeasible for every
// c with c(c-1)/2 ≠ c (i.e. c ≠ 3) whenever a parallel c-set exists.
func TestPaperConstraintErratum(t *testing.T) {
	g := fixture.Tau3() // star: leaves 2,3,4,5 mutually parallel
	isPar := g.IsParallelMatrix()
	w := g.WCETs()

	// Verbatim c=1: demands one selected parallel pair with one selected
	// node — infeasible.
	if sol := MuProblemVerbatim(w, isPar, 1).Solve(); sol.Feasible {
		t.Errorf("verbatim c=1 unexpectedly feasible: %+v", sol)
	}
	// Verbatim c=3: 3 selected nodes induce 3 pairs = c, so it happens to
	// agree with the corrected encoding.
	v3 := MuProblemVerbatim(w, isPar, 3).Solve()
	c3 := MuProblem(w, isPar, 3).Solve()
	if !v3.Feasible || !c3.Feasible || v3.Value != c3.Value {
		t.Errorf("c=3: verbatim %+v vs corrected %+v should agree", v3, c3)
	}
	// Verbatim c=4: demands 4 parallel pairs among C(4,2)=6 — infeasible
	// for mutually-parallel selections.
	if sol := MuProblemVerbatim(w, isPar, 4).Solve(); sol.Feasible {
		t.Errorf("verbatim c=4 unexpectedly feasible: %+v", sol)
	}
	// Corrected c=4 reproduces µ3[4] = 11.
	if sol := MuProblem(w, isPar, 4).Solve(); !sol.Feasible || sol.Value != 11 {
		t.Errorf("corrected c=4: %+v, want 11", sol)
	}
}

// TestRhoTableIII reproduces Table III of the paper through the ILP path:
// the per-scenario overall worst-case workloads of the Figure 1 tasks.
func TestRhoTableIII(t *testing.T) {
	mu := muRows(fixture.TableI())
	want := fixture.TableIII()
	for _, s := range partition.All(fixture.M) {
		got := SolveRho(mu, fixture.M, s)
		if got != want[s.String()] {
			t.Errorf("ρ[%s] = %d, want %d", s, got, want[s.String()])
		}
	}
}

func muRows(tbl [4][4]int64) [][]int64 {
	mu := make([][]int64, len(tbl))
	for i := range tbl {
		mu[i] = tbl[i][:]
	}
	return mu
}

// TestRhoMatchesMatchingSmallM: for m ≤ 5 the printed scenario encoding
// cannot leak into other partitions, so the ILP and the strict
// assignment solver agree on every scenario.
func TestRhoMatchesMatchingSmallM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(4) // 2..5
		n := 1 + rng.Intn(4)
		mu := randomMuTable(rng, n, m)
		for _, s := range partition.All(m) {
			gotILP := SolveRho(mu, m, s)
			gotMatch := strictRho(mu, s)
			if gotILP != gotMatch {
				t.Fatalf("trial %d m=%d s=%s: ILP %d != matching %d (mu=%v)",
					trial, m, s, gotILP, gotMatch, mu)
			}
		}
	}
}

// strictRho assigns distinct tasks to exactly the parts of the scenario
// via the Hungarian solver, parts short of tasks padded at zero.
func strictRho(mu [][]int64, scenario []int) int64 {
	w := make([][]int64, len(scenario))
	for p, size := range scenario {
		w[p] = make([]int64, len(mu))
		for i := range mu {
			w[p][i] = mu[i][size-1]
		}
	}
	v, _ := matching.MaxWeightAssignment(w)
	return v
}

// TestRhoScenarioLeak pins the documented looseness of the printed
// encoding for m ≥ 6: scenario {2,2,2} admits the core profile {3,2,1},
// so its ILP value can exceed the strict per-scenario value — while the
// maximum over all scenarios (the only quantity Equation (8) uses) is
// identical.
func TestRhoScenarioLeak(t *testing.T) {
	// One task dominant on 3 cores, one on 2, one on 1; µ chosen so the
	// strict {2,2,2} assignment is clearly worse.
	mu := [][]int64{
		{1, 2, 90, 90, 90, 90},
		{1, 50, 50, 50, 50, 50},
		{40, 41, 41, 41, 41, 41},
	}
	m := 6
	leaky := []int{2, 2, 2}
	gotILP := SolveRho(mu, m, leaky)
	strict := strictRho(mu, leaky)
	if gotILP <= strict {
		t.Fatalf("expected leak: ILP %d should exceed strict %d", gotILP, strict)
	}
	// The leaked profile {3,2,1} must itself be a scenario whose strict
	// value equals the leaked optimum.
	if want := strictRho(mu, []int{3, 2, 1}); gotILP != want {
		t.Fatalf("leaked value %d != strict ρ[{3,2,1}] %d", gotILP, want)
	}
	// And the analysis-level quantity, the max over scenarios, agrees
	// between the two solvers.
	var maxILP, maxStrict int64
	for _, s := range partition.All(m) {
		if v := SolveRho(mu, m, s); v > maxILP {
			maxILP = v
		}
		if v := strictRho(mu, s); v > maxStrict {
			maxStrict = v
		}
	}
	if maxILP != maxStrict {
		t.Fatalf("Δ disagreement: ILP %d vs strict %d", maxILP, maxStrict)
	}
}

// TestRhoFewerTasksThanParts exercises the dummy-task padding.
func TestRhoFewerTasksThanParts(t *testing.T) {
	mu := [][]int64{{4, 7, 0, 0}} // a single τ2-like task
	got := SolveRho(mu, 4, []int{1, 1, 1, 1})
	if got != 4 {
		t.Errorf("ρ[{1,1,1,1}] with one task = %d, want 4", got)
	}
	got = SolveRho(mu, 4, []int{2, 1, 1})
	if got != 7 {
		t.Errorf("ρ[{2,1,1}] with one task = %d, want 7", got)
	}
}

func randomMuTable(rng *rand.Rand, n, m int) [][]int64 {
	mu := make([][]int64, n)
	for i := range mu {
		mu[i] = make([]int64, m)
		width := 1 + rng.Intn(m)
		for c := 0; c < width; c++ {
			mu[i][c] = int64(1 + rng.Intn(100))
		}
	}
	return mu
}

// byWeight returns g relabelled through dag.Builder so that its WCETs
// are non-increasing, ties in g's topological order.
func byWeight(g *dag.Graph) *dag.Graph {
	nodes := slices.Clone(g.TopologicalOrder())
	slices.SortStableFunc(nodes, func(a, b int) int { return cmp.Compare(g.WCET(b), g.WCET(a)) })
	idx := make([]int, g.N())
	var b dag.Builder
	for i, v := range nodes {
		idx[v] = i
		b.AddNode(g.WCET(v))
	}
	for _, e := range g.Edges() {
		b.AddEdge(idx[e[0]], idx[e[1]])
	}
	return b.MustBuild()
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
			if u != p && rng.Float64() < 0.2 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func BenchmarkMuILPFigure1(b *testing.B) {
	graphs := fixture.LowerPriorityGraphs()
	isPar := make([][][]bool, len(graphs))
	for i, g := range graphs {
		isPar[i] = g.IsParallelMatrix()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range graphs {
			for c := 1; c <= fixture.M; c++ {
				SolveMu(g.WCETs(), isPar[j], c)
			}
		}
	}
}

func BenchmarkRhoILPFigure1(b *testing.B) {
	mu := muRows(fixture.TableI())
	scenarios := partition.All(fixture.M)
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			SolveRho(mu, fixture.M, s)
		}
	}
}
