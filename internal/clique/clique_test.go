package clique

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/fixture"
)

// completeAdj returns the adjacency of a complete compatibility relation.
func completeAdj(n int) []*bitset.Set {
	adj := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		adj[i] = bitset.New(n)
		for j := 0; j < n; j++ {
			if j != i {
				adj[i].Add(j)
			}
		}
	}
	return adj
}

// emptyAdj returns an adjacency with no compatible pairs.
func emptyAdj(n int) []*bitset.Set {
	adj := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		adj[i] = bitset.New(n)
	}
	return adj
}

func TestKOne(t *testing.T) {
	w := []int64{4, 9, 2}
	v, set := new(Solver).MaxWeightKSet(w, emptyAdj(3), 1)
	if v != 9 || len(set) != 1 || set[0] != 1 {
		t.Fatalf("got (%d, %v), want (9, [1])", v, set)
	}
}

func TestDegenerateK(t *testing.T) {
	w := []int64{4, 9}
	if v, set := new(Solver).MaxWeightKSet(w, completeAdj(2), 0); v != 0 || set != nil {
		t.Errorf("k=0: got (%d, %v)", v, set)
	}
	if v, set := new(Solver).MaxWeightKSet(w, completeAdj(2), 3); v != 0 || set != nil {
		t.Errorf("k>n: got (%d, %v)", v, set)
	}
}

func TestCompleteGraphTakesHeaviest(t *testing.T) {
	w := []int64{5, 1, 8, 3, 7}
	v, set := new(Solver).MaxWeightKSet(w, completeAdj(5), 3)
	if v != 20 { // 8 + 7 + 5
		t.Errorf("weight = %d, want 20", v)
	}
	want := map[int]bool{0: true, 2: true, 4: true}
	for _, x := range set {
		if !want[x] {
			t.Errorf("unexpected vertex %d in %v", x, set)
		}
	}
}

func TestNoCliqueExists(t *testing.T) {
	w := []int64{5, 6, 7}
	if v, set := new(Solver).MaxWeightKSet(w, emptyAdj(3), 2); v != 0 || set != nil {
		t.Errorf("got (%d, %v), want (0, nil)", v, set)
	}
}

// TestTableI verifies the headline result of the package: the µ tables of
// the four Figure 1 tasks match the paper's Table I exactly.
func TestTableI(t *testing.T) {
	want := fixture.TableI()
	for i, g := range fixture.LowerPriorityGraphs() {
		mu := new(Solver).MuTable(g.WCETs(), g.Parallel(), fixture.M)
		for c := 1; c <= fixture.M; c++ {
			if mu[c-1] != want[i][c-1] {
				t.Errorf("µ%d[%d] = %d, want %d", i+1, c, mu[c-1], want[i][c-1])
			}
		}
	}
}

// TestTableIWitnesses checks that the witness sets returned for the µ
// values of Table I are the node sets the paper names.
func TestTableIWitnesses(t *testing.T) {
	g3 := fixture.Tau3()
	// µ3[2] = C3,3 + C3,4 = 7 → nodes indices {2, 3}.
	v, set := new(Solver).MaxWeightKSet(g3.WCETs(), g3.Parallel(), 2)
	if v != 7 || len(set) != 2 || set[0] != 2 || set[1] != 3 {
		t.Errorf("µ3[2] witness = (%d, %v), want (7, [2 3])", v, set)
	}
	g4 := fixture.Tau4()
	// µ4[3] = C4,4 + C4,3 + C4,5 = 12 → indices {2, 3, 4}.
	v, set = new(Solver).MaxWeightKSet(g4.WCETs(), g4.Parallel(), 3)
	if v != 12 || len(set) != 3 || set[0] != 2 || set[1] != 3 || set[2] != 4 {
		t.Errorf("µ4[3] witness = (%d, %v), want (12, [2 3 4])", v, set)
	}
}

func TestWitnessIsAClique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(16)
		w, adj := randomInstance(rng, n)
		for k := 1; k <= n; k++ {
			v, set := new(Solver).MaxWeightKSet(w, adj, k)
			if set == nil {
				continue
			}
			if len(set) != k {
				t.Fatalf("witness size %d != k %d", len(set), k)
			}
			var sum int64
			for i, a := range set {
				sum += w[a]
				for _, b := range set[i+1:] {
					if !adj[a].Contains(b) {
						t.Fatalf("witness %v not a clique: (%d,%d)", set, a, b)
					}
				}
			}
			if sum != v {
				t.Fatalf("witness weight %d != reported %d", sum, v)
			}
		}
	}
}

func randomInstance(rng *rand.Rand, n int) ([]int64, []*bitset.Set) {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	adj := emptyAdj(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				adj[i].Add(j)
				adj[j].Add(i)
			}
		}
	}
	return w, adj
}

// bruteKSet enumerates all k-subsets.
func bruteKSet(w []int64, adj []*bitset.Set, k int) int64 {
	n := len(w)
	best := int64(-1)
	var idx []int
	var rec func(start int)
	rec = func(start int) {
		if len(idx) == k {
			var s int64
			for i, a := range idx {
				s += w[a]
				for _, b := range idx[i+1:] {
					if !adj[a].Contains(b) {
						return
					}
				}
			}
			if s > best {
				best = s
			}
			return
		}
		for v := start; v < n; v++ {
			idx = append(idx, v)
			rec(v + 1)
			idx = idx[:len(idx)-1]
		}
	}
	rec(0)
	if best < 0 {
		return 0
	}
	return best
}

func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(12)
		w, adj := randomInstance(rng, n)
		for k := 1; k <= n && k <= 6; k++ {
			got, _ := new(Solver).MaxWeightKSet(w, adj, k)
			want := bruteKSet(w, adj, k)
			if got != want {
				t.Fatalf("trial %d n=%d k=%d: got %d, want %d", trial, n, k, got, want)
			}
		}
	}
}

// TestMatchesBruteForceOnDAGs repeats the cross-check on parallelism
// graphs of random single-source DAGs — the real population.
func TestMatchesBruteForceOnDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 2+rng.Intn(11))
		w, adj := g.WCETs(), g.Parallel()
		for k := 1; k <= 5; k++ {
			got, _ := new(Solver).MaxWeightKSet(w, adj, k)
			want := bruteKSet(w, adj, k)
			if got != want {
				t.Fatalf("trial %d k=%d: got %d, want %d\n%s", trial, k, got, want, g.DOT("g"))
			}
		}
	}
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

// TestMuTableInvariants checks the structural properties of µ tables.
// Note µ is *not* monotone in c (the paper's own Table I has
// µ1 = [3,5,6,5]): a heavier c-clique need not extend to any (c+1)-clique.
// What must hold is: once zero, always zero (a (c+1)-clique contains a
// c-clique); µ[1] is the heaviest node; and every (c+1)-clique is a
// c-clique plus one node, so µ[c+1] ≤ µ[c] + µ[1].
func TestMuTableInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 2+rng.Intn(14))
		mu := new(Solver).MuTable(g.WCETs(), g.Parallel(), 8)
		zeroSeen := false
		for c := 1; c < len(mu); c++ {
			if mu[c] == 0 {
				zeroSeen = true
			}
			if zeroSeen && mu[c] != 0 {
				t.Fatalf("µ table %v not zero-terminated", mu)
			}
			if mu[c] > mu[c-1]+mu[0] {
				t.Fatalf("µ table %v violates µ[c+1] ≤ µ[c] + µ[1]", mu)
			}
		}
		if mu[0] != g.MaxWCET() {
			t.Fatalf("µ[1] = %d, want max WCET %d", mu[0], g.MaxWCET())
		}
	}
}

func BenchmarkMuTableFigure1(b *testing.B) {
	graphs := fixture.LowerPriorityGraphs()
	pars := make([][]*bitset.Set, len(graphs))
	for i, g := range graphs {
		pars[i] = g.Parallel()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range graphs {
			new(Solver).MuTable(g.WCETs(), pars[j], fixture.M)
		}
	}
}

// twinExpand replaces every vertex of an instance with a chain of
// `copies` mutually non-adjacent twins carrying split weights — the
// structure dag.Split produces. The optimum of the expanded
// instance must pick the heaviest twin per class, i.e. equal the
// original optimum with per-class max weights.
func twinExpand(w []int64, adj []*bitset.Set, copies int) ([]int64, []*bitset.Set) {
	n := len(w)
	en := n * copies
	ew := make([]int64, en)
	eadj := make([]*bitset.Set, en)
	for v := 0; v < n; v++ {
		for c := 0; c < copies; c++ {
			i := v*copies + c
			ew[i] = w[v] - int64(c) // descending pieces, max piece = w[v]
			if ew[i] < 1 {
				ew[i] = 1
			}
			s := bitset.New(en)
			adj[v].ForEach(func(u int) bool {
				for cc := 0; cc < copies; cc++ {
					s.Add(u*copies + cc)
				}
				return true
			})
			eadj[i] = s
		}
	}
	return ew, eadj
}

// TestTwinReductionExact: expanding every vertex into a twin chain must
// not change the optimum (only the heaviest twin of a class can be
// chosen), and must stay fast — this is the regression test for the
// npr-fine × m=64 campaign blow-up.
func TestTwinReductionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		w, adj := randomInstance(rng, 8)
		ew, eadj := twinExpand(w, adj, 5)
		for k := 1; k <= 6; k++ {
			want := bruteKSet(w, adj, k)
			got, set := new(Solver).MaxWeightKSet(ew, eadj, k)
			if want < 0 {
				if set != nil {
					t.Fatalf("trial %d k=%d: expanded instance found a set where none exists", trial, k)
				}
				continue
			}
			if got != want {
				t.Fatalf("trial %d k=%d: expanded optimum %d, want %d", trial, k, got, want)
			}
		}
	}
}

// TestTwinHeavyLargeInstanceFast: a 960-vertex twin-heavy instance at
// large k must solve essentially instantly (pre-reduction this class of
// input hung for minutes).
func TestTwinHeavyLargeInstanceFast(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w, adj := randomInstance(rng, 32)
	ew, eadj := twinExpand(w, adj, 30)
	start := time.Now()
	for k := 1; k <= 16; k++ {
		new(Solver).MaxWeightKSet(ew, eadj, k)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("twin-heavy instance took %v; reduction regressed", d)
	}
}

// TestSolverReuse drives one Solver through a mixed sequence of problems
// of varying size and checks every answer against brute force: stale
// scratch from a larger instance must never bleed into a smaller one.
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Solver
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(12)
		w, adj := randomInstance(rng, n)
		k := 1 + rng.Intn(n)
		gotW, gotSet := s.MaxWeightKSet(w, adj, k)
		wantW := bruteKSet(w, adj, k)
		if gotW != wantW {
			t.Fatalf("iter %d (n=%d k=%d): reused solver weight %d, want %d", iter, n, k, gotW, wantW)
		}
		if gotSet != nil {
			if len(gotSet) != k {
				t.Fatalf("iter %d: set %v has %d vertices, want %d", iter, gotSet, len(gotSet), k)
			}
			var sum int64
			for i, a := range gotSet {
				sum += w[a]
				for _, b := range gotSet[i+1:] {
					if !adj[a].Contains(b) {
						t.Fatalf("iter %d: set %v is not pairwise parallel", iter, gotSet)
					}
				}
			}
			if sum != gotW {
				t.Fatalf("iter %d: set %v sums to %d, reported %d", iter, gotSet, sum, gotW)
			}
		}
		m := 1 + rng.Intn(4)
		gotMu := s.MuTable(w, adj, m)
		for c := 1; c <= m; c++ {
			if want := bruteKSet(w, adj, c); gotMu[c-1] != want {
				t.Fatalf("iter %d: reused solver mu[%d]=%d, want %d", iter, c, gotMu[c-1], want)
			}
		}
	}
}
