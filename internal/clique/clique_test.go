package clique

import (
	"cmp"
	"math/rand"
	"slices"
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

// byWeight returns g relabelled through dag.Builder so that its WCETs
// are non-increasing, ties in g's topological order, as the solver
// requires, and the node of g behind each new index.
func byWeight(g *dag.Graph) (*dag.Graph, []int) {
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
	return b.MustBuild(), nodes
}

// inWeightOrder relabels a relation so that its weights are
// non-increasing.
func inWeightOrder(w []int64, adj []*bitset.Set) ([]int64, []*bitset.Set) {
	perm := make([]int, len(w))
	for v := range perm {
		perm[v] = v
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(w[b], w[a]) })
	idx := make([]int, len(w))
	for i, v := range perm {
		idx[v] = i
	}
	ow, oadj := make([]int64, len(w)), emptyAdj(len(w))
	for i, v := range perm {
		ow[i] = w[v]
		adj[v].ForEach(func(u int) bool {
			oadj[i].Add(idx[u])
			return true
		})
	}
	return ow, oadj
}

// sortDesc sorts weights into the non-increasing order the solver
// requires. For a random relation drawn independently of its weights
// this loses no generality.
func sortDesc(w []int64) {
	slices.Sort(w)
	slices.Reverse(w)
}

func TestKOne(t *testing.T) {
	w := []int64{9, 4, 2}
	v, set := new(Solver).MaxWeightKSet(w, emptyAdj(3), 1)
	if v != 9 || len(set) != 1 || set[0] != 0 {
		t.Fatalf("got (%d, %v), want (9, [0])", v, set)
	}
}

// TestIncreasingWeightsPanic pins the order contract: both entry points
// refuse weights that rise anywhere, whatever the size asked for.
func TestIncreasingWeightsPanic(t *testing.T) {
	for _, w := range [][]int64{{3, 5, 1}, {5, 3, 3, 4}, {0, 1}} {
		adj := completeAdj(len(w))
		for name, call := range map[string]func(){
			"MuTable m=1":       func() { new(Solver).MuTable(w, adj, 1) },
			"MuTable m=3":       func() { new(Solver).MuTable(w, adj, 3) },
			"MaxWeightKSet k=1": func() { new(Solver).MaxWeightKSet(w, adj, 1) },
			"MaxWeightKSet k=2": func() { new(Solver).MaxWeightKSet(w, adj, 2) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on weights %v did not panic", name, w)
					}
				}()
				call()
			}()
		}
	}
}

func TestDegenerateK(t *testing.T) {
	w := []int64{9, 4}
	if v, set := new(Solver).MaxWeightKSet(w, completeAdj(2), 0); v != 0 || set != nil {
		t.Errorf("k=0: got (%d, %v)", v, set)
	}
	if v, set := new(Solver).MaxWeightKSet(w, completeAdj(2), 3); v != 0 || set != nil {
		t.Errorf("k>n: got (%d, %v)", v, set)
	}
}

func TestCompleteGraphTakesHeaviest(t *testing.T) {
	w := []int64{8, 7, 5, 3, 1}
	v, set := new(Solver).MaxWeightKSet(w, completeAdj(5), 3)
	if v != 20 { // 8 + 7 + 5
		t.Errorf("weight = %d, want 20", v)
	}
	if !slices.Equal(set, []int{0, 1, 2}) {
		t.Errorf("set = %v, want [0 1 2]", set)
	}
}

func TestNoCliqueExists(t *testing.T) {
	w := []int64{7, 6, 5}
	if v, set := new(Solver).MaxWeightKSet(w, emptyAdj(3), 2); v != 0 || set != nil {
		t.Errorf("got (%d, %v), want (0, nil)", v, set)
	}
}

// TestTableI verifies the headline result of the package: the µ tables of
// the four Figure 1 tasks match the paper's Table I exactly.
func TestTableI(t *testing.T) {
	want := fixture.TableI()
	for i, g := range fixture.LowerPriorityGraphs() {
		g, _ := byWeight(g)
		mu := new(Solver).MuTable(g.WCETs(), g.Parallel(), fixture.M)
		for c := 1; c <= fixture.M; c++ {
			if mu[c-1] != want[i][c-1] {
				t.Errorf("µ%d[%d] = %d, want %d", i+1, c, mu[c-1], want[i][c-1])
			}
		}
	}
}

// TestTableIWitnesses checks that the witness sets returned for the µ
// values of Table I, mapped back to node ids, are the node sets the
// paper names.
func TestTableIWitnesses(t *testing.T) {
	witness := func(g *dag.Graph, k int) (int64, []int) {
		g, node := byWeight(g)
		v, set := new(Solver).MaxWeightKSet(g.WCETs(), g.Parallel(), k)
		for i, x := range set {
			set[i] = node[x]
		}
		slices.Sort(set)
		return v, set
	}
	// µ3[2] = C3,3 + C3,4 = 7 → nodes indices {2, 3}.
	if v, set := witness(fixture.Tau3(), 2); v != 7 || !slices.Equal(set, []int{2, 3}) {
		t.Errorf("µ3[2] witness = (%d, %v), want (7, [2 3])", v, set)
	}
	// µ4[3] = C4,4 + C4,3 + C4,5 = 12 → indices {2, 3, 4}.
	if v, set := witness(fixture.Tau4(), 3); v != 12 || !slices.Equal(set, []int{2, 3, 4}) {
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
	sortDesc(w)
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
		g, _ := byWeight(randomDAG(rng, 2+rng.Intn(11)))
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
		g, _ := byWeight(randomDAG(rng, 2+rng.Intn(14)))
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
		graphs[i], _ = byWeight(g)
		pars[i] = graphs[i].Parallel()
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
// structure dag.Split produces — and returns it in weight order. The
// optimum of the expanded instance must pick the heaviest twin per
// class, i.e. equal the original optimum with per-class max weights.
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
	return inWeightOrder(ew, eadj)
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

// tiedInstance returns a random instance of n vertices whose weights
// tie often and include zeros, with compatibility density p.
func tiedInstance(rng *rand.Rand, n int, p float64) ([]int64, []*bitset.Set) {
	w := make([]int64, n)
	top := int64(1 + rng.Intn(6))
	if rng.Intn(3) == 0 {
		top = 100
	}
	for i := range w {
		w[i] = rng.Int63n(top + 1)
	}
	sortDesc(w)
	adj := emptyAdj(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				adj[i].Add(j)
				adj[j].Add(i)
			}
		}
	}
	return w, adj
}

// checkMuTable fails t unless MuTable(w, adj, m) holds, at every c, the
// per-size search's weight (0 where no c-set exists), and brute force's
// for n ≤ 14. One Solver serves both, so stale one-pass state would show.
func checkMuTable(t *testing.T, s *Solver, w []int64, adj []*bitset.Set, m int) {
	t.Helper()
	mu := s.MuTable(w, adj, m)
	if len(mu) != m {
		t.Fatalf("n=%d m=%d: table of length %d", len(w), m, len(mu))
	}
	for c := 1; c <= m; c++ {
		want, _ := s.MaxWeightKSet(w, adj, c)
		if mu[c-1] != want {
			t.Fatalf("n=%d m=%d weights %v: µ[%d] = %d, per-size search %d", len(w), m, w, c, mu[c-1], want)
		}
		if len(w) <= 14 {
			if brute := bruteKSet(w, adj, c); mu[c-1] != brute {
				t.Fatalf("n=%d m=%d weights %v: µ[%d] = %d, brute force %d", len(w), m, w, c, mu[c-1], brute)
			}
		}
	}
}

// TestMuTableMatchesPerSizeSearch pins the one-pass table to the
// per-size search, and to brute force on small instances: random
// relations of up to 40 vertices whose weights tie and include zeros,
// at densities from sparse to nearly complete, and the Par sets of
// random DAGs of up to 60 nodes, for m up to 24.
func TestMuTableMatchesPerSizeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s Solver
	for range 4000 {
		n := 1 + rng.Intn(40)
		p := []float64{0.1, 0.3, 0.5, 0.7, 0.9}[rng.Intn(5)]
		if n > 24 && p > 0.5 {
			p = 0.5 // keep the per-size oracle's searches short
		}
		w, adj := tiedInstance(rng, n, p)
		checkMuTable(t, &s, w, adj, 1+rng.Intn(24))
	}
	for range 300 {
		g, _ := byWeight(randomDAG(rng, 1+rng.Intn(60)))
		checkMuTable(t, &s, g.WCETs(), g.Parallel(), 1+rng.Intn(24))
	}
	for range 60 {
		g, _ := byWeight(sparseDAG(rng, 1+rng.Intn(60), []float64{0.05, 0.1, 0.2}[rng.Intn(3)]))
		checkMuTable(t, &s, g.WCETs(), g.Parallel(), 1+rng.Intn(24))
	}
}

// sparseDAG returns an n-node DAG with each forward edge i → j (i < j)
// present with probability p: wide graphs with large parallel sets
// when p is small.
func sparseDAG(rng *rand.Rand, n int, p float64) *dag.Graph {
	var b dag.Builder
	for range n {
		b.AddNode(int64(1 + rng.Intn(100)))
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

// FuzzMuTable holds MuTable to the per-size search and to brute force
// at every c, on relations of up to 16 vertices decoded from the input:
// weights from 0 to 7 in non-increasing order, so ties and zeros are
// common, and one compatibility bit per vertex pair.
func FuzzMuTable(f *testing.F) {
	f.Add([]byte{4, 3, 5, 3, 3, 0, 0xff})
	f.Add([]byte{15, 16, 7, 7, 6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 0, 0, 0, 0, 0xaa, 0x55, 0xf0, 0x0f, 0xff, 0x3c, 0xc3, 0x99, 0x66, 0xa5, 0x5a, 0xee, 0x77, 0xbd, 0xdb, 0x7e})
	f.Add([]byte{7, 2, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 1+int(data[0])%16, 1+int(data[1])%17
		data = data[2:]
		w := make([]int64, n)
		for v := range min(n, len(data)) {
			w[v] = int64(data[v] % 8)
		}
		sortDesc(w)
		bits := data[min(n, len(data)):]
		adj, p := emptyAdj(n), 0
		for a := range n {
			for b := a + 1; b < n; b++ {
				if p/8 < len(bits) && bits[p/8]>>(p%8)&1 == 1 {
					adj[a].Add(b)
					adj[b].Add(a)
				}
				p++
			}
		}
		var s Solver
		mu := s.MuTable(w, adj, m)
		for c := 1; c <= m; c++ {
			kset, _ := s.MaxWeightKSet(w, adj, c)
			if brute := bruteKSet(w, adj, c); mu[c-1] != kset || mu[c-1] != brute {
				t.Fatalf("weights %v m=%d: µ[%d] = %d, per-size search %d, brute force %d", w, m, c, mu[c-1], kset, brute)
			}
		}
	})
}
