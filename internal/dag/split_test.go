package dag_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/gen"
)

// splitByBuilder is the split made the plain way: every piece and edge
// goes through a Builder, which validates the graph and sorts it
// topologically from scratch. It is the oracle of dag.Split.
func splitByBuilder(g *dag.Graph, maxNPR int64) *dag.Graph {
	var b dag.Builder
	first := make([]int, g.N())
	last := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		c := g.WCET(v)
		k := (c + maxNPR - 1) / maxNPR
		base := c / k
		rem := c % k
		prev := -1
		for i := int64(0); i < k; i++ {
			w := base
			if i < rem {
				w++
			}
			nv := b.AddNode(w)
			if prev == -1 {
				first[v] = nv
			} else {
				b.AddEdge(prev, nv)
			}
			prev = nv
		}
		last[v] = prev
	}
	for _, e := range g.Edges() {
		b.AddEdge(last[e[0]], first[e[1]])
	}
	return b.MustBuild()
}

// checkSplit fails t unless dag.SplitIn(a, g, q) equals
// splitByBuilder(g, q) in WCETs, adjacency (nil lists included),
// topological order, volume, longest path, fingerprint, sorted WCETs,
// node names and an empty µ slot, and returns the split.
func checkSplit(t testing.TB, a *dag.Arena, g *dag.Graph, q int64) *dag.Graph {
	t.Helper()
	got, want := dag.SplitIn(a, g, q), splitByBuilder(g, q)
	if !slices.Equal(got.WCETs(), want.WCETs()) {
		t.Fatalf("split of %d nodes at %d: WCETs %v, want %v", g.N(), q, got.WCETs(), want.WCETs())
	}
	for v := 0; v < want.N(); v++ {
		if !reflect.DeepEqual(got.Successors(v), want.Successors(v)) ||
			!reflect.DeepEqual(got.Predecessors(v), want.Predecessors(v)) || got.Name(v) != want.Name(v) {
			t.Fatalf("split of %d nodes at %d, piece %d: succ %v pred %v name %q, want %v %v %q", g.N(), q, v,
				got.Successors(v), got.Predecessors(v), got.Name(v), want.Successors(v), want.Predecessors(v), want.Name(v))
		}
	}
	if !slices.Equal(got.TopologicalOrder(), want.TopologicalOrder()) {
		t.Fatalf("split of %d nodes at %d: order %v, want %v", g.N(), q, got.TopologicalOrder(), want.TopologicalOrder())
	}
	if got.Volume() != want.Volume() || got.LongestPath() != want.LongestPath() {
		t.Fatalf("split of %d nodes at %d: vol/L %d/%d, want %d/%d", g.N(), q,
			got.Volume(), got.LongestPath(), want.Volume(), want.LongestPath())
	}
	if got.Fingerprint() != want.Fingerprint() || !slices.Equal(got.SortedWCETs(), want.SortedWCETs()) || dag.LoadMu(got, 1) != nil {
		t.Fatalf("split of %d nodes at %d: fingerprints, sorted WCETs or µ slots differ", g.N(), q)
	}
	return got
}

// chain returns the path graph of the given WCETs.
func chain(wcets ...int64) *dag.Graph {
	var b dag.Builder
	for v, c := range wcets {
		b.AddNode(c)
		if v > 0 {
			b.AddEdge(v-1, v)
		}
	}
	return b.MustBuild()
}

// permutedDAG returns an n-node DAG whose edges run forward along a
// random permutation of the indices, so edges point both up and down
// in index order and Build's smallest-index order differs from index
// order.
func permutedDAG(rng *rand.Rand, n int, p float64) *dag.Graph {
	var b dag.Builder
	for range n {
		b.AddNode(int64(1 + rng.Intn(60)))
	}
	perm := rng.Perm(n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if rng.Float64() < p {
				b.AddEdge(perm[i], perm[j])
			}
		}
	}
	return b.MustBuild()
}

// checkSplits checks g's splits at a spread of budgets, and each split
// split again at a smaller budget.
func checkSplits(t *testing.T, g *dag.Graph) {
	t.Helper()
	top := g.MaxWCET()
	for _, q := range []int64{1, 2, 3, top / 3, top / 2, top - 1, top, top + 1} {
		if q < 1 {
			continue
		}
		s := checkSplit(t, nil, g, q)
		if q > 1 {
			checkSplit(t, nil, s, (q+1)/2)
		}
	}
}

// TestSplitMatchesBuilder pins the direct split to the Builder-built one
// on generated task graphs of every shape, permuted random DAGs, chains,
// single nodes and named graphs, and on splits of splits.
func TestSplitMatchesBuilder(t *testing.T) {
	for _, p := range []gen.Params{
		gen.PaperParams(gen.GroupMixed),
		gen.PaperParams(gen.GroupParallel),
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeWide, Beta: 0.5},
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeDeep, Beta: 0.5},
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeOpenMP, Beta: 0.5},
	} {
		g := gen.New(int64(p.Shape)*10+int64(p.Group)+1, p)
		for range 12 {
			checkSplits(t, g.Graph())
		}
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 150; trial++ {
		checkSplits(t, permutedDAG(rng, 1+rng.Intn(40), 3*rng.Float64()/float64(1+rng.Intn(10))))
	}
	checkSplits(t, chain(7))
	checkSplits(t, chain(5, 1, 9, 2))
	checkSplits(t, fixture.Tau1())
	for _, g := range fixture.LowerPriorityGraphs() {
		checkSplits(t, g)
	}
}

// FuzzSplit builds a DAG from a byte script, splits it at a fuzzed
// budget and splits the split at a second one, each against
// splitByBuilder. Edges are oriented by a scrambled rank of their
// endpoints, so they run both up and down in index order. The DAG and
// its splits are built into one arena, reset per input, and their µ
// slots filled, so every input recycles the last one's graphs.
func FuzzSplit(f *testing.F) {
	var a dag.Arena
	f.Add(uint8(2), uint8(0), []byte{4, 9, 3, 7, 1, 0, 1, 1, 2, 3, 0})
	f.Add(uint8(0), uint8(0), []byte{1, 40})
	f.Add(uint8(9), uint8(3), []byte{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5, 2, 9, 3, 11, 0, 7, 4})
	f.Fuzz(func(t *testing.T, q1, q2 uint8, script []byte) {
		if len(script) == 0 {
			return
		}
		n := int(script[0])%40 + 1
		rest := script[1:]
		a.Reset()
		var b dag.Builder
		for v := 0; v < n; v++ {
			c := int64(v%7) + 1
			if v < len(rest) {
				c = int64(rest[v])%50 + 1
			}
			b.AddNode(c)
		}
		rank := func(v int) int { return v * 37 % 131 } // distinct for v < 131
		seen := map[[2]int]bool{}
		for i := n; i+1 < len(rest); i += 2 {
			u, v := int(rest[i])%n, int(rest[i+1])%n
			if rank(u) > rank(v) {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				b.AddEdge(u, v)
			}
		}
		g, err := dag.BuildIn(&a, &b)
		if err != nil {
			t.Fatal(err)
		}
		s := checkSplit(t, &a, g, int64(q1%60)+1)
		ss := checkSplit(t, &a, s, int64(q2%20)+1)
		for _, x := range []*dag.Graph{g, s, ss} {
			dag.StoreMu(x, []int64{x.MaxWCET()})
		}
	})
}
