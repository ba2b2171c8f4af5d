package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// diamond builds s -> {a, b} -> t with the given WCETs.
func diamond(t *testing.T, c ...int64) *Graph {
	t.Helper()
	var b Builder
	s := b.AddNode(c[0])
	a := b.AddNode(c[1])
	bb := b.AddNode(c[2])
	tt := b.AddNode(c[3])
	b.AddEdge(s, a)
	b.AddEdge(s, bb)
	b.AddEdge(a, tt)
	b.AddEdge(bb, tt)
	return b.MustBuild()
}

func TestBuilderSingleNode(t *testing.T) {
	var b Builder
	b.AddNode(7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 1 || g.Volume() != 7 || g.LongestPath() != 7 {
		t.Errorf("got N=%d vol=%d L=%d, want 1,7,7", g.N(), g.Volume(), g.LongestPath())
	}
	if g.PreemptionPoints() != 0 {
		t.Errorf("q = %d, want 0", g.PreemptionPoints())
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	var b Builder
	if _, err := b.Build(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBuilderRejectsNonPositiveWCET(t *testing.T) {
	for _, w := range []int64{0, -3} {
		var b Builder
		b.AddNode(w)
		if _, err := b.Build(); err == nil {
			t.Errorf("WCET %d accepted", w)
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name string
		mk   func(b *Builder)
	}{
		{"out of range target", func(b *Builder) { b.AddEdge(0, 5) }},
		{"out of range source", func(b *Builder) { b.AddEdge(-1, 0) }},
		{"self loop", func(b *Builder) { b.AddEdge(0, 0) }},
		{"duplicate", func(b *Builder) { b.AddEdge(0, 1); b.AddEdge(0, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Builder
			b.AddNode(1)
			b.AddNode(1)
			tc.mk(&b)
			if _, err := b.Build(); err == nil {
				t.Fatal("bad edge accepted")
			}
		})
	}
}

func TestBuilderRejectsCycle(t *testing.T) {
	var b Builder
	x := b.AddNode(1)
	y := b.AddNode(1)
	z := b.AddNode(1)
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	b.AddEdge(z, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestTopologicalOrderRespectsEdges(t *testing.T) {
	g := diamond(t, 1, 2, 3, 4)
	pos := make([]int, g.N())
	for i, v := range g.TopologicalOrder() {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge (%d,%d) violates topological order", e[0], e[1])
		}
	}
}

func TestVolumeAndLongestPath(t *testing.T) {
	g := diamond(t, 1, 2, 3, 4)
	if got := g.Volume(); got != 10 {
		t.Errorf("Volume = %d, want 10", got)
	}
	// Longest path goes through the heavier branch: 1+3+4.
	if got := g.LongestPath(); got != 8 {
		t.Errorf("LongestPath = %d, want 8", got)
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond(t, 1, 2, 3, 4)
	want := []int{0, 2, 3}
	if got := g.CriticalPath(); !reflect.DeepEqual(got, want) {
		t.Errorf("CriticalPath = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range g.CriticalPath() {
		sum += g.WCET(v)
	}
	if sum != g.LongestPath() {
		t.Errorf("critical path weight %d != L %d", sum, g.LongestPath())
	}
}

func TestCriticalPathIsAPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomSingleSourceDAG(rng, 2+rng.Intn(20))
		p := g.CriticalPath()
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("trial %d: critical path %v has no edge (%d,%d)", trial, p, p[i], p[i+1])
			}
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	if got := g.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Sinks = %v", got)
	}
}

func TestReachAndCoReach(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	reach := g.Reach()
	if got := reach[0].Indices(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Reach(0) = %v", got)
	}
	if !reach[1].Equal(bitset.FromIndices(4, 3)) {
		t.Errorf("Reach(1) = %v", reach[1])
	}
	co := g.CoReach()
	if got := co[3].Indices(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("CoReach(3) = %v", got)
	}
	if got := co[0].Indices(); len(got) != 0 {
		t.Errorf("CoReach(0) = %v, want empty", got)
	}
}

func TestReachCoReachAreTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomSingleSourceDAG(rng, 2+rng.Intn(25))
		reach := g.Reach()
		co := g.CoReach()
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if reach[u].Contains(v) != co[v].Contains(u) {
					t.Fatalf("trial %d: reach(%d,%d) mismatch with coreach", trial, u, v)
				}
			}
		}
	}
}

func TestSiblings(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	sib := g.Siblings()
	if got := sib[1].Indices(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Siblings(1) = %v, want {2}", got)
	}
	if got := sib[0].Indices(); len(got) != 0 {
		t.Errorf("Siblings(0) = %v, want empty", got)
	}
}

func TestParallelDiamond(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	par := g.Parallel()
	if got := par[1].Indices(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Par(1) = %v, want {2}", got)
	}
	for _, v := range []int{0, 3} {
		if !par[v].Empty() {
			t.Errorf("Par(%d) = %v, want empty", v, par[v])
		}
	}
}

// TestAlgorithm1PaperWalkthrough reproduces the worked example of
// Section V-A1: for the τ1 graph of Figure 1,
// Par(v1,3) = {v1,2, v1,4, v1,5, v1,7} and Par(v1,7) ⊇ {v1,2, v1,3, v1,6}.
func TestAlgorithm1PaperWalkthrough(t *testing.T) {
	var b Builder
	v := make([]int, 8)
	for i := range v {
		v[i] = b.AddNode(int64(i + 1)) // WCETs irrelevant here
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {2, 5}, {3, 6}, {4, 6}, {5, 7}, {6, 7}} {
		b.AddEdge(v[e[0]], v[e[1]])
	}
	g := b.MustBuild()
	par := g.Algorithm1Parallel()
	// Node v1,3 is index 2; expected parallel {v1,2, v1,4, v1,5, v1,7} =
	// indices {1, 3, 4, 6}.
	if got := par[2].Indices(); !reflect.DeepEqual(got, []int{1, 3, 4, 6}) {
		t.Errorf("Par(v1,3) = %v, want [1 3 4 6]", got)
	}
	for _, want := range []int{1, 2, 5} { // v1,2, v1,3, v1,6
		if !par[6].Contains(want) {
			t.Errorf("Par(v1,7) missing index %d", want)
		}
	}
	// And the exact definition must agree on this single-source DAG.
	exact := g.Parallel()
	for i := range par {
		if !par[i].Equal(exact[i]) {
			t.Errorf("node %d: Algorithm1 %v != exact %v", i, par[i], exact[i])
		}
	}
}

// randomSingleSourceDAG builds a connected DAG with one source: every node
// other than node 0 gets at least one predecessor among earlier nodes.
func randomSingleSourceDAG(rng *rand.Rand, n int) *Graph {
	var b Builder
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

// randomMultiSourceDAG may leave nodes without predecessors.
func randomMultiSourceDAG(rng *rand.Rand, n int) *Graph {
	var b Builder
	for i := 0; i < n; i++ {
		b.AddNode(int64(1 + rng.Intn(100)))
	}
	for v := 1; v < n; v++ {
		for u := 0; u < v; u++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// TestAlgorithm1MatchesExactOnSingleSource is the key structural property:
// on single-source DAGs (the population of the paper's generator),
// Algorithm 1 computes exactly the mutual-non-reachability relation.
func TestAlgorithm1MatchesExactOnSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		g := randomSingleSourceDAG(rng, 1+rng.Intn(28))
		a1 := g.Algorithm1Parallel()
		exact := g.Parallel()
		for v := 0; v < g.N(); v++ {
			if !a1[v].Equal(exact[v]) {
				t.Fatalf("trial %d node %d: Algorithm1 %v != exact %v\nDOT:\n%s",
					trial, v, a1[v], exact[v], g.DOT("g"))
			}
		}
	}
}

// TestAlgorithm1UnderApproximatesOnMultiSource documents the multi-source
// limitation: Algorithm 1 never *over*-approximates, and there exist
// multi-source DAGs where it strictly under-approximates (two disconnected
// chains), which would make blocking bounds unsound — hence the exact
// Parallel is the production path.
func TestAlgorithm1UnderApproximatesOnMultiSource(t *testing.T) {
	var b Builder
	a := b.AddNode(1)
	c := b.AddNode(1)
	d := b.AddNode(1)
	b.AddEdge(a, c)
	_ = d // disconnected node
	g := b.MustBuild()
	a1 := g.Algorithm1Parallel()
	exact := g.Parallel()
	if !exact[d].Contains(a) || !exact[d].Contains(c) {
		t.Fatal("exact Parallel must see the disconnected node as parallel")
	}
	if !a1[d].Empty() {
		t.Errorf("Algorithm1 Par(disconnected) = %v, expected empty (documented gap)", a1[d])
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		g := randomMultiSourceDAG(rng, 1+rng.Intn(25))
		a1 := g.Algorithm1Parallel()
		exact := g.Parallel()
		for v := 0; v < g.N(); v++ {
			if !a1[v].SubsetOf(exact[v]) {
				t.Fatalf("trial %d node %d: Algorithm1 over-approximates: %v vs %v",
					trial, v, a1[v], exact[v])
			}
		}
	}
}

func TestParallelIsSymmetricAndIrreflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomMultiSourceDAG(rng, 1+rng.Intn(24))
		par := g.Parallel()
		for u := 0; u < g.N(); u++ {
			if par[u].Contains(u) {
				t.Fatalf("Par(%d) contains itself", u)
			}
			for v := 0; v < g.N(); v++ {
				if par[u].Contains(v) != par[v].Contains(u) {
					t.Fatalf("parallel relation asymmetric at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestIsParallelMatrixMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomSingleSourceDAG(rng, 15)
	m := g.IsParallelMatrix()
	par := g.Parallel()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if m[u][v] != par[u].Contains(v) {
				t.Fatalf("matrix mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestWidthDiamond(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	if got := g.Width(); got != 2 {
		t.Errorf("Width = %d, want 2", got)
	}
}

func TestWidthChainAndStar(t *testing.T) {
	var b Builder
	n0 := b.AddNode(1)
	n1 := b.AddNode(1)
	n2 := b.AddNode(1)
	b.AddEdge(n0, n1)
	b.AddEdge(n1, n2)
	chain := b.MustBuild()
	if got := chain.Width(); got != 1 {
		t.Errorf("chain Width = %d, want 1", got)
	}

	var s Builder
	root := s.AddNode(1)
	for i := 0; i < 5; i++ {
		leaf := s.AddNode(1)
		s.AddEdge(root, leaf)
	}
	star := s.MustBuild()
	if got := star.Width(); got != 5 {
		t.Errorf("star Width = %d, want 5", got)
	}
}

// bruteWidth computes the maximum antichain by subset enumeration.
func bruteWidth(g *Graph) int {
	n := g.N()
	reach := g.Reach()
	best := 0
	for mask := 1; mask < 1<<uint(n); mask++ {
		var nodes []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				nodes = append(nodes, v)
			}
		}
		ok := true
		for i := 0; i < len(nodes) && ok; i++ {
			for j := i + 1; j < len(nodes) && ok; j++ {
				u, v := nodes[i], nodes[j]
				if reach[u].Contains(v) || reach[v].Contains(u) {
					ok = false
				}
			}
		}
		if ok && len(nodes) > best {
			best = len(nodes)
		}
	}
	return best
}

func TestWidthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		g := randomMultiSourceDAG(rng, 1+rng.Intn(10))
		if got, want := g.Width(), bruteWidth(g); got != want {
			t.Fatalf("trial %d: Width = %d, brute force = %d\n%s", trial, got, want, g.DOT("g"))
		}
	}
}

func TestMaxAntichainIsValidAndMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		g := randomMultiSourceDAG(rng, 1+rng.Intn(12))
		ac := g.MaxAntichain()
		if len(ac) != g.Width() {
			t.Fatalf("trial %d: antichain size %d != width %d", trial, len(ac), g.Width())
		}
		reach := g.Reach()
		for i := 0; i < len(ac); i++ {
			for j := i + 1; j < len(ac); j++ {
				u, v := ac[i], ac[j]
				if reach[u].Contains(v) || reach[v].Contains(u) {
					t.Fatalf("trial %d: antichain %v not an antichain (%d,%d ordered)", trial, ac, u, v)
				}
			}
		}
		if !sort.IntsAreSorted(ac) {
			t.Fatalf("antichain %v not sorted", ac)
		}
	}
}

func TestSortedWCETsAndMax(t *testing.T) {
	g := diamond(t, 5, 2, 9, 1)
	if got := g.SortedWCETs(); !reflect.DeepEqual(got, []int64{9, 5, 2, 1}) {
		t.Errorf("SortedWCETs = %v", got)
	}
	if got := g.MaxWCET(); got != 9 {
		t.Errorf("MaxWCET = %d, want 9", got)
	}
}

func TestNamesAndDOT(t *testing.T) {
	var b Builder
	x := b.AddNamedNode("entry", 3)
	y := b.AddNode(4)
	b.AddEdge(x, y)
	g := b.MustBuild()
	if got := g.Name(x); got != "entry" {
		t.Errorf("Name(x) = %q", got)
	}
	if got := g.Name(y); got != "v2" {
		t.Errorf("Name(y) = %q, want v2 (1-based default)", got)
	}
	dot := g.DOT("task")
	for _, want := range []string{"digraph \"task\"", "entry (3)", "v2 (4)", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestEdgesAndHasEdge(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Error("HasEdge gave wrong answers")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t, 1, 2, 3, 4)
	c := g.Clone()
	if !reflect.DeepEqual(g.WCETs(), c.WCETs()) {
		t.Fatal("clone differs")
	}
	c.wcet[0] = 99
	if g.wcet[0] == 99 {
		t.Error("clone shares WCET storage")
	}
	c.succ[0][0] = 3
	if g.succ[0][0] == 3 {
		t.Error("clone shares adjacency storage")
	}
}

func TestWCETsReturnsCopy(t *testing.T) {
	g := diamond(t, 1, 2, 3, 4)
	w := g.WCETs()
	w[0] = 50
	if g.WCET(0) == 50 {
		t.Error("WCETs exposes internal storage")
	}
}

func TestLongestPathAtMostVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		g := randomSingleSourceDAG(rng, 1+rng.Intn(30))
		l, vol := g.LongestPath(), g.Volume()
		if l > vol {
			t.Fatalf("L %d > vol %d", l, vol)
		}
		if l < g.MaxWCET() {
			t.Fatalf("L %d < max node %d", l, g.MaxWCET())
		}
		if g.Width() == 1 && l != vol {
			t.Fatalf("sequential DAG must have L == vol (got %d, %d)", l, vol)
		}
	}
}

// refBuild is the map-based Build the slab version replaced, kept as the
// oracle for error precedence and adjacency.
func refBuild(wcet []int64, edges [][2]int) (succ, pred [][]int, topo []int, err error) {
	n := len(wcet)
	if n == 0 {
		return nil, nil, nil, fmtErr("dag: graph must have at least one node")
	}
	for i, c := range wcet {
		if c <= 0 {
			return nil, nil, nil, fmtErr("dag: node %d has non-positive WCET %d", i, c)
		}
	}
	succ, pred = make([][]int, n), make([][]int, n)
	seen := map[[2]int]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, nil, nil, fmtErr("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, nil, nil, fmtErr("dag: self-loop on node %d", u)
		}
		if seen[e] {
			return nil, nil, nil, fmtErr("dag: duplicate edge (%d,%d)", u, v)
		}
		seen[e] = true
		succ[u] = append(succ[u], v)
		pred[v] = append(pred[v], u)
	}
	for i := range succ {
		sort.Ints(succ[i])
		sort.Ints(pred[i])
	}
	indeg := make([]int, n)
	for v := range pred {
		indeg[v] = len(pred[v])
	}
	done := make([]bool, n)
	for len(topo) < n {
		next := -1
		for v := 0; v < n; v++ {
			if !done[v] && indeg[v] == 0 {
				next = v
				break
			}
		}
		if next == -1 {
			return nil, nil, nil, fmtErr("dag: cycle detected")
		}
		done[next] = true
		topo = append(topo, next)
		for _, w := range succ[next] {
			indeg[w]--
		}
	}
	return succ, pred, topo, nil
}

func fmtErr(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestBuildMatchesReference builds random node and edge lists — bad
// edges, duplicates, cycles and all — and pins Build's verdict, error
// text, adjacency (nil lists included) and topological order to refBuild.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(7)
		var b Builder
		wcet := make([]int64, n)
		for i := range wcet {
			wcet[i] = int64(rng.Intn(20)) + 1
			if rng.Intn(200) == 0 {
				wcet[i] = 0
			}
			b.AddNode(wcet[i])
		}
		var edges [][2]int
		for k := rng.Intn(2 * (n + 1)); k > 0; k-- {
			u, v := rng.Intn(n+2)-1, rng.Intn(n+2)-1
			if rng.Intn(3) > 0 && u < v && u >= 0 && v < n {
				// mostly forward edges, so many graphs are valid DAGs
			} else if rng.Intn(4) > 0 && n > 1 {
				u, v = rng.Intn(n-1), 0
				v = u + 1 + rng.Intn(n-1-u)
			}
			edges = append(edges, [2]int{u, v})
			b.AddEdge(u, v)
		}
		succ, pred, topo, wantErr := refBuild(wcet, edges)
		g, err := b.Build()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("wcet %v edges %v: Build error %v, want %v", wcet, edges, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(g.succ, succ) || !reflect.DeepEqual(g.pred, pred) || !reflect.DeepEqual(g.topo, topo) {
			t.Fatalf("wcet %v edges %v: adjacency or order differs:\n%v %v %v\nwant %v %v %v",
				wcet, edges, g.succ, g.pred, g.topo, succ, pred, topo)
		}
	}
}
