package dag

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

func TestSourcesSinks(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	for v := range g.N() {
		if source := len(g.Predecessors(v)) == 0; source != (v == 0) {
			t.Errorf("node %d is a source: %v", v, source)
		}
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

func TestEdges(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1)
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d", g.NumEdges())
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
	cs, _ := lists(c)
	cs[0][0] = 3
	if gs, _ := lists(g); gs[0][0] == 3 {
		t.Error("clone shares adjacency storage")
	}
}

// lists returns g's adjacency in per-node list shape, each list a
// window of the graph's slab and nil when empty, as refBuild returns it.
func lists(g *Graph) (succ, pred [][]int) {
	succ, pred = make([][]int, g.N()), make([][]int, g.N())
	for v := range g.N() {
		if s := g.Successors(v); len(s) > 0 {
			succ[v] = s
		}
		if p := g.Predecessors(v); len(p) > 0 {
			pred[v] = p
		}
	}
	return succ, pred
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

// TestBuildRejectsVolumeOverflow pins the value-range check: two
// independent nodes of WCET 2^62 (volume 2^63) are refused with
// refBuild's error, naming the node where the sum leaves int64, while
// the largest volume that fits builds, and its split and clone carry it
// over with a longest path inside it. Before the check the first graph
// built with volume −2^63, which an analysis on one core read as
// schedulable with a negative bound.
func TestBuildRejectsVolumeOverflow(t *testing.T) {
	const big = int64(1) << 62
	for _, wcet := range [][]int64{{big, big}, {1, big, big - 1, 5}, {math.MaxInt64, 1}} {
		var b Builder
		for _, c := range wcet {
			b.AddNode(c)
		}
		_, err := b.Build()
		_, _, _, want := refBuild(wcet, nil)
		if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("WCETs %v: Build error %v, want %v", wcet, err, want)
		}
	}
	var b Builder
	b.AddNode(big)
	b.AddNode(big - 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	for what, h := range map[string]*Graph{"built": g, "split": Split(g, big/3), "clone": g.Clone()} {
		if h.Volume() != math.MaxInt64 || h.LongestPath() != math.MaxInt64 {
			t.Errorf("%s: volume %d, longest path %d, want both %d", what, h.Volume(), h.LongestPath(), int64(math.MaxInt64))
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
	var vol int64
	for i, c := range wcet {
		if c <= 0 {
			return nil, nil, nil, fmtErr("dag: node %d has non-positive WCET %d", i, c)
		}
		if vol > math.MaxInt64-c {
			return nil, nil, nil, fmtErr("dag: WCET sum overflows int64 at node %d", i)
		}
		vol += c
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
		gs, gp := lists(g)
		if !reflect.DeepEqual(gs, succ) || !reflect.DeepEqual(gp, pred) || !reflect.DeepEqual(g.TopologicalOrder(), topo) {
			t.Fatalf("wcet %v edges %v: adjacency or order differs:\n%v %v %v\nwant %v %v %v",
				wcet, edges, gs, gp, g.TopologicalOrder(), succ, pred, topo)
		}
	}
}

// randomPermutedDAG builds an n-node DAG whose edges run forward along a
// random permutation of the node indices, each with probability p, and
// returns its node and edge lists (edges in shuffled input order). With
// singleSource every node but the first of the permutation gets at least
// one predecessor. Its topological orders are unrelated to index order,
// so many nodes are ready at once and the smallest-index tie-break does
// real work.
func randomPermutedDAG(rng *rand.Rand, n int, p float64, singleSource bool) ([]int64, [][2]int) {
	wcet := make([]int64, n)
	for i := range wcet {
		wcet[i] = int64(1 + rng.Intn(100))
	}
	perm := rng.Perm(n)
	var edges [][2]int
	for j := 1; j < n; j++ {
		first := -1
		if singleSource {
			first = rng.Intn(j)
			edges = append(edges, [2]int{perm[first], perm[j]})
		}
		for i := 0; i < j; i++ {
			if i != first && rng.Float64() < p {
				edges = append(edges, [2]int{perm[i], perm[j]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return wcet, edges
}

// buildVsRef builds the node and edge lists and fails t unless Build
// agrees with refBuild: verdict, error text, adjacency and order.
func buildVsRef(t testing.TB, wcet []int64, edges [][2]int) (*Graph, error) {
	t.Helper()
	var b Builder
	for _, c := range wcet {
		b.AddNode(c)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	succ, pred, topo, wantErr := refBuild(wcet, edges)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%d nodes, edges %v: Build error %v, want %v", len(wcet), edges, err, wantErr)
	}
	if err != nil {
		return g, err
	}
	if gs, gp := lists(g); !reflect.DeepEqual(gs, succ) || !reflect.DeepEqual(gp, pred) || !reflect.DeepEqual(g.TopologicalOrder(), topo) {
		t.Fatalf("%d nodes, edges %v: adjacency or order differs:\n%v %v %v\nwant %v %v %v",
			len(wcet), edges, gs, gp, g.TopologicalOrder(), succ, pred, topo)
	}
	return g, err
}

// parallelByPairs is Par(v) by its per-pair definition, the loop
// Parallel ran before it derived the sets from reachability words:
// u ∈ Par(v) iff u ≠ v and neither node reaches the other.
func parallelByPairs(g *Graph) []*bitset.Set {
	n := g.N()
	succ := g.Reach()
	out := bitset.Slab(n, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v && !succ[v].Contains(u) && !succ[u].Contains(v) {
				out[v].Add(u)
			}
		}
	}
	return out
}

// reachByWalk is SUCC(v) by a depth-first walk along Successors.
func reachByWalk(g *Graph) []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for v := range n {
		stack := slices.Clone(g.Successors(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !out[v].Contains(u) {
				out[v].Add(u)
				stack = append(stack, g.Successors(u)...)
			}
		}
	}
	return out
}

// TestDerivedSetsBelongToTheCaller flips every set and matrix cell that
// Reach, Parallel and IsParallelMatrix return: each call builds its
// result afresh, so the next calls must still give SUCC(v) by a walk
// along the edges and Par(v) by its per-pair definition.
func TestDerivedSetsBelongToTheCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		g := randomMultiSourceDAG(rng, 1+rng.Intn(40))
		wantReach, wantPar := reachByWalk(g), parallelByPairs(g)
		for _, s := range g.Reach() {
			s.Complement()
		}
		for _, s := range g.Parallel() {
			s.Complement()
		}
		for _, row := range g.IsParallelMatrix() {
			for k := range row {
				row[k] = !row[k]
			}
		}
		reach, par, mat := g.Reach(), g.Parallel(), g.IsParallelMatrix()
		for v := range g.N() {
			if !reach[v].Equal(wantReach[v]) {
				t.Fatalf("trial %d: Reach(%d) = %v after a caller's edit, want %v", trial, v, reach[v], wantReach[v])
			}
			if !par[v].Equal(wantPar[v]) {
				t.Fatalf("trial %d: Par(%d) = %v after a caller's edit, want %v", trial, v, par[v], wantPar[v])
			}
			for k, p := range mat[v] {
				if p != wantPar[v].Contains(k) {
					t.Fatalf("trial %d: IsPar[%d][%d] = %v after a caller's edit", trial, v, k, p)
				}
			}
		}
	}
}

// TestParallelMatchesDefinition pins Parallel to the per-pair definition
// on random DAGs of up to 200 nodes, single- and multi-source, sparse
// and dense, including the word-boundary sizes.
func TestParallelMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 2, 63, 64, 65, 128, 129, 200}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(200)
		if trial < 2*len(sizes) {
			n = sizes[trial/2]
		}
		p := 3 * rng.Float64() / float64(n)
		if trial%3 == 0 {
			p = 0.2 * rng.Float64()
		}
		wcet, edges := randomPermutedDAG(rng, n, p, trial%2 == 0)
		g, err := buildVsRef(t, wcet, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		par, want := g.Parallel(), parallelByPairs(g)
		for v := range want {
			if !par[v].Equal(want[v]) {
				t.Fatalf("trial %d (n=%d, %d edges) node %d: Par %v, want %v",
					trial, n, len(edges), v, par[v], want[v])
			}
		}
	}
}

// TestBuildMatchesReferenceAtSize is TestBuildMatchesReference at up to
// 300 nodes with permuted indices, where the heap of ready nodes holds
// many entries, plus edge lists that hide one bad edge (out of range or
// a self-loop) before or after a duplicate: Build must name whichever
// comes first in input order, as refBuild does.
func TestBuildMatchesReferenceAtSize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := map[string]int{}
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(300)
		p := 4 * rng.Float64() / float64(n)
		if iter%5 == 0 {
			p = 0.1 * rng.Float64()
		}
		wcet, edges := randomPermutedDAG(rng, n, p, iter%2 == 0)
		insert := func(at int, e [2]int) {
			edges = append(edges[:at], append([][2]int{e}, edges[at:]...)...)
		}
		switch iter % 4 {
		case 1: // a cycle through one reversed edge
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				insert(rng.Intn(len(edges)+1), [2]int{e[1], e[0]})
			}
		case 2, 3: // a duplicate and a bad edge, in either order
			if len(edges) == 0 {
				break
			}
			i := rng.Intn(len(edges))
			dup := i + 1 + rng.Intn(len(edges)-i)
			bad := [2]int{rng.Intn(n), rng.Intn(n)}
			switch rng.Intn(3) {
			case 0:
				bad[0] = n + rng.Intn(3)
			case 1:
				bad[1] = -1 - rng.Intn(3)
			default:
				bad[1] = bad[0]
			}
			insert(dup, edges[i])
			if iter%4 == 2 {
				insert(i+1+rng.Intn(dup-i), bad) // before the duplicate
			} else {
				insert(dup+1+rng.Intn(len(edges)-dup), bad) // after it
			}
		}
		if _, err := buildVsRef(t, wcet, edges); err != nil {
			kinds[strings.Fields(err.Error())[1]]++
		} else {
			kinds["ok"]++
		}
	}
	for _, k := range []string{"ok", "cycle", "duplicate", "edge", "self-loop"} {
		if kinds[k] == 0 {
			t.Errorf("no %q outcome among %v", k, kinds)
		}
	}
}

// TestBuildLongChainOrder builds a 100 000-node chain whose edges run
// from each node to the one below it, the body that made the old
// smallest-ready-index scan quadratic, and checks the order n-1, …, 0.
func TestBuildLongChainOrder(t *testing.T) {
	const n = 100000
	var b Builder
	for v := 0; v < n; v++ {
		b.AddNode(1)
	}
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v+1, v)
	}
	g := b.MustBuild()
	for i, v := range g.TopologicalOrder() {
		if v != n-1-i {
			t.Fatalf("order[%d] = %d, want %d", i, v, n-1-i)
		}
	}
	if g.LongestPath() != n {
		t.Fatalf("L = %d, want %d", g.LongestPath(), n)
	}
}
