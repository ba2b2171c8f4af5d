package blocking_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/clique"
	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/ppp"
)

// runShapes returns the graphs of the run-class quickcheck: single
// nodes, chains, permuted random DAGs from sparse (long runs) to dense
// (none), generated task graphs of every shape, and splits and coarsens
// of all of these, splits of coarsens included.
func runShapes(rng *rand.Rand) []*dag.Graph {
	var base []*dag.Graph
	chain := func(n int) *dag.Graph {
		var b dag.Builder
		for v := 0; v < n; v++ {
			b.AddNode(int64(1 + rng.Intn(40)))
			if v > 0 {
				b.AddEdge(v-1, v)
			}
		}
		return b.MustBuild()
	}
	for _, n := range []int{1, 1, 2, 3, 9, 70} {
		base = append(base, chain(n))
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(30)
		var b dag.Builder
		for range n {
			b.AddNode(int64(1 + rng.Intn(40)))
		}
		perm, p := rng.Perm(n), 2.5*rng.Float64()/float64(n)
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if rng.Float64() < p {
					b.AddEdge(perm[i], perm[j])
				}
			}
		}
		base = append(base, b.MustBuild())
	}
	for _, p := range []gen.Params{
		gen.PaperParams(gen.GroupMixed),
		gen.PaperParams(gen.GroupParallel),
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeWide, Beta: 0.5},
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeDeep, Beta: 0.5},
		{DAG: gen.PaperDAGParams(), Shape: gen.ShapeOpenMP, Beta: 0.5},
	} {
		g := gen.New(rng.Int63(), p)
		for range 20 {
			base = append(base, g.Graph())
		}
	}
	base = append(base, fixture.LowerPriorityGraphs()...)
	out := slices.Clone(base)
	for _, g := range base {
		top := g.MaxWCET()
		coarse := ppp.CoarsenChains(g, 2*top)
		out = append(out, coarse, dag.Split(coarse, max(1, top/2)))
		for _, q := range []int64{top / 4, top / 2, top - 1} {
			if q >= 1 {
				out = append(out, dag.Split(g, q))
			}
		}
	}
	return out
}

// byWeight returns g relabelled through dag.Builder so that its WCETs
// are non-increasing, ties in g's topological order: the order the
// clique solver requires of a node-level problem, and the one Classes
// gives a graph without runs.
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

// TestMuOnRunClassesMatchesFullSolve is the run-class quickcheck: the
// combinatorial µ table, solved on the run classes of a graph, equals
// the one clique solves on the graph's own WCETs and Par sets, for
// every m up to 16.
func TestMuOnRunClassesMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables, withRuns := 0, 0
	for i, g := range runShapes(rng) {
		if w, _ := new(dag.ClassScratch).Classes(g); len(w) < g.N() {
			withRuns++
		}
		h := byWeight(g)
		w, par := h.WCETs(), h.Parallel()
		for m := 1; m <= 16; m++ {
			got := blocking.Mu(g.Clone(), m, blocking.Combinatorial)
			want := new(clique.Solver).MuTable(w, par, m)
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d (%d nodes, %d edges), m=%d: µ %v, want %v", i, g.N(), g.NumEdges(), m, got, want)
			}
			tables++
		}
	}
	if withRuns < tables/16/2 {
		t.Fatalf("only %d of %d graphs have runs; the check would not exercise the classes", withRuns, tables/16)
	}
}

// TestRunClassesOfChainAndFork pins the classes of three small shapes:
// a chain is one class weighing its heaviest node, each node of a
// fork-join without runs is a class with the node's Par set, and a
// split fork branch is one class, the heaviest and so the first,
// parallel to the other branch.
func TestRunClassesOfChainAndFork(t *testing.T) {
	var b dag.Builder
	for _, c := range []int64{3, 9, 4} {
		b.AddNode(c)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	w, par := new(dag.ClassScratch).Classes(b.MustBuild())
	if !slices.Equal(w, []int64{9}) || len(par) != 1 || par[0].Count() != 0 {
		t.Fatalf("chain: weights %v, par %v", w, par)
	}
	// a → {b, c} → d, with e after c: the link c→e is not a run, as c
	// has two successors.
	b.Reset()
	for range 5 {
		b.AddNode(1)
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}} {
		b.AddEdge(e[0], e[1])
	}
	fork := b.MustBuild()
	w, par = new(dag.ClassScratch).Classes(fork)
	if !slices.Equal(w, fork.WCETs()) || len(par) != fork.N() {
		t.Fatalf("run-free graph: weights %v, par %v", w, par)
	}
	for v, s := range fork.Parallel() { // equal weights, order 0..4: classes are nodes
		if !par[v].Equal(s) {
			t.Fatalf("run-free graph: Par(class %d) = %v, want %v", v, par[v], s)
		}
	}
	b.Reset()
	for _, c := range []int64{1, 10, 2, 1} {
		b.AddNode(c)
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	w, par = new(dag.ClassScratch).Classes(dag.Split(b.MustBuild(), 3))
	if !slices.Equal(w, []int64{3, 2, 1, 1}) {
		t.Fatalf("split fork: weights %v", w)
	}
	for c, want := range []string{"{1}", "{0}", "{}", "{}"} {
		if par[c].String() != want {
			t.Fatalf("split fork: Par(class %d) = %v, want %v", c, par[c], want)
		}
	}
}

// TestClassesInWeightOrder pins the numbering the µ search relies on:
// classes come by non-increasing weight, ties in the topological order
// of their first members. On a graph without runs the classes are its
// nodes, so they must be the graph relabelled by byWeight, Par sets
// included; splitting such a graph turns each long node into a run of
// pieces, whose classes must be the same relabelling of the graph with
// each node weighing its heaviest piece.
func TestClassesInWeightOrder(t *testing.T) {
	check := func(what string, g, want *dag.Graph) {
		t.Helper()
		w, par := new(dag.ClassScratch).Classes(g)
		if !slices.Equal(w, want.WCETs()) || len(par) != want.N() {
			t.Fatalf("%s: weights %v, want %v", what, w, want.WCETs())
		}
		for c, s := range want.Parallel() {
			if !par[c].Equal(s) {
				t.Fatalf("%s: Par(class %d) = %v, want %v", what, c, par[c], s)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	runFree := 0
	for i, g := range runShapes(rng) {
		w, _ := new(dag.ClassScratch).Classes(g)
		if !slices.IsSortedFunc(w, func(a, b int64) int { return cmp.Compare(b, a) }) {
			t.Fatalf("graph %d (%d nodes): class weights %v rise", i, g.N(), w)
		}
		if len(w) < g.N() {
			continue
		}
		runFree++
		check(fmt.Sprintf("graph %d", i), g, byWeight(g))
		top := g.MaxWCET()
		for _, q := range []int64{max(1, top/3), max(1, top/2)} {
			var b dag.Builder
			for v := range g.N() {
				c := g.WCET(v)
				k := (c-1)/q + 1
				b.AddNode((c + k - 1) / k)
			}
			for _, e := range g.Edges() {
				b.AddEdge(e[0], e[1])
			}
			check(fmt.Sprintf("graph %d split at %d", i, q), dag.Split(g, q), byWeight(b.MustBuild()))
		}
	}
	if runFree < 100 {
		t.Fatalf("only %d run-free graphs; the check would not exercise the relabelling", runFree)
	}
}

// scratchShapes returns n random graphs in random order, of 1 to 150
// nodes, from run-free (dense) to mostly runs (sparse, and chains), so
// a scratch fed them in turn grows and shrinks across bitset word
// boundaries.
func scratchShapes(rng *rand.Rand, n int) []*dag.Graph {
	out := make([]*dag.Graph, n)
	for i := range out {
		var b dag.Builder
		size := 1 + rng.Intn(150)
		for range size {
			b.AddNode(int64(1 + rng.Intn(40)))
		}
		perm := rng.Perm(size)
		if rng.Intn(5) == 0 { // a chain: one class
			for j := 1; j < size; j++ {
				b.AddEdge(perm[j-1], perm[j])
			}
		} else {
			p := 4 * rng.Float64() / float64(size)
			for j := 1; j < size; j++ {
				for k := 0; k < j; k++ {
					if rng.Float64() < p {
						b.AddEdge(perm[k], perm[j])
					}
				}
			}
		}
		out[i] = b.MustBuild()
		if rng.Intn(3) == 0 {
			out[i] = dag.Split(out[i], int64(1+rng.Intn(20)))
		}
	}
	return out
}

// TestClassScratchReuseMatchesFresh feeds one ClassScratch a random
// sequence of growing and shrinking graphs, with and without runs: each
// result must equal a fresh scratch's, so no weight or bit of an
// earlier, larger graph leaks into a later one.
func TestClassScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sc dag.ClassScratch
	withRuns, grew, shrank, prev := 0, 0, 0, 0
	for i, g := range append(scratchShapes(rng, 400), runShapes(rng)...) {
		want, wantPar := new(dag.ClassScratch).Classes(g)
		got, par := sc.Classes(g)
		if !slices.Equal(got, want) || len(par) != len(wantPar) {
			t.Fatalf("graph %d (%d nodes): weights %v, want %v", i, g.N(), got, want)
		}
		for c := range par {
			if !par[c].Equal(wantPar[c]) {
				t.Fatalf("graph %d (%d nodes): Par(class %d) = %v, want %v", i, g.N(), c, par[c], wantPar[c])
			}
		}
		if len(want) < g.N() {
			withRuns++
		}
		switch {
		case len(want) > prev:
			grew++
		case len(want) < prev:
			shrank++
		}
		prev = len(want)
	}
	if withRuns < 100 || grew < 100 || shrank < 100 {
		t.Fatalf("%d graphs with runs, %d growths, %d shrinks: the sequence does not exercise the scratch", withRuns, grew, shrank)
	}
}

// TestMuConcurrentMatchesSerial solves combinatorial µ tables on fresh
// clones from several goroutines at once, so the pooled class and
// solver scratch is shared between them, and compares each table with
// the one solved serially. Run it under -race.
func TestMuConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := scratchShapes(rng, 120)
	const m = 8
	want := make([][]int64, len(graphs))
	for i, g := range graphs {
		want[i] = blocking.Mu(g.Clone(), m, blocking.Combinatorial)
	}
	const workers = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i := (w + round) % workers; i < len(graphs); i += workers {
					if got := blocking.Mu(graphs[i].Clone(), m, blocking.Combinatorial); !slices.Equal(got, want[i]) {
						errs <- fmt.Sprintf("graph %d (%d nodes): µ %v, want %v", i, graphs[i].N(), got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
