package ppp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blocking"
	"repro/internal/dag"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/rta"
)

func chain(wcets ...int64) *dag.Graph {
	var b dag.Builder
	prev := -1
	for _, c := range wcets {
		v := b.AddNode(c)
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
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

func TestSplitNodesBasic(t *testing.T) {
	g := chain(10)
	s := dag.Split(g, 3)
	if s.N() != 4 { // 10 → 3+3+2+2
		t.Fatalf("N = %d, want 4", s.N())
	}
	if s.Volume() != 10 || s.LongestPath() != 10 {
		t.Errorf("vol/L = %d/%d, want 10/10", s.Volume(), s.LongestPath())
	}
	for v := 0; v < s.N(); v++ {
		if s.WCET(v) > 3 {
			t.Errorf("piece %d has WCET %d > 3", v, s.WCET(v))
		}
	}
}

func TestSplitNodesNoOp(t *testing.T) {
	g := fixture.Tau1()
	s := dag.Split(g, 100)
	if s.N() != g.N() || s.Volume() != g.Volume() {
		t.Error("budget above all WCETs must not split")
	}
}

func TestSplitPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 1+rng.Intn(12))
		for _, q := range []int64{1, 2, 5, 17, 50} {
			s := dag.Split(g, q)
			if s.Volume() != g.Volume() {
				t.Fatalf("volume changed: %d → %d", g.Volume(), s.Volume())
			}
			if s.LongestPath() != g.LongestPath() {
				t.Fatalf("longest path changed: %d → %d", g.LongestPath(), s.LongestPath())
			}
			if s.Width() != g.Width() {
				t.Fatalf("width changed: %d → %d", g.Width(), s.Width())
			}
			if s.MaxWCET() > q {
				t.Fatalf("split left an NPR of %d > %d", s.MaxWCET(), q)
			}
		}
	}
}

func TestSplitPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	dag.Split(chain(5), 0)
}

func TestCoarsenChainsBasic(t *testing.T) {
	g := chain(2, 3, 4)
	c := CoarsenChains(g, 9)
	if c.N() != 1 || c.WCET(0) != 9 {
		t.Fatalf("full merge expected, got %d nodes", c.N())
	}
	c = CoarsenChains(g, 5)
	if c.N() != 2 { // 2+3 merged, 4 alone
		t.Fatalf("partial merge: %d nodes, want 2", c.N())
	}
	if c.Volume() != 9 || c.LongestPath() != 9 {
		t.Errorf("vol/L = %d/%d, want 9/9", c.Volume(), c.LongestPath())
	}
}

func TestCoarsenPreservesForkJoin(t *testing.T) {
	// Diamond must not merge across the fork or join.
	var b dag.Builder
	s := b.AddNode(1)
	x := b.AddNode(2)
	y := b.AddNode(3)
	tt := b.AddNode(4)
	b.AddEdge(s, x)
	b.AddEdge(s, y)
	b.AddEdge(x, tt)
	b.AddEdge(y, tt)
	g := b.MustBuild()
	c := CoarsenChains(g, 100)
	if c.N() != 4 {
		t.Fatalf("diamond must stay intact, got %d nodes", c.N())
	}
}

func TestCoarsenPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		g := randomDAG(rng, 1+rng.Intn(12))
		for _, q := range []int64{10, 50, 200, 1000} {
			c := CoarsenChains(g, q)
			if c.Volume() != g.Volume() {
				t.Fatalf("volume changed: %d → %d", g.Volume(), c.Volume())
			}
			if c.LongestPath() != g.LongestPath() {
				t.Fatalf("longest path changed: %d → %d", g.LongestPath(), c.LongestPath())
			}
			if c.Width() != g.Width() {
				t.Fatalf("width changed: %d → %d", g.Width(), c.Width())
			}
			if c.N() > g.N() {
				t.Fatalf("coarsening grew the graph")
			}
		}
	}
}

// TestSplitCoarsenRoundTrip: coarsening a split chain at the original
// budget recovers a graph no finer than the original chain.
func TestSplitCoarsenRoundTrip(t *testing.T) {
	g := chain(30)
	s := dag.Split(g, 7) // 5 pieces
	c := CoarsenChains(s, 30)
	if c.N() != 1 || c.WCET(0) != 30 {
		t.Fatalf("round trip left %d nodes", c.N())
	}
}

// TestSplitReducesBlocking: Δ^m of split graphs is non-decreasing in the
// budget — finer NPRs can only lower the blocking bound.
func TestSplitReducesBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var graphs []*dag.Graph
		for i := 0; i < 1+rng.Intn(3); i++ {
			graphs = append(graphs, randomDAG(rng, 2+rng.Intn(8)))
		}
		m := 2 + rng.Intn(4)
		prev := int64(-1)
		for _, q := range []int64{5, 10, 25, 50, 100} {
			var split []*dag.Graph
			for _, g := range graphs {
				split = append(split, dag.Split(g, q))
			}
			d := blocking.Compute(split, m, blocking.LPMax, blocking.Combinatorial).DeltaM
			if prev >= 0 && d < prev {
				t.Fatalf("trial %d: LP-max Δ decreased from %d to %d as budget grew", trial, prev, d)
			}
			prev = d
		}
	}
}

func TestTransformKeepsTiming(t *testing.T) {
	ts := fixture.TaskSet()
	out := Transform(ts, func(g *dag.Graph) *dag.Graph { return dag.Split(g, 2) })
	if out.N() != ts.N() {
		t.Fatal("task count changed")
	}
	for i := range out.Tasks {
		if out.Tasks[i].Period != ts.Tasks[i].Period || out.Tasks[i].Deadline != ts.Tasks[i].Deadline {
			t.Fatal("timing parameters changed")
		}
		if out.Tasks[i].G.Volume() != ts.Tasks[i].G.Volume() {
			t.Fatal("volume changed")
		}
	}
}

func TestExplore(t *testing.T) {
	ts := fixture.TaskSet()
	points, err := Explore(ts, fixture.M, []int64{1, 2, 4, 8}, rta.LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].TotalNodes > points[i-1].TotalNodes {
			t.Error("node count should not grow with a looser budget")
		}
		if points[i].MaxDeltaM < points[i-1].MaxDeltaM {
			t.Error("blocking should not shrink with a looser budget")
		}
	}
	if _, err := Explore(ts, fixture.M, []int64{1}, rta.FPIdeal); err == nil {
		t.Error("FPIdeal must be rejected")
	}
}

// TestQuickSplitInvariant property-checks volume preservation across
// random seeds using testing/quick.
func TestQuickSplitInvariant(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 1+rng.Intn(10))
		budget := int64(budgetRaw%50) + 1
		s := dag.Split(g, budget)
		return s.Volume() == g.Volume() && s.MaxWCET() <= budget &&
			s.LongestPath() == g.LongestPath()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestExploreTradeoffRealistic demonstrates the headline trade-off on a
// set engineered to be schedulable only with fine preemption points: a
// tight high-priority task over a long-NPR low-priority task.
func TestExploreTradeoffRealistic(t *testing.T) {
	hi := &model.Task{Name: "hi", G: chain(4), Deadline: 20, Period: 20}
	lo := &model.Task{Name: "lo", G: chain(60, 60), Deadline: 400, Period: 400}
	ts, err := model.NewTaskSet(hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Explore(ts, 2, []int64{10, 60}, rta.LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if !points[0].Schedulable {
		t.Error("fine placement (budget 10) should schedule the set")
	}
	if points[1].Schedulable {
		t.Error("coarse placement (budget 60) should miss: 60-unit blocking on a 20 deadline")
	}
}
