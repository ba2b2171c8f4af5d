package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

// pathNodes returns the number of nodes on g's longest path counted in
// nodes, not weighed by WCET: the unit of DAGParams.MaxPathLen, so the
// cap holds on every path iff it holds on this one.
func pathNodes(g *dag.Graph) int {
	depth := make([]int, g.N()) // nodes on the longest path ending at v
	longest := 0
	for _, v := range g.TopologicalOrder() {
		for _, u := range g.Predecessors(v) {
			depth[v] = max(depth[v], depth[u])
		}
		depth[v]++
		longest = max(longest, depth[v])
	}
	return longest
}

func TestPaperParamsDefaults(t *testing.T) {
	p := PaperDAGParams()
	if p.PTerm != 0.4 || p.PPar != 0.6 || p.NPar != 6 || p.MaxNodes != 30 ||
		p.MaxPathLen != 7 || p.CMin != 1 || p.CMax != 100 {
		t.Fatalf("paper parameters drifted: %+v", p)
	}
	if pp := PaperParams(GroupMixed); pp.Beta != 0.5 {
		t.Fatalf("β = %v, want 0.5", pp.Beta)
	}
}

func TestGraphRespectsCaps(t *testing.T) {
	for _, group := range []Group{GroupMixed, GroupParallel} {
		g := New(1, PaperParams(group))
		for i := 0; i < 500; i++ {
			gr := g.Graph()
			if gr.N() > 30 {
				t.Fatalf("%v: %d nodes > 30", group, gr.N())
			}
			if got := pathNodes(gr); got > 7 {
				t.Fatalf("%v: a path has %d nodes > 7", group, got)
			}
			for v := 0; v < gr.N(); v++ {
				if c := gr.WCET(v); c < 1 || c > 100 {
					t.Fatalf("%v: WCET %d outside [1,100]", group, c)
				}
			}
		}
	}
}

func TestGroupParallelIsParallel(t *testing.T) {
	g := New(2, PaperParams(GroupParallel))
	for i := 0; i < 200; i++ {
		gr := g.Graph()
		if gr.Width() < 2 {
			t.Fatalf("GroupParallel produced a sequential DAG (width %d, n %d)",
				gr.Width(), gr.N())
		}
	}
}

func TestGroupMixedHasBothKinds(t *testing.T) {
	g := New(3, PaperParams(GroupMixed))
	seq, par := 0, 0
	for i := 0; i < 300; i++ {
		if g.Graph().Width() == 1 {
			seq++
		} else {
			par++
		}
	}
	if seq == 0 || par == 0 {
		t.Fatalf("mixed population not mixed: %d sequential, %d parallel", seq, par)
	}
	// Roughly half each (binomial, generous bounds).
	if seq < 60 || par < 60 {
		t.Errorf("mix ratio suspicious: %d sequential vs %d parallel", seq, par)
	}
}

func TestTaskUtilizationRange(t *testing.T) {
	g := New(4, PaperParams(GroupParallel))
	for i := 0; i < 300; i++ {
		task := g.Task()
		if err := task.Validate(); err != nil {
			t.Fatalf("generated invalid task: %v", err)
		}
		u := task.Utilization()
		maxU := float64(task.G.Volume()) / float64(task.G.LongestPath())
		// β lower bound can be slightly undercut by integer rounding of
		// the period; allow a small tolerance.
		if u < 0.45 || u > maxU+1e-9 {
			t.Fatalf("task utilization %.3f outside [β≈0.5, vol/L=%.3f]", u, maxU)
		}
		if task.Deadline != task.Period {
			t.Fatal("deadlines must be implicit")
		}
	}
}

func TestTaskSetHitsTargetUtilization(t *testing.T) {
	g := New(5, PaperParams(GroupMixed))
	for _, target := range []float64{0.8, 2.0, 3.5, 6.0} {
		for i := 0; i < 30; i++ {
			ts := g.TaskSet(target)
			if err := ts.Validate(); err != nil {
				t.Fatalf("invalid set: %v", err)
			}
			got := ts.Utilization()
			// Integer periods allow small deviation; the last-task
			// stretch may also be clamped by T ≥ L.
			if math.Abs(got-target) > 0.1*target+0.05 {
				t.Fatalf("target U=%.2f: got %.3f", target, got)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(42, PaperParams(GroupMixed))
	b := New(42, PaperParams(GroupMixed))
	for i := 0; i < 20; i++ {
		ta, tb := a.Task(), b.Task()
		if ta.Period != tb.Period || ta.G.N() != tb.G.N() || ta.G.Volume() != tb.G.Volume() {
			t.Fatalf("same seed diverged at task %d", i)
		}
	}
	c := New(43, PaperParams(GroupMixed))
	same := true
	for i := 0; i < 20; i++ {
		ta, tc := a.Task(), c.Task()
		if ta.Period != tc.Period || ta.G.Volume() != tc.G.Volume() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestReseedMatchesNew pins Reseed: one generator, reseeded in place
// across seeds, groups and shapes and building into one arena, gives
// exactly the task sets a fresh New gives.
func TestReseedMatchesNew(t *testing.T) {
	var g Generator
	var a dag.Arena
	for seed := int64(0); seed < 40; seed++ {
		p := PaperParams(Group(seed % 2))
		p.Shape = Shape(seed % 4)
		a.Reset()
		Reseed(&g, &a, seed, p)
		got, want := g.TaskSet(2), New(seed, p).TaskSet(2)
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("seed %d: %d tasks, want %d", seed, len(got.Tasks), len(want.Tasks))
		}
		for i, w := range want.Tasks {
			x := got.Tasks[i]
			if x.Name != w.Name || x.Period != w.Period || x.Deadline != w.Deadline || x.G.Fingerprint() != w.G.Fingerprint() {
				t.Fatalf("seed %d, task %d: %s T=%d D=%d, want %s T=%d D=%d (or the graphs differ)",
					seed, i, x.Name, x.Period, x.Deadline, w.Name, w.Period, w.Deadline)
			}
		}
	}
}

func TestTaskSetSortedByPriority(t *testing.T) {
	g := New(6, PaperParams(GroupMixed))
	ts := g.TaskSet(3.0)
	for i := 1; i < ts.N(); i++ {
		if ts.Tasks[i-1].Deadline > ts.Tasks[i].Deadline {
			t.Fatalf("set not deadline-monotonic at %d", i)
		}
	}
}

func TestDegenerateParamsClamped(t *testing.T) {
	g := New(7, Params{DAG: DAGParams{}, Beta: -1, SeqProb: 2})
	// Must not panic and must produce valid tasks.
	for i := 0; i < 50; i++ {
		if err := g.Task().Validate(); err != nil {
			t.Fatalf("clamped generator produced invalid task: %v", err)
		}
	}
	ts := g.TaskSet(-5) // degenerate target clamps to something positive
	if ts.N() < 1 {
		t.Fatal("empty set")
	}
}

// TestGraphAlwaysSingleSource uses testing/quick over seeds: the paper's
// generator always emits single-source DAGs (so Algorithm 1 is exact on
// this population — a property the dag package relies on in tests).
func TestGraphAlwaysSingleSource(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed, PaperParams(GroupParallel))
		for i := 0; i < 20; i++ {
			gr, sources := g.Graph(), 0
			for v := range gr.N() {
				if len(gr.Predecessors(v)) == 0 {
					sources++
				}
			}
			if sources != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeWide(t *testing.T) {
	p := PaperParams(GroupParallel)
	p.Shape = ShapeWide
	g := New(11, p)
	for i := 0; i < 200; i++ {
		gr := g.Graph()
		if gr.N() > p.DAG.MaxNodes {
			t.Fatalf("wide graph exceeds node cap: %d", gr.N())
		}
		if w := gr.Width(); w < p.DAG.NPar {
			t.Fatalf("wide graph width %d below NPar %d", w, p.DAG.NPar)
		}
		if got := pathNodes(gr); got != 3 {
			t.Fatalf("wide graph's longest path has %d nodes, want 3", got)
		}
	}
}

func TestShapeDeep(t *testing.T) {
	p := PaperParams(GroupMixed)
	p.DAG.MaxPathLen = 12
	p.DAG.MaxNodes = 40
	p.Shape = ShapeDeep
	g := New(12, p)
	sawDiamond := false
	for i := 0; i < 200; i++ {
		gr := g.Graph()
		if w := gr.Width(); w > 2 {
			t.Fatalf("deep graph width %d > 2", w)
		}
		if gr.N() > p.DAG.MaxNodes {
			t.Fatalf("deep graph exceeds node cap: %d", gr.N())
		}
		if got := pathNodes(gr); got > p.DAG.MaxPathLen {
			t.Fatalf("deep graph path of %d nodes > cap %d", got, p.DAG.MaxPathLen)
		} else if got < 3 {
			t.Fatalf("deep graph too shallow: %d path nodes", got)
		}
		if gr.Width() == 2 {
			sawDiamond = true
		}
	}
	if !sawDiamond {
		t.Error("deep family never widened into a diamond")
	}
}

func TestShapeOpenMP(t *testing.T) {
	p := PaperParams(GroupParallel)
	p.Shape = ShapeOpenMP
	p.DAG.MaxNodes = 38   // fits up to K=8 blocks (8 + 28 nodes)
	p.DAG.MaxPathLen = 15 // 2·8 − 1
	g := New(13, p)
	sawWide := false
	for i := 0; i < 200; i++ {
		gr := g.Graph()
		if gr.N() > p.DAG.MaxNodes {
			t.Fatalf("openmp graph exceeds node cap: %d", gr.N())
		}
		longest := pathNodes(gr)
		if longest > p.DAG.MaxPathLen {
			t.Fatalf("openmp path of %d nodes > cap %d", longest, p.DAG.MaxPathLen)
		}
		// A K-block wavefront has K + K(K−1)/2 nodes whose longest
		// path threads every diagonal: 2K−1 nodes.
		var k int
		for k = 2; k+k*(k-1)/2 < gr.N(); k++ {
		}
		if gr.N() != k+k*(k-1)/2 {
			t.Fatalf("openmp node count %d is no wavefront", gr.N())
		}
		if longest != 2*k-1 {
			t.Fatalf("K=%d wavefront has longest path of %d nodes, want %d", k, longest, 2*k-1)
		}
		// The first diagonal fans out to K−1 panels: width K−1 (≥ the
		// wavefront's widest antichain of panels).
		if k >= 4 && gr.Width() >= 3 {
			sawWide = true
		}
	}
	if !sawWide {
		t.Error("openmp family never drew a wide wavefront")
	}
}

func TestShapeOpenMPTinyBudget(t *testing.T) {
	p := PaperParams(GroupMixed)
	p.Shape = ShapeOpenMP
	p.DAG.MaxNodes = 1   // clamped to 3
	p.DAG.MaxPathLen = 1 // clamped to 3
	g := New(16, p)
	for i := 0; i < 100; i++ {
		gr := g.Graph()
		if gr.N() != 3 {
			t.Fatalf("tiny openmp wavefront has %d nodes, want 3", gr.N())
		}
	}
}

func TestShapeWideTinyNodeBudget(t *testing.T) {
	p := PaperParams(GroupParallel)
	p.Shape = ShapeWide
	p.DAG.MaxNodes = 3 // below the 4-node fork-join minimum: clamped to 4
	g := New(15, p)
	for i := 0; i < 100; i++ {
		gr := g.Graph()
		if gr.N() > 4 {
			t.Fatalf("wide graph has %d nodes under a tiny budget (clamp to 4 failed)", gr.N())
		}
		if gr.Width() < 2 {
			t.Fatalf("wide graph degenerated to width %d", gr.Width())
		}
	}
}

func TestShapeString(t *testing.T) {
	if ShapeAuto.String() != "auto" || ShapeWide.String() != "wide" || ShapeDeep.String() != "deep" ||
		ShapeOpenMP.String() != "openmp" {
		t.Error("shape strings wrong")
	}
	if Shape(9).String() == "" {
		t.Error("unknown shape must render")
	}
}

func TestUMaxBoundsUtilization(t *testing.T) {
	p := PaperParams(GroupMixed)
	p.Beta = 0.05
	p.UMax = 0.3
	g := New(13, p)
	for i := 0; i < 200; i++ {
		task := g.Task()
		// Integer-period rounding and the T ≥ L clamp can push the
		// realised utilization slightly past the draw.
		if u := task.Utilization(); u > 0.35 {
			t.Fatalf("light-mix task utilization %.3f exceeds UMax 0.3", u)
		}
	}
	// Out-of-range UMax falls back to the paper's [β, 1].
	q := PaperParams(GroupMixed)
	q.UMax = 7
	heavyish := New(14, q)
	sawAboveHalf := false
	for i := 0; i < 100; i++ {
		if heavyish.Task().Utilization() > 0.6 {
			sawAboveHalf = true
		}
	}
	if !sawAboveHalf {
		t.Error("UMax fallback to 1 not effective")
	}
}

func TestGroupString(t *testing.T) {
	if GroupMixed.String() != "mixed" || GroupParallel.String() != "parallel" {
		t.Error("group strings wrong")
	}
	if Group(9).String() == "" {
		t.Error("unknown group must render")
	}
}
