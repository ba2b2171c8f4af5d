package fixture

import (
	"testing"
)

func TestShapes(t *testing.T) {
	cases := []struct {
		name         string
		n, edges     int
		vol, longest int64
	}{
		{"tau1", 8, 10, 14, 8},
		{"tau2", 4, 4, 10, 7},
		{"tau3", 5, 4, 17, 10},
		{"tau4", 5, 4, 18, 11},
	}
	graphs := LowerPriorityGraphs()
	widths := []int{4, 2, 4, 3}
	for i, tc := range cases {
		g := graphs[i]
		if g.N() != tc.n {
			t.Errorf("%s: N = %d, want %d", tc.name, g.N(), tc.n)
		}
		if g.NumEdges() != tc.edges {
			t.Errorf("%s: edges = %d, want %d", tc.name, g.NumEdges(), tc.edges)
		}
		if g.Volume() != tc.vol {
			t.Errorf("%s: vol = %d, want %d", tc.name, g.Volume(), tc.vol)
		}
		if g.LongestPath() != tc.longest {
			t.Errorf("%s: L = %d, want %d", tc.name, g.LongestPath(), tc.longest)
		}
		if got := g.Width(); got != widths[i] {
			t.Errorf("%s: width = %d, want %d", tc.name, got, widths[i])
		}
	}
}

// TestTau4Structure pins the specific structural facts the paper states
// about τ4: v4,1 and v4,4 cannot execute in parallel, and the maximum
// parallelism is 3 (µ4[4] = 0).
func TestTau4Structure(t *testing.T) {
	g := Tau4()
	par := g.Parallel()
	if par[0].Contains(3) {
		t.Error("v4,1 must not be parallel with v4,4")
	}
	if !par[3].Contains(2) || !par[3].Contains(4) {
		t.Error("v4,4 must be parallel with v4,3 and v4,5")
	}
}

// TestTau2Parallelism pins τ2's maximum parallelism of 2 (µ2[3] = µ2[4] = 0
// in Table I).
func TestTau2Parallelism(t *testing.T) {
	if got := Tau2().Width(); got != 2 {
		t.Errorf("tau2 width = %d, want 2", got)
	}
}

func TestTaskSetValid(t *testing.T) {
	ts := TaskSet()
	if err := ts.Validate(); err != nil {
		t.Fatalf("fixture task set invalid: %v", err)
	}
	if ts.N() != 5 {
		t.Fatalf("N = %d, want 5", ts.N())
	}
	if ts.Tasks[0].Name != "tauK" {
		t.Errorf("highest-priority task = %q", ts.Tasks[0].Name)
	}
	for _, task := range ts.Tasks {
		if l := task.G.LongestPath(); l > task.Deadline {
			t.Errorf("task %q infeasible: L %d > D %d", task.Name, l, task.Deadline)
		}
	}
}

func TestReferenceConstants(t *testing.T) {
	// Sanity on the hand-derived LP-max values: Δ⁴ = sum of the four
	// largest NPRs among all tasks = 6+5+5+4; Δ³ = 6+5+5.
	if DeltaMax4 != 20 || DeltaMax3 != 16 || DeltaILP4 != 19 || DeltaILP3 != 15 {
		t.Fatal("reference constants drifted from the paper")
	}
	tbl := TableI()
	if tbl[1][2] != 0 || tbl[1][3] != 0 || tbl[3][3] != 0 {
		t.Error("Table I zero entries (µ2[3], µ2[4], µ4[4]) drifted")
	}
}
