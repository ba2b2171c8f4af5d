package blocking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

// randomGraph builds a random DAG: 1..maxNodes nodes, WCETs 1..20, each
// forward pair (i,j) an edge with probability p.
func randomGraph(rng *rand.Rand, maxNodes int, p float64) *dag.Graph {
	n := 1 + rng.Intn(maxNodes)
	var b dag.Builder
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(20))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

// push feeds g to agg the way the analyzer does: its top-NPR list for
// LP-max, its µ table for m cores for LP-ILP.
func push(agg *SuffixAggregator, g *dag.Graph, m int, method Method, be Backend) {
	if method == LPMax {
		agg.PushTops(g.SortedWCETs())
	} else {
		agg.PushMu(Mu(g, m, be))
	}
}

// suffixesViaAggregator pushes graphs from the back and records the
// aggregate after each push, i.e. the interference of every suffix.
func suffixesViaAggregator(graphs []*dag.Graph, m int, method Method, be Backend) []Interference {
	agg := NewSuffixAggregator(m, method, be)
	out := make([]Interference, len(graphs)+1)
	out[len(graphs)] = agg.Interference() // empty suffix
	for k := len(graphs) - 1; k >= 0; k-- {
		push(agg, graphs[k], m, method, be)
		out[k] = agg.Interference()
	}
	return out
}

// TestSuffixAggregatorEquivalence quick-checks that the one-pass
// suffix-incremental aggregation matches the independent per-suffix
// Compute for every suffix of random graph lists, for both methods and
// both backends. The LP-max row reaches m = 64 (engine.MaxCores) and
// graphs of up to 40 nodes, so lists both shorter and longer than m
// occur; its oracle is DeltaMax's independent sort-and-sum.
func TestSuffixAggregatorEquivalence(t *testing.T) {
	check := func(seed int64, method Method, be Backend, maxM, maxGraphs, maxNodes int) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(maxM)
		graphs := make([]*dag.Graph, rng.Intn(maxGraphs+1))
		for i := range graphs {
			graphs[i] = randomGraph(rng, maxNodes, 0.3)
		}
		got := suffixesViaAggregator(graphs, m, method, be)
		for k := 0; k <= len(graphs); k++ {
			want := Compute(graphs[k:], m, method, be)
			if got[k] != want {
				t.Logf("seed=%d method=%v be=%v m=%d suffix=%d: got %+v want %+v",
					seed, method, be, m, k, got[k], want)
				return false
			}
		}
		return true
	}

	cfg := &quick.Config{MaxCount: 60}
	for _, tc := range []struct {
		name                    string
		method                  Method
		be                      Backend
		maxM, maxList, maxNodes int
	}{
		{"lpmax-combinatorial", LPMax, Combinatorial, 64, 8, 40},
		{"lpilp-combinatorial", LPILP, Combinatorial, 8, 6, 8},
		// The paper's partition-sweep backend is slow; keep it small. It
		// pins that the aggregator's DP aggregation equals the printed
		// scenario enumeration even when µ comes from the ILP encoding.
		{"lpilp-paper-ilp", LPILP, PaperILP, 4, 4, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(func(seed int64) bool {
				return check(seed, tc.method, tc.be, tc.maxM, tc.maxList, tc.maxNodes)
			}, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSuffixAggregatorReset pins that Reset fully clears state: an
// aggregator reused across parameter changes matches a fresh one.
func TestSuffixAggregatorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := make([]*dag.Graph, 5)
	for i := range graphs {
		graphs[i] = randomGraph(rng, 8, 0.3)
	}
	agg := NewSuffixAggregator(16, LPMax, Combinatorial)
	for _, g := range graphs {
		push(agg, g, 16, LPMax, Combinatorial)
	}
	for _, method := range []Method{LPMax, LPILP} {
		for m := 1; m <= 6; m++ {
			agg.Reset(m)
			for _, g := range graphs {
				push(agg, g, m, method, Combinatorial)
			}
			if got, want := agg.Interference(), Compute(graphs, m, method, Combinatorial); got != want {
				t.Errorf("reused aggregator m=%d method=%v: got %+v want %+v", m, method, got, want)
			}
		}
	}
}
