package clique_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/clique"
	"repro/internal/gen"
	"repro/internal/ppp"
)

// TestOneTwinRoundLeavesNoTwins checks setup's claim that one round of
// twin reduction reaches the fixed point: no two vertices of the reduced
// problem share a compatibility set, on random relations whose twin
// classes nest and on node-split task graphs.
func TestOneTwinRoundLeavesNoTwins(t *testing.T) {
	check := func(what string, w []int64, adj []*bitset.Set) {
		t.Helper()
		red := clique.ReducedAdjacency(w, adj)
		for a := range red {
			for b := a + 1; b < len(red); b++ {
				if red[a].Equal(red[b]) {
					t.Fatalf("%s: reduced vertices %d and %d of %d are still twins", what, a, b, len(red))
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		// Each vertex copies the class of an earlier one half the time;
		// a class pair is compatible in every copy or in none.
		n := 1 + rng.Intn(40)
		w, class := make([]int64, n), make([]int, n)
		adj := make([]*bitset.Set, n)
		for v := range w {
			w[v], class[v], adj[v] = 1+rng.Int63n(5), v, bitset.New(n)
			if v > 0 && rng.Intn(2) == 0 {
				class[v] = class[rng.Intn(v)]
			}
		}
		compatible := make(map[[2]int]bool)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				a, b := min(class[u], class[v]), max(class[u], class[v])
				if a == b {
					continue
				}
				c, ok := compatible[[2]int{a, b}]
				if !ok {
					c = rng.Intn(3) > 0
					compatible[[2]int{a, b}] = c
				}
				if c {
					adj[u].Add(v)
					adj[v].Add(u)
				}
			}
		}
		check("random relation", w, adj)
	}

	for seed := int64(0); seed < 40; seed++ {
		for _, group := range []gen.Group{gen.GroupMixed, gen.GroupParallel} {
			g := gen.New(seed, gen.PaperParams(group)).Graph()
			for _, q := range []int64{1, 2, 5, 20} {
				s := ppp.SplitNodes(g, q)
				check("split graph", s.WCETs(), s.Parallel())
			}
		}
	}
}
