package dag

import "testing"

// FuzzBuilder drives the builder with an arbitrary byte script and
// checks it against the oracles: Build must give refBuild's verdict,
// error text, adjacency and topological order, and a graph's Par sets
// must equal the per-pair definition. Graphs reach 130 nodes, so the
// sets span up to three words. They are built into one arena, reset
// per input, and a valid one must equal a fresh build, memos included.
func FuzzBuilder(f *testing.F) {
	var a Arena
	f.Add([]byte{3, 8, 9, 9, 10})
	f.Add([]byte{1})
	f.Add([]byte{5, 8, 9, 9, 10, 10, 11, 11, 12, 8, 12})
	f.Add([]byte{64, 8, 72, 8, 71, 71, 72, 9, 10})
	f.Add([]byte{128, 8, 136, 136, 72, 72, 9, 9, 130, 70, 8})
	f.Add([]byte{128, 8, 136, 136, 72, 8, 136, 72, 153})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		n := int(script[0])%130 + 1
		wcet := make([]int64, n)
		for i := range wcet {
			wcet[i] = int64(i%7) + 1
		}
		var edges [][2]int
		rest := script[1:]
		for i := 0; i+1 < len(rest); i += 2 {
			// Deliberately unfiltered: endpoints run from -8 to n+7, so
			// scripts hold self-loops, cycles, duplicates and
			// out-of-range endpoints — Build must catch every such case
			// instead of panicking.
			edges = append(edges, [2]int{int(rest[i])%(n+16) - 8, int(rest[i+1])%(n+16) - 8})
		}
		a.Reset()
		g, err := buildVsRef(t, &a, wcet, edges)
		if err != nil {
			return
		}
		fresh, _ := buildVsRef(t, nil, wcet, edges)
		checkSameGraph(t, g, fresh)
		StoreMu(g, []int64{1})
		if l, vol := g.LongestPath(), g.Volume(); l > vol || l < g.MaxWCET() {
			t.Fatalf("L=%d outside [maxC=%d, vol=%d]", l, g.MaxWCET(), vol)
		}
		par, want := g.Parallel(), parallelByPairs(g)
		for v := range want {
			if !par[v].Equal(want[v]) {
				t.Fatalf("edges %v: Par(%d) = %v, want %v", edges, v, par[v], want[v])
			}
		}
	})
}
