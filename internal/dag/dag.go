// Package dag implements the directed-acyclic-graph machinery underlying
// the limited-preemption response-time analysis of Serrano et al.
// (DATE 2016).
//
// A Graph models one sporadic DAG task: nodes are non-preemptive regions
// (NPRs, "task parts" in OpenMP nomenclature) labelled with their WCET,
// and edges are precedence constraints. The package provides the
// structural quantities the analysis needs — longest path L, volume
// vol(G), topological order, transitive successor/predecessor sets,
// sibling sets — together with the two ways of deriving, for every node,
// the set of nodes that may execute in parallel with it:
//
//   - Parallel: the exact definition (two nodes are parallel iff neither
//     is reachable from the other), which is what the analysis must use to
//     stay sound on arbitrary DAGs; and
//   - Algorithm1Parallel: a verbatim implementation of Algorithm 1 of the
//     paper, which matches Parallel on every single-source DAG (the only
//     kind the paper's generator emits) but under-approximates on DAGs
//     with several sources. Tests pin both behaviours.
package dag

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Graph is an immutable directed acyclic graph of non-preemptive regions.
// Build one with a Builder. Node indices run from 0 to N()-1; in the
// paper's notation node v_{i,j} of task τ_i is index j-1.
//
// Because a Graph never changes after Build, every derived quantity is
// a pure function of it and is memoized: the cheap O(V+E) scalars
// (volume, longest path) are computed once at Build time, the heavier
// structures (sorted WCETs, reachability and parallelism bitsets, the
// content fingerprint, the µ tables of LoadMu/StoreMu) lazily on first
// use, concurrency-safely. The memos live and die with the Graph, so
// analyses that revisit a graph — every fixed-point iteration, every
// suffix of a priority ordering, every method of a comparison sweep —
// pay for each quantity once.
type Graph struct {
	wcet  []int64
	succ  [][]int  // direct successors, each sorted ascending
	pred  [][]int  // direct predecessors, each sorted ascending
	topo  []int    // one fixed topological order
	names []string // display names; nil when no node has one

	volume  int64 // Σ wcet, fixed at Build
	longest int64 // longest-path length L, fixed at Build

	sortedOnce sync.Once
	sorted     []int64 // WCETs, non-increasing

	reachOnce sync.Once
	reach     []*bitset.Set // SUCC(v) per node

	parOnce sync.Once
	par     []*bitset.Set // Par(v) per node (exact definition)

	parMatOnce sync.Once
	parMat     [][]bool // IsPar matrix over par

	fpOnce sync.Once
	fp     string // sha256 over canonical content

	muLock   sync.Mutex
	muTables [2][]int64 // longest µ table per solver backend (LoadMu)
}

// Builder accumulates nodes and edges and validates them into a Graph.
// The zero value is ready to use.
type Builder struct {
	wcet  []int64
	names []string // up to the last named node only
	edges [][2]int
}

// AddNode appends a node with the given worst-case execution time and
// returns its index. WCETs must be positive; Build reports violations.
func (b *Builder) AddNode(wcet int64) int {
	b.wcet = append(b.wcet, wcet)
	return len(b.wcet) - 1
}

// AddNamedNode appends a node with an explicit display name.
func (b *Builder) AddNamedNode(name string, wcet int64) int {
	i := b.AddNode(wcet)
	for len(b.names) < i {
		b.names = append(b.names, "")
	}
	b.names = append(b.names, name)
	return i
}

// AddEdge records a precedence constraint from node u to node v.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int{u, v})
}

// Reset empties the builder, keeping its memory for the next graph
// (Build copies what it keeps).
func (b *Builder) Reset() {
	b.wcet, b.names, b.edges = b.wcet[:0], b.names[:0], b.edges[:0]
}

// Build validates the accumulated nodes and edges and returns the Graph.
// It reports an error if the builder is empty, a WCET is non-positive, an
// edge endpoint is out of range, an edge is duplicated or a self-loop, or
// the edge set contains a cycle.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.wcet)
	if n == 0 {
		return nil, fmt.Errorf("dag: graph must have at least one node")
	}
	for i, c := range b.wcet {
		if c <= 0 {
			return nil, fmt.Errorf("dag: node %d has non-positive WCET %d", i, c)
		}
	}
	// deg[u] counts u's successors, deg[n+v] v's predecessors. Once the
	// adjacency lists are carved, the topological sort consumes the
	// in-degree half and keeps its heap of ready nodes in the other.
	deg := make([]int, 2*n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, b.edgeError()
		}
		deg[u]++
		deg[n+v]++
	}
	// Both adjacency lists live in one slab, each node owning a
	// capacity-capped window of it; nodes without neighbours keep nil.
	lists := make([][]int, 2*n)
	slab := make([]int, 2*len(b.edges))
	for i, d := range deg {
		if d > 0 {
			lists[i], slab = slab[:0:d], slab[d:]
		}
	}
	succ, pred := lists[:n:n], lists[n:]
	for _, e := range b.edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	for u, s := range succ {
		sort.Ints(s)
		for i, v := range s {
			if i > 0 && s[i-1] == v {
				return nil, b.edgeError()
			}
			pred[v] = append(pred[v], u) // ascending, as u is
		}
	}
	g := &Graph{wcet: append([]int64(nil), b.wcet...), succ: succ, pred: pred}
	if len(b.names) > 0 {
		g.names = make([]string, n)
		copy(g.names, b.names)
	}
	topo, err := g.computeTopo(deg[n:], deg[:0:n])
	if err != nil {
		return nil, err
	}
	g.topo = topo
	for _, c := range g.wcet {
		g.volume += c
	}
	g.longest = g.computeLongestPath()
	return g, nil
}

// MustBuild is Build that panics on error, for fixtures and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// edgeError returns the error of the first bad edge in input order: out
// of range, a self-loop or a repeat of an earlier edge. Build calls it
// only once it has found some bad edge, so valid graphs never pay for
// its map, and the error a bad edge list gets does not depend on which
// check found it.
func (b *Builder) edgeError() error {
	n := len(b.wcet)
	seen := make(map[[2]int]bool, len(b.edges))
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return fmt.Errorf("dag: self-loop on node %d", u)
		}
		if seen[e] {
			return fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
		}
		seen[e] = true
	}
	panic("dag: edgeError on a valid edge list")
}

// computeTopo returns a deterministic topological order (Kahn's algorithm
// with smallest-index tie-breaking) or an error if the graph is cyclic.
// indeg holds the in-degree of every node and is consumed; heap, of
// capacity n, holds the binary min-heap of ready nodes, so the sort
// takes O((V+E) log V).
func (g *Graph) computeTopo(indeg, heap []int) ([]int, error) {
	for v, d := range indeg {
		if d == 0 {
			heap = append(heap, v) // ascending, so already a heap
		}
	}
	order := make([]int, 0, g.N())
	for len(heap) > 0 {
		v, last := heap[0], len(heap)-1
		heap[0] = heap[last]
		heap = heap[:last]
		siftDown(heap)
		order = append(order, v)
		for _, w := range g.succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				heap = append(heap, w)
				siftUp(heap)
			}
		}
	}
	if len(order) < g.N() {
		return nil, fmt.Errorf("dag: cycle detected")
	}
	return order, nil
}

// siftUp restores the min-heap order of h after an append.
func siftUp(h []int) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap order of h after its root was replaced.
func siftDown(h []int) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// N returns the number of nodes (NPRs). In the paper's notation this is
// q_k + 1.
func (g *Graph) N() int { return len(g.wcet) }

// PreemptionPoints returns q_k = |V_k| - 1, the number of potential
// preemption points of the task.
func (g *Graph) PreemptionPoints() int { return g.N() - 1 }

// WCET returns the worst-case execution time C of node v.
func (g *Graph) WCET(v int) int64 { return g.wcet[v] }

// WCETs returns a copy of all node WCETs indexed by node.
func (g *Graph) WCETs() []int64 { return append([]int64(nil), g.wcet...) }

// Name returns the display name of node v, or "v<i+1>" if none was set
// (mirroring the paper's v_{i,j} labels, which are 1-based).
func (g *Graph) Name(v int) string {
	if v < len(g.names) && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v+1)
}

// Successors returns the direct successors of v in ascending order. The
// returned slice is shared; callers must not modify it.
func (g *Graph) Successors(v int) []int { return g.succ[v] }

// Predecessors returns the direct predecessors of v in ascending order.
// The returned slice is shared; callers must not modify it.
func (g *Graph) Predecessors(v int) []int { return g.pred[v] }

// HasEdge reports whether the direct edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	s := g.succ[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Edges returns all direct edges in deterministic (source, target) order.
func (g *Graph) Edges() [][2]int {
	out := slices.Grow([][2]int(nil), g.NumEdges()) // one allocation; nil when edgeless
	for u := 0; u < g.N(); u++ {
		for _, v := range g.succ[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// NumEdges returns the number of direct edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// TopologicalOrder returns a topological order of the nodes. The returned
// slice is shared; callers must not modify it.
func (g *Graph) TopologicalOrder() []int { return g.topo }

// Sources returns the nodes with no predecessors, ascending.
func (g *Graph) Sources() []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the nodes with no successors, ascending.
func (g *Graph) Sinks() []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Volume returns vol(G): the sum of all node WCETs, i.e. the WCET of the
// task on a dedicated single core. Memoized at Build time; O(1).
func (g *Graph) Volume() int64 { return g.volume }

// LongestPath returns L: the maximum, over all paths, of the summed node
// WCETs — the minimum time the task needs on infinitely many cores.
// Memoized at Build time; O(1).
func (g *Graph) LongestPath() int64 { return g.longest }

// computeLongestPath is the Build-time longest-path DP.
func (g *Graph) computeLongestPath() int64 {
	best := make([]int64, g.N())
	var l int64
	for _, v := range g.topo {
		best[v] = g.wcet[v]
		for _, u := range g.pred[v] {
			if best[u]+g.wcet[v] > best[v] {
				best[v] = best[u] + g.wcet[v]
			}
		}
		if best[v] > l {
			l = best[v]
		}
	}
	return l
}

// CriticalPath returns one longest path as a node sequence from a source
// to a sink, deterministically (smallest-index tie-break).
func (g *Graph) CriticalPath() []int {
	n := g.N()
	best := make([]int64, n)
	from := make([]int, n)
	for i := range from {
		from[i] = -1
	}
	end, endLen := -1, int64(-1)
	for _, v := range g.topo {
		best[v] = g.wcet[v]
		for _, u := range g.pred[v] {
			if best[u]+g.wcet[v] > best[v] {
				best[v] = best[u] + g.wcet[v]
				from[v] = u
			}
		}
		if best[v] > endLen {
			endLen = best[v]
			end = v
		}
	}
	var rev []int
	for v := end; v != -1; v = from[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reach returns, for every node v, the set SUCC(v) of nodes reachable
// from v by one or more edges (v itself excluded). The result is
// memoized on the graph and shared; callers must not modify the sets.
func (g *Graph) Reach() []*bitset.Set {
	g.reachOnce.Do(func() {
		n := g.N()
		out := bitset.Slab(n, n)
		// Reverse topological order: successors' reach is complete first.
		for i := n - 1; i >= 0; i-- {
			v := g.topo[i]
			for _, w := range g.succ[v] {
				out[v].Add(w)
				out[v].UnionWith(out[w])
			}
		}
		g.reach = out
	})
	return g.reach
}

// CoReach returns, for every node v, the set PRED(v) of nodes from which
// v is reachable (v itself excluded). Unlike Reach it is not memoized:
// every call builds a fresh slab, which the caller owns and may modify.
func (g *Graph) CoReach() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for _, v := range g.topo {
		for _, u := range g.pred[v] {
			out[v].Add(u)
			out[v].UnionWith(out[u])
		}
	}
	return out
}

// Siblings returns, for every node v, the set SIBLING(v) of nodes (other
// than v) that share at least one direct predecessor with v. This is one
// of the three inputs of Algorithm 1.
func (g *Graph) Siblings() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for u := 0; u < n; u++ {
		children := g.succ[u]
		for _, a := range children {
			for _, b := range children {
				if a != b {
					out[a].Add(b)
				}
			}
		}
	}
	return out
}

// Parallel returns, for every node v, the exact set Par(v) of nodes that
// can execute in parallel with v: the nodes u ≠ v such that u is not
// reachable from v and v is not reachable from u. This is the definition
// the blocking analysis relies on; it is sound for arbitrary DAGs. The
// result is memoized on the graph and shared; callers must not modify
// the sets.
//
// Par(v) is the complement of PRED(v) ∪ {v} ∪ SUCC(v), so it costs a
// few word operations per node on top of Reach and CoReach, whose fresh
// slab it takes over.
func (g *Graph) Parallel() []*bitset.Set {
	g.parOnce.Do(func() {
		succ := g.Reach()
		par := g.CoReach()
		for v, s := range par {
			s.UnionWith(succ[v])
			s.Add(v)
			s.Complement()
		}
		g.par = par
	})
	return g.par
}

// Algorithm1Parallel is a verbatim implementation of Algorithm 1 of
// Serrano et al. (DATE 2016): it derives Par(v) from the SIBLING, SUCC
// and PRED sets in two passes, the second in topological order.
//
// On single-source DAGs — the only shape the paper's generator produces —
// the result equals Parallel. On multi-source DAGs Algorithm 1 misses
// pairs whose only "common ancestor" would be a virtual root (e.g. two
// disconnected chains), so the exact Parallel must be preferred for
// soundness; the discrepancy is documented and tested.
func (g *Graph) Algorithm1Parallel() []*bitset.Set {
	n := g.N()
	succ := g.Reach()
	pred := g.CoReach()
	sib := g.Siblings()
	par := bitset.Slab(n, n)
	// First loop (lines 2-10): unconnected siblings and their successors.
	for vj := 0; vj < n; vj++ {
		sib[vj].ForEach(func(vl int) bool {
			if !succ[vj].Contains(vl) && !succ[vl].Contains(vj) {
				// Succ ← SUCC(v_l) \ SUCC(v_j); Par(v_j) ∪= {v_l} ∪ Succ.
				s := succ[vl].Clone()
				s.DifferenceWith(succ[vj])
				par[vj].Add(vl)
				par[vj].UnionWith(s)
			}
			return true
		})
	}
	// Second loop (lines 11-16): inherit from predecessors in topological
	// order, discarding own ancestors.
	for _, vj := range g.topo {
		for _, vl := range g.pred[vj] {
			p := par[vl].Clone()
			p.DifferenceWith(pred[vj])
			par[vj].UnionWith(p)
		}
	}
	// A node is never parallel with itself or with anything the first
	// loop accidentally added that is ordered with it. The verbatim
	// algorithm can momentarily include ancestors through the sibling
	// successor union; scrub exactly as the paper's set algebra implies.
	for v := 0; v < n; v++ {
		par[v].Remove(v)
	}
	return par
}

// IsParallelMatrix returns the symmetric boolean matrix IsPar of the
// paper's first ILP: IsPar[j][k] is true iff nodes j and k can execute in
// parallel (exact reachability definition). The result is memoized on
// the graph and shared; callers must not modify it.
func (g *Graph) IsParallelMatrix() [][]bool {
	g.parMatOnce.Do(func() {
		n := g.N()
		par := g.Parallel()
		m := make([][]bool, n)
		for j := 0; j < n; j++ {
			m[j] = make([]bool, n)
			par[j].ForEach(func(k int) bool {
				m[j][k] = true
				return true
			})
		}
		g.parMat = m
	})
	return g.parMat
}

// Width returns the maximum number of nodes that can execute in parallel:
// the maximum antichain of the precedence partial order. By Dilworth's
// theorem this equals n minus the maximum matching of the bipartite graph
// over the transitive closure.
func (g *Graph) Width() int {
	_, _, size := g.closureMatching()
	return g.N() - size
}

// MaxAntichain returns one maximum antichain (a largest set of mutually
// parallel nodes), ascending. Its length equals Width. It is derived from
// the minimum chain cover via the König construction.
func (g *Graph) MaxAntichain() []int {
	n := g.N()
	reach := g.Reach()
	matchL, matchR, _ := g.closureMatching()
	// König: minimum vertex cover from unmatched-left alternating
	// reachability; antichain = nodes not in the cover, mapped back.
	visitedL := make([]bool, n)
	visitedR := make([]bool, n)
	var alt func(u int)
	alt = func(u int) {
		visitedL[u] = true
		reach[u].ForEach(func(v int) bool {
			if !visitedR[v] {
				visitedR[v] = true
				if matchR[v] != -1 && !visitedL[matchR[v]] {
					alt(matchR[v])
				}
			}
			return true
		})
	}
	for u := 0; u < n; u++ {
		if matchL[u] == -1 {
			alt(u)
		}
	}
	// Cover = (left not visited) ∪ (right visited). A node i is in the
	// antichain iff left-i not in cover and right-i not in cover.
	var out []int
	for i := 0; i < n; i++ {
		leftInCover := !visitedL[i]
		rightInCover := visitedR[i]
		if !leftInCover && !rightInCover {
			out = append(out, i)
		}
	}
	return out
}

// closureMatching computes a maximum matching of the bipartite graph over
// the transitive closure — left copy u to right copy v iff u precedes v —
// with Kuhn's augmenting paths (n is small in this domain). It returns
// each left node's partner, each right node's partner (-1 = unmatched),
// and the matching size.
func (g *Graph) closureMatching() (matchL, matchR []int, size int) {
	n := g.N()
	reach := g.Reach()
	matchL = make([]int, n)
	matchR = make([]int, n)
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	seen := make([]bool, n)
	var try func(u int) bool
	try = func(u int) bool {
		found := false
		reach[u].ForEach(func(v int) bool {
			if seen[v] {
				return true
			}
			seen[v] = true
			if matchR[v] == -1 || try(matchR[v]) {
				matchL[u] = v
				matchR[v] = u
				found = true
				return false
			}
			return true
		})
		return found
	}
	for u := 0; u < n; u++ {
		clear(seen)
		if try(u) {
			size++
		}
	}
	return matchL, matchR, size
}

// SortedWCETs returns the node WCETs in non-increasing order — the
// top-NPR list of the Equation (5) blocking bound. The result is
// memoized on the graph and shared; callers must not modify it.
func (g *Graph) SortedWCETs() []int64 {
	g.sortedOnce.Do(func() {
		c := g.WCETs()
		slices.Sort(c)
		slices.Reverse(c)
		g.sorted = c
	})
	return g.sorted
}

// Fingerprint returns a collision-resistant content digest of the graph:
// the SHA-256 of its canonical form (node count, node WCETs, and the
// deterministic edge list; display names are excluded because they never
// affect analysis). Structurally identical graphs — however and wherever
// they were built — share one fingerprint, which makes it the O(1)
// content-addressing key of the analysis cache. Memoized on the graph.
func (g *Graph) Fingerprint() string {
	g.fpOnce.Do(func() {
		buf := make([]byte, 0, 16*g.N())
		buf = strconv.AppendInt(buf, int64(g.N()), 10)
		buf = append(buf, ';')
		for _, c := range g.wcet {
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ';')
		for u := 0; u < g.N(); u++ {
			for _, v := range g.succ[u] {
				buf = strconv.AppendInt(buf, int64(u), 10)
				buf = append(buf, '>')
				buf = strconv.AppendInt(buf, int64(v), 10)
				buf = append(buf, ',')
			}
		}
		sum := sha256.Sum256(buf)
		g.fp = string(sum[:])
	})
	return g.fp
}

// LoadMu returns the µ table memoized on g in the given slot (one per µ
// solver backend, 0 or 1), cut to its first m entries, or nil when the
// slot holds fewer than m. µ[c] does not depend on the core count beyond
// the table's length, so one table serves every m up to its own. The
// result is a capacity-capped view of the memo; callers must not modify
// it.
//
// LoadMu and StoreMu are package-level functions, not methods, so that
// the public Graph alias exposes no way to plant tables the analysis
// would trust; internal/blocking is their one caller.
func LoadMu(g *Graph, slot, m int) []int64 {
	g.muLock.Lock()
	mu := g.muTables[slot]
	g.muLock.Unlock()
	if len(mu) < m {
		return nil
	}
	return mu[:m:m]
}

// StoreMu memoizes the µ table mu, solved for g, in the given slot,
// unless the slot already holds a table at least as long.
func StoreMu(g *Graph, slot int, mu []int64) {
	g.muLock.Lock()
	if len(mu) > len(g.muTables[slot]) {
		g.muTables[slot] = mu
	}
	g.muLock.Unlock()
}

// MaxWCET returns the largest node WCET — the longest NPR of the task.
func (g *Graph) MaxWCET() int64 {
	var m int64
	for _, c := range g.wcet {
		if c > m {
			m = c
		}
	}
	return m
}

// DOT renders the graph in Graphviz DOT syntax, labelling each node with
// its name and WCET, for the examples and command-line tools.
func (g *Graph) DOT(graphName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", graphName)
	b.WriteString("  rankdir=TB;\n  node [shape=ellipse];\n")
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "  n%d [label=\"%s (%d)\"];\n", v, g.Name(v), g.wcet[v])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// Clone returns a deep copy of the graph. The Build-time scalars carry
// over; the lazy memos, µ tables included, start empty on the copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		wcet:    append([]int64(nil), g.wcet...),
		succ:    make([][]int, g.N()),
		pred:    make([][]int, g.N()),
		topo:    append([]int(nil), g.topo...),
		names:   append([]string(nil), g.names...),
		volume:  g.volume,
		longest: g.longest,
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}
