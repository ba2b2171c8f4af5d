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
//
// A Graph keeps its structure in one pointer-free slab (compressed-row
// adjacency in both directions plus the topological order): an unnamed
// graph is three allocations, and only its header holds pointers. Built
// into an Arena, it takes its header and slab from a graph of the
// arena's last round instead, and allocates nothing once warm.
package dag

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Graph is an immutable directed acyclic graph of non-preemptive regions.
// Build one with a Builder, or derive one from another with Split.
// Node indices run from 0 to N()-1; in the paper's notation node
// v_{i,j} of task τ_i is index j-1.
//
// Because a Graph never changes after Build, every derived quantity is
// a pure function of it. What analyses revisiting a graph read again
// is memoized: volume and longest path at Build time; the sorted WCETs,
// the content fingerprint and the µ table of LoadMu/StoreMu lazily,
// concurrency-safely. The reachability and parallelism sets are built
// fresh on every call, since the µ solver works on run classes.
//
// The structure is one pointer-free slab in compressed-row form: for
// n nodes, adj[v]..adj[v+1] bounds v's successors and adj[n+v]..
// adj[n+v+1] its predecessors (2n+1 offsets, the first pointing just
// past them), the lists follow, each sorted ascending, and the last n
// words hold one fixed topological order.
//
// A Graph built into an Arena is valid until the arena's next Reset;
// a campaign point's graphs die when its job returns.
type Graph struct {
	wcet  []int64
	adj   []int    // offsets, successor lists, predecessor lists, order
	names []string // display names; nil when no node has one

	volume  int64 // Σ wcet, fixed at Build
	longest int64 // longest-path length L, fixed at Build

	sortedOnce sync.Once
	sorted     []int64 // WCETs, non-increasing

	fpOnce sync.Once
	fp     [32]byte // sha256 over canonical content

	muLock sync.Mutex
	mu     []int64 // longest µ table solved so far (LoadMu)
}

// Builder accumulates nodes and edges and validates them into a Graph.
// The zero value is ready to use. Build's scratch stays on the Builder,
// so a Builder reused graph after graph allocates only the graphs.
type Builder struct {
	wcet  []int64
	names []string // up to the last named node only
	edges [][2]int

	deg  []int   // Build's list cursors, in-degrees and ready heap
	best []int64 // Build's longest-path table
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
// It reports an error if the builder is empty, a WCET is non-positive,
// the WCETs sum past int64, an edge endpoint is out of range, an edge is
// duplicated or a self-loop, or the edge set contains a cycle. The
// longest path is at most the volume, and Split and Clone carry it
// over, so this one bound keeps every graph's sums in range.
func (b *Builder) Build() (*Graph, error) { return BuildIn(nil, b) }

// Arena is recycled storage for graphs: BuildIn and SplitIn reuse its
// graphs' headers and buffers with every memo emptied. The zero value
// is ready to use, a nil *Arena allocates, and none is concurrency-safe.
type Arena struct {
	graphs []*Graph
	used   int   // graphs taken since the last Reset
	first  []int // SplitIn's piece offsets
}

// Reset recycles every graph taken from a since the last Reset.
func (a *Arena) Reset() { a.used = 0 }

// graph returns a Graph with n WCETs and a slab of the given length,
// their contents unspecified and every memo empty: a recycled one when
// a is not nil.
func (a *Arena) graph(n, slab int) *Graph {
	if a == nil {
		return &Graph{wcet: make([]int64, n), adj: make([]int, slab)}
	}
	if a.used == len(a.graphs) {
		a.graphs = append(a.graphs, new(Graph))
	}
	g := a.graphs[a.used]
	a.used++
	*g = Graph{wcet: slices.Grow(g.wcet[:0], n)[:n], adj: slices.Grow(g.adj[:0], slab)[:slab], sorted: g.sorted[:0]}
	return g
}

// BuildIn is Build into a's storage (fresh when a is nil); like LoadMu,
// it and SplitIn are functions so the public aliases gain no method.
func BuildIn(a *Arena, b *Builder) (*Graph, error) {
	n := len(b.wcet)
	if n == 0 {
		return nil, fmt.Errorf("dag: graph must have at least one node")
	}
	var volume int64
	for i, c := range b.wcet {
		if c <= 0 {
			return nil, fmt.Errorf("dag: node %d has non-positive WCET %d", i, c)
		}
		if volume > math.MaxInt64-c {
			return nil, fmt.Errorf("dag: WCET sum overflows int64 at node %d", i)
		}
		volume += c
	}
	// deg[u] counts u's successors, deg[n+v] v's predecessors; once
	// the offsets are set, each is the cursor of its list.
	b.deg = slices.Grow(b.deg[:0], 2*n)[:2*n]
	deg := b.deg
	clear(deg)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, b.edgeError()
		}
		deg[u]++
		deg[n+v]++
	}
	g := a.graph(n, 2*n+1+2*len(b.edges)+n)
	adj := g.adj
	adj[0] = 2*n + 1
	for i, d := range deg {
		adj[i+1] = adj[i] + d
		deg[i] = adj[i]
	}
	for _, e := range b.edges {
		adj[deg[e[0]]] = e[1]
		deg[e[0]]++
	}
	for u := range n {
		s := adj[adj[u]:adj[u+1]]
		sort.Ints(s)
		for i, v := range s {
			if i > 0 && s[i-1] == v {
				return nil, b.edgeError()
			}
			adj[deg[n+v]] = u // ascending, as u is
			deg[n+v]++
		}
	}
	copy(g.wcet, b.wcet)
	g.volume = volume
	if len(b.names) > 0 {
		g.names = make([]string, n)
		copy(g.names, b.names)
	}
	// The topological sort consumes the in-degrees in deg[n:] and keeps
	// its heap of ready nodes in deg[:n].
	for v := range n {
		deg[n+v] = adj[n+v+1] - adj[n+v]
	}
	if err := g.computeTopo(deg[n:], deg[:0:n]); err != nil {
		return nil, err
	}
	b.best = slices.Grow(b.best[:0], n)[:n]
	g.longest = g.computeLongestPath(b.best)
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

// computeTopo writes a deterministic topological order (Kahn's
// algorithm with smallest-index tie-breaking) into the last n words of
// the slab, or reports an error if the graph is cyclic. indeg holds the
// in-degree of every node and is consumed; heap, of capacity n, holds
// the binary min-heap of ready nodes, so the sort takes O((V+E) log V).
func (g *Graph) computeTopo(indeg, heap []int) error {
	for v, d := range indeg {
		if d == 0 {
			heap = append(heap, v) // ascending, so already a heap
		}
	}
	order := g.TopologicalOrder()[:0]
	for len(heap) > 0 {
		v, last := heap[0], len(heap)-1
		heap[0] = heap[last]
		heap = heap[:last]
		siftDown(heap)
		order = append(order, v)
		for _, w := range g.Successors(v) {
			if indeg[w]--; indeg[w] == 0 {
				heap = append(heap, w)
				siftUp(heap)
			}
		}
	}
	if len(order) < g.N() {
		return fmt.Errorf("dag: cycle detected")
	}
	return nil
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
// returned slice is a capacity-capped window of the graph's slab;
// callers must not modify it.
func (g *Graph) Successors(v int) []int { return g.list(v) }

// Predecessors returns the direct predecessors of v in ascending order.
// The returned slice is a capacity-capped window of the graph's slab;
// callers must not modify it.
func (g *Graph) Predecessors(v int) []int { return g.list(len(g.wcet) + v) }

// list returns the i-th adjacency list of the slab: a successor list
// for i < n, a predecessor list after.
func (g *Graph) list(i int) []int {
	lo, hi := g.adj[i], g.adj[i+1]
	return g.adj[lo:hi:hi]
}

// Edges returns all direct edges in deterministic (source, target) order.
func (g *Graph) Edges() [][2]int {
	out := slices.Grow([][2]int(nil), g.NumEdges()) // one allocation; nil when edgeless
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Successors(u) {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// NumEdges returns the number of direct edges.
func (g *Graph) NumEdges() int {
	n := g.N()
	return g.adj[n] - g.adj[0]
}

// TopologicalOrder returns a topological order of the nodes. The returned
// slice is shared; callers must not modify it.
func (g *Graph) TopologicalOrder() []int { return g.adj[len(g.adj)-g.N():] }

// Sinks returns the nodes with no successors, ascending.
func (g *Graph) Sinks() []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.Successors(v)) == 0 {
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

// computeLongestPath is the Build-time longest-path DP; best, of
// length n, is its scratch.
func (g *Graph) computeLongestPath(best []int64) int64 {
	var l int64
	for _, v := range g.TopologicalOrder() {
		best[v] = g.wcet[v]
		for _, u := range g.Predecessors(v) {
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

// Reach returns, for every node v, the set SUCC(v) of nodes reachable
// from v by one or more edges (v itself excluded). Every call builds a
// fresh slab, which the caller owns and may modify.
func (g *Graph) Reach() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	topo := g.TopologicalOrder()
	// Reverse topological order: successors' reach is complete first.
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range g.Successors(v) {
			out[v].Add(w)
			out[v].UnionWith(out[w])
		}
	}
	return out
}

// CoReach returns, for every node v, the set PRED(v) of nodes from which
// v is reachable (v itself excluded). Every call builds a fresh slab,
// which the caller owns and may modify.
func (g *Graph) CoReach() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for _, v := range g.TopologicalOrder() {
		for _, u := range g.Predecessors(v) {
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
		children := g.Successors(u)
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
// can execute in parallel with v: the nodes u ≠ v such that neither
// reaches the other, the definition the blocking analysis relies on
// (sound for arbitrary DAGs). Par(v) is the complement of PRED(v) ∪ {v}
// ∪ SUCC(v): a few word operations per node on a fresh CoReach slab,
// which the caller owns and may modify.
func (g *Graph) Parallel() []*bitset.Set {
	succ := g.Reach()
	par := g.CoReach()
	for v, s := range par {
		s.UnionWith(succ[v])
		s.Add(v)
		s.Complement()
	}
	return par
}

// ClassScratch is the reusable memory of Classes; its buffers grow to
// the largest graph seen. The zero value is ready to use; a
// ClassScratch is not safe for concurrent use.
type ClassScratch struct {
	cls     []int
	order   []int // class ids by weight, then each id's place in that order
	weights []int64
	sets    []*bitset.Set
}

// Classes contracts every linear run of g — a maximal path whose links
// u→v have v as u's only successor and u as v's only predecessor —
// into one class weighing its heaviest member, and returns the class
// weights and each class's Par set over the classes, as views of the
// scratch valid until its next use. Members of a run are pairwise
// ordered and share one Par set, so µ (Equation (6)) is the same on the
// classes as on the nodes (DESIGN.md, "Performance"). Classes are
// numbered by non-increasing weight, ties in the topological order of
// their first members: the order the µ search (clique.Solver) takes
// them in, so it searches these slices in place. A graph without runs
// has one class per node, with g's Par sets renumbered.
func (sc *ClassScratch) Classes(g *Graph) (weights []int64, par []*bitset.Set) {
	n := g.N()
	topo := g.TopologicalOrder()
	// linked reports whether v continues its predecessor's run.
	linked := func(v int) bool {
		p := g.Predecessors(v)
		return len(p) == 1 && len(g.Successors(p[0])) == 1
	}
	r := n
	for v := range n {
		if linked(v) {
			r--
		}
	}
	sc.cls = slices.Grow(sc.cls[:0], n)[:n]
	sc.weights = slices.Grow(sc.weights[:0], r)[:r]
	cls, weights := sc.cls, sc.weights
	clear(weights)
	next := 0
	for _, v := range topo {
		if linked(v) {
			cls[v] = cls[g.Predecessors(v)[0]]
		} else {
			cls[v] = next
			next++
		}
		weights[cls[v]] = max(weights[cls[v]], g.wcet[v])
	}
	// Renumber by weight: an insertion sort of the weights, carrying
	// each class's topological number (stable, so ties keep that
	// order), then one remap of cls.
	sc.order = slices.Grow(sc.order[:0], 2*r)[:2*r]
	byWeight, rank := sc.order[:r], sc.order[r:]
	for c := range r {
		w, i := weights[c], c
		for ; i > 0 && weights[i-1] < w; i-- {
			weights[i], byWeight[i] = weights[i-1], byWeight[i-1]
		}
		weights[i], byWeight[i] = w, c
	}
	for i, c := range byWeight {
		rank[c] = i
	}
	for v, c := range cls {
		cls[v] = rank[c]
	}
	// Only a run's last member has successors, and only its first
	// member predecessors, outside the run, so the reverse topological
	// walk (successors) and the topological one (predecessors) union in
	// only finished sets.
	if len(sc.sets) < 2*r {
		sc.sets = append(sc.sets, bitset.Slab(2*r-len(sc.sets), r)...)
	}
	sets := sc.sets[:2*r]
	for _, s := range sets {
		s.Reset(r)
	}
	reach, par := sets[:r], sets[r:]
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range g.Successors(v) {
			if c, d := cls[v], cls[w]; c != d {
				reach[c].Add(d)
				reach[c].UnionWith(reach[d])
			}
		}
	}
	for _, v := range topo {
		for _, u := range g.Predecessors(v) {
			if c, e := cls[v], cls[u]; c != e {
				par[c].Add(e)
				par[c].UnionWith(par[e])
			}
		}
	}
	for c, s := range par {
		s.UnionWith(reach[c])
		s.Add(c)
		s.Complement()
	}
	return weights, par
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
	for _, vj := range g.TopologicalOrder() {
		for _, vl := range g.Predecessors(vj) {
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
// parallel (exact reachability definition). Every call builds a fresh
// matrix, which the caller owns and may modify.
func (g *Graph) IsParallelMatrix() [][]bool {
	m := make([][]bool, g.N())
	for j, s := range g.Parallel() {
		m[j] = make([]bool, g.N())
		s.ForEach(func(k int) bool {
			m[j][k] = true
			return true
		})
	}
	return m
}

// Width returns the maximum number of nodes that can execute in parallel:
// the maximum antichain of the precedence partial order. By Dilworth's
// theorem this equals n minus the size of a maximum matching of the
// bipartite graph over the transitive closure — left copy u to right
// copy v iff u precedes v — which Kuhn's augmenting paths find (n is
// small in this domain).
func (g *Graph) Width() int {
	n := g.N()
	reach := g.Reach()
	partner := make([]int, n) // right node v's left partner + 1; 0 = unmatched
	seen := make([]bool, n)
	var try func(u int) bool
	try = func(u int) bool {
		found := false
		reach[u].ForEach(func(v int) bool {
			if !seen[v] {
				seen[v] = true
				if partner[v] == 0 || try(partner[v]-1) {
					partner[v] = u + 1
					found = true
				}
			}
			return !found
		})
		return found
	}
	width := n
	for u := range n {
		clear(seen)
		if try(u) {
			width--
		}
	}
	return width
}

// SortedWCETs returns the node WCETs in non-increasing order — the
// top-NPR list of the Equation (5) blocking bound. The result is
// memoized on the graph and shared; callers must not modify it.
func (g *Graph) SortedWCETs() []int64 {
	g.sortedOnce.Do(func() {
		c := append(g.sorted, g.wcet...) // nil, or an arena's empty buffer
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
// content-addressing key of the analysis cache. Memoized on the graph;
// the canonical text is written into a pooled buffer, so a fingerprint
// allocates nothing once the pool is warm.
func (g *Graph) Fingerprint() [32]byte {
	g.fpOnce.Do(func() {
		bp := fpTextPool.Get().(*[]byte)
		buf := strconv.AppendInt((*bp)[:0], int64(g.N()), 10)
		buf = append(buf, ';')
		for _, c := range g.wcet {
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ';')
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Successors(u) {
				buf = strconv.AppendInt(buf, int64(u), 10)
				buf = append(buf, '>')
				buf = strconv.AppendInt(buf, int64(v), 10)
				buf = append(buf, ',')
			}
		}
		g.fp = sha256.Sum256(buf)
		*bp = buf
		fpTextPool.Put(bp)
	})
	return g.fp
}

// fpTextPool holds the canonical-text buffers of Fingerprint.
var fpTextPool = sync.Pool{New: func() any { return new([]byte) }}

// LoadMu returns the µ table memoized on g, cut to its first m entries,
// or nil when the memo holds fewer than m. µ[c] does not depend on the
// core count beyond the table's length, so one table serves every m up
// to its own. The result is a capacity-capped view of the memo; callers
// must not modify it.
//
// LoadMu and StoreMu are package-level functions, not methods, so that
// the public Graph alias exposes no way to plant tables the analysis
// would trust; internal/blocking is their one caller.
func LoadMu(g *Graph, m int) []int64 {
	g.muLock.Lock()
	mu := g.mu
	g.muLock.Unlock()
	if len(mu) < m {
		return nil
	}
	return mu[:m:m]
}

// StoreMu memoizes the µ table mu, solved for g, unless the memo
// already holds a table at least as long.
func StoreMu(g *Graph, mu []int64) {
	g.muLock.Lock()
	if len(mu) > len(g.mu) {
		g.mu = mu
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
	return &Graph{
		wcet:    append([]int64(nil), g.wcet...),
		adj:     append([]int(nil), g.adj...),
		names:   append([]string(nil), g.names...),
		volume:  g.volume,
		longest: g.longest,
	}
}

// Split returns the graph in which every node v of g with WCET above
// maxNPR becomes a chain of k = ⌈C_v/maxNPR⌉ pieces of near-equal WCET
// (the first C_v mod k one unit longer), numbered consecutively in node
// order; an edge (u,v) of g runs from u's last piece to v's first. It
// is built straight from g, with no Builder round trip: the lists are
// written into the slab in piece order, already sorted because pieces
// keep their nodes' order, and the volume and longest path carry over,
// since pieces sum to their node's WCET and run in sequence. The
// topological order is g's with each node expanded into its chain,
// which is the order Build would give the split (DESIGN.md,
// "Performance"). The split carries no node names, and its memos start
// empty. maxNPR must be ≥ 1.
func Split(g *Graph, maxNPR int64) *Graph { return SplitIn(nil, g, maxNPR) }

// SplitIn is Split into a's storage (a fresh graph when a is nil).
func SplitIn(a *Arena, g *Graph, maxNPR int64) *Graph {
	if maxNPR < 1 {
		panic("dag: maxNPR must be ≥ 1")
	}
	n := g.N()
	// first[v] is the index of v's first piece, first[n] the piece count.
	var first []int
	if a != nil {
		a.first = slices.Grow(a.first[:0], n+1)[:n+1]
		first = a.first
	} else {
		first = make([]int, n+1)
	}
	first[0] = 0
	for v, c := range g.wcet {
		first[v+1] = first[v] + int((c-1)/maxNPR+1)
	}
	np := first[n]
	s := a.graph(np, 2*np+1+2*(np-n+g.NumEdges())+np)
	s.volume, s.longest = g.volume, g.longest
	adj := s.adj
	// at is the slab's write cursor; list i starts where it stands.
	at := 2*np + 1
	for v, c := range g.wcet {
		lo, hi := first[v], first[v+1]
		k := int64(hi - lo)
		for i := range k {
			s.wcet[lo+int(i)] = c / k
			if i < c%k {
				s.wcet[lo+int(i)]++
			}
		}
		for p := lo; p+1 < hi; p++ {
			adj[p], adj[at] = at, p+1
			at++
		}
		adj[hi-1] = at
		for _, w := range g.Successors(v) {
			adj[at] = first[w]
			at++
		}
	}
	for v := range n {
		lo, hi := first[v], first[v+1]
		adj[np+lo] = at
		for _, u := range g.Predecessors(v) {
			adj[at] = first[u+1] - 1
			at++
		}
		for p := lo + 1; p < hi; p++ {
			adj[np+p], adj[at] = at, p-1
			at++
		}
	}
	adj[2*np] = at
	for _, v := range g.TopologicalOrder() {
		for p := first[v]; p < first[v+1]; p++ {
			adj[at] = p
			at++
		}
	}
	return s
}
