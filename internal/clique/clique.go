// Package clique solves the exact combinatorial core of Equation (6) of
// Serrano et al. (DATE 2016): the worst-case workload µ_i[c] of a task on
// c cores is the maximum total WCET of c nodes that are pairwise allowed
// to execute in parallel — a maximum-weight c-clique of the task's
// parallelism graph.
//
// The solver is a depth-first branch-and-bound over a weight-descending
// vertex order with a prefix-sum admissible bound. The paper's
// generator emits DAGs of a few dozen nodes. Node splitting (the
// npr-fine campaign family, repair) makes graphs of up to ~200 nodes,
// but blocking.Mu hands this package the split's run classes, one
// vertex per chain of pieces, so the problem it sees keeps about the
// original count; one round of twin reduction (see setup) merges the
// remaining vertices with identical parallelism. The search is exact
// for any input and is cross-checked against both brute force and the
// paper-faithful ILP encoding in tests.
//
// All scratch state — candidate sets per search depth, the reduced and
// reordered problem, the twin-reduction marks — lives on a reusable
// Solver, so a campaign computing millions of µ tables allocates
// nothing in steady state: blocking.Mu keeps Solvers in a pool beside
// its run-class scratch; a one-off solve uses new(Solver). MuTable
// performs the twin reduction and the weight reordering once and
// reuses them for every c.
package clique

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/bitset"
)

// Solver carries the reusable scratch of the branch-and-bound. The zero
// value is ready to use; a Solver may be reused for any sequence of
// problems (its buffers grow to the largest instance seen) but is not
// safe for concurrent use.
type Solver struct {
	// Problem after twin reduction and weight reordering: vertex idx has
	// weight w[idx] (non-increasing), compatibility nadj[idx], and
	// corresponds to original vertex orig[idx].
	n    int
	w    []int64
	nadj []*bitset.Set
	orig []int

	// Branch-and-bound state.
	k       int
	bestW   int64
	record  bool
	picked  []int
	bestSet []int

	// Per-depth candidate scratch (depth d uses rest[d] and sub[d]).
	rest, sub []*bitset.Set
	universe  *bitset.Set

	// Setup scratch: each input vertex's search index, and twin marks.
	pos     []int
	claimed []bool
}

// MaxWeightKSet returns the maximum total weight of a set of exactly k
// vertices that are pairwise adjacent in the compatibility relation adj,
// together with one optimal vertex set (ascending order). If no such set
// exists it returns (0, nil).
//
// weights[v] must be non-negative; adj[v] is the set of vertices
// compatible with v and must be symmetric and irreflexive (as produced by
// dag.(*Graph).Parallel).
func (s *Solver) MaxWeightKSet(weights []int64, adj []*bitset.Set, k int) (int64, []int) {
	n := len(weights)
	if k <= 0 || k > n {
		return 0, nil
	}
	if k == 1 {
		// Largest single node; no adjacency needed.
		best, arg := int64(-1), -1
		for v, w := range weights {
			if w > best {
				best, arg = w, v
			}
		}
		return best, []int{arg}
	}
	s.setup(weights, adj)
	v, ok := s.search(k, true)
	if !ok {
		return 0, nil
	}
	out := make([]int, len(s.bestSet))
	for i, idx := range s.bestSet {
		out[i] = s.orig[idx]
	}
	sort.Ints(out)
	return v, out
}

// MuTable returns µ[c] for c = 1..m (index c-1): the worst-case workload
// of the c heaviest pairwise-parallel vertices, or 0 when fewer than c
// can run in parallel (Equation (6) and Table I of the paper). The twin
// reduction and the weight reordering are shared across all c (they do
// not depend on the set size), so the table costs one setup plus m
// searches. weights and adj are as for MaxWeightKSet.
func (s *Solver) MuTable(weights []int64, adj []*bitset.Set, m int) []int64 {
	mu := make([]int64, m)
	if m < 1 || len(weights) == 0 {
		return mu
	}
	best := weights[0]
	for _, w := range weights[1:] {
		if w > best {
			best = w
		}
	}
	mu[0] = best
	if m == 1 || len(weights) == 1 {
		return mu
	}
	s.setup(weights, adj)
	for c := 2; c <= m && c <= s.n; c++ {
		v, ok := s.search(c, false)
		if !ok {
			// No c-clique exists; larger cliques cannot exist either.
			break
		}
		mu[c-1] = v
	}
	return mu
}

// setup prepares the reduced, reordered problem in the solver's scratch:
// one round of twin reduction, then a stable non-increasing weight order
// so that candidate prefix sums give a tight admissible bound and heavy
// vertices are branched on first.
//
// Twin reduction: vertices with identical adjacency sets are necessarily
// non-adjacent to each other (v ∉ adj[v] = adj[u]), so no valid set
// contains two of them, and they are interchangeable with respect to
// every other vertex — only the heaviest of each class can appear in an
// optimum (for any k). The members of a linear run of a DAG are such
// twins; blocking.Mu contracts runs before it calls MuTable
// (dag.ClassScratch), so split pieces do not reach this reduction, but
// any caller passing a DAG's own Par sets gets them merged here.
//
// One round reaches the fixed point. Suppose kept vertices a and b have
// the same kept neighbours, and let x ∈ adj[a] be dropped for its kept
// twin y. Then a ∈ adj[x] = adj[y] gives y ∈ adj[a], so y ∈ adj[b],
// so b ∈ adj[y] = adj[x] and x ∈ adj[b]. Hence adj[a] = adj[b]: a and
// b were already one class.
func (s *Solver) setup(weights []int64, adj []*bitset.Set) {
	s.twinReduce(weights, adj)
	order := s.orig
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	n := len(order)
	s.n = n
	s.pos = grow(s.pos, len(weights)) // input vertex -> search index, −1 if dropped
	for v := range s.pos {
		s.pos[v] = -1
	}
	for idx, v := range order {
		s.pos[v] = idx
	}
	s.w = growInt64(s.w, n)
	nadj := growSets(&s.nadj, n)
	for idx, v := range order {
		s.w[idx] = weights[v]
		t := nadj[idx]
		t.Reset(n)
		adj[v].ForEach(func(u int) bool {
			if p := s.pos[u]; p >= 0 {
				t.Add(p)
			}
			return true
		})
	}
}

// twinReduce partitions vertices into classes of identical adjacency
// sets and leaves the heaviest member of each class (the first of equal
// weights) in s.orig, ascending.
func (s *Solver) twinReduce(weights []int64, adj []*bitset.Set) {
	n := len(weights)
	s.claimed = growBool(s.claimed, n)
	claimed := s.claimed
	for i := range claimed {
		claimed[i] = false
	}
	s.orig = s.orig[:0]
	for v := 0; v < n; v++ {
		if claimed[v] {
			continue
		}
		best := v
		for u := v + 1; u < n; u++ {
			if claimed[u] || !adj[v].Equal(adj[u]) {
				continue
			}
			claimed[u] = true
			if weights[u] > weights[best] {
				best = u
			}
		}
		s.orig = append(s.orig, best)
	}
}

// search runs the branch-and-bound for set size k on the prepared
// problem, returning the best weight and whether any k-set exists. With
// record it also leaves one optimal set (as search indices) in bestSet.
func (s *Solver) search(k int, record bool) (int64, bool) {
	if k > s.n {
		return 0, false
	}
	s.k, s.record, s.bestW = k, record, -1
	s.picked = s.picked[:0]
	for len(s.rest) < k {
		s.rest = append(s.rest, new(bitset.Set))
		s.sub = append(s.sub, new(bitset.Set))
	}
	if s.universe == nil {
		s.universe = new(bitset.Set)
	}
	s.universe.Reset(s.n)
	s.universe.Fill()
	s.rec(s.universe, 0, 0)
	if s.bestW < 0 {
		return 0, false
	}
	return s.bestW, true
}

// bound returns an upper bound on the weight obtainable by adding `need`
// more vertices from cand: the sum of the `need` heaviest candidates
// (admissible since weights are sorted descending).
func (s *Solver) bound(cand *bitset.Set, need int) int64 {
	var sum int64
	cnt := 0
	cand.ForEach(func(v int) bool {
		sum += s.w[v]
		cnt++
		return cnt < need
	})
	if cnt < need {
		return -1 // not enough candidates at all
	}
	return sum
}

// rec explores candidate vertices in ascending index (= descending
// weight). Each vertex is either picked (recursing into its adjacency
// restriction) or removed for the remainder of the subtree, which makes
// the enumeration canonical. Depth d borrows the d-th scratch pair, so
// the whole search reuses 2k sets however many nodes it visits.
func (s *Solver) rec(cand *bitset.Set, cur int64, depth int) {
	need := s.k - len(s.picked)
	if need == 0 {
		if cur > s.bestW {
			s.bestW = cur
			if s.record {
				s.bestSet = append(s.bestSet[:0], s.picked...)
			}
		}
		return
	}
	rest := s.rest[depth]
	rest.CopyFrom(cand)
	for v := rest.Next(0); v != -1; v = rest.Next(v + 1) {
		rest.Remove(v)
		sub := s.sub[depth]
		sub.CopyFrom(rest)
		sub.IntersectWith(s.nadj[v])
		s.picked = append(s.picked, v)
		if b := s.bound(sub, need-1); b >= 0 && cur+s.w[v]+b > s.bestW {
			s.rec(sub, cur+s.w[v], depth+1)
		}
		s.picked = s.picked[:len(s.picked)-1]
		// If even the `need` heaviest vertices still available cannot
		// beat the incumbent, no later branch of this loop can either.
		if b := s.bound(rest, need); b < 0 || cur+b <= s.bestW {
			break
		}
	}
}

// grow returns buf resized to n, reallocating only when capacity lacks.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// growSets ensures *sets holds at least n reusable bitsets and returns
// the first n.
func growSets(sets *[]*bitset.Set, n int) []*bitset.Set {
	for len(*sets) < n {
		*sets = append(*sets, new(bitset.Set))
	}
	return (*sets)[:n]
}
