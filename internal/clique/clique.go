// Package clique solves the exact combinatorial core of Equation (6) of
// Serrano et al. (DATE 2016): the worst-case workload µ_i[c] of a task on
// c cores is the maximum total WCET of c nodes that are pairwise allowed
// to execute in parallel — a maximum-weight c-clique of the task's
// parallelism graph.
//
// The solver is a depth-first branch-and-bound over a weight-descending
// vertex order with a prefix-sum admissible bound. It takes that order
// from its caller: weights must be non-increasing, and the caller's
// weights and compatibility sets are searched in place. blocking.Mu
// hands it the run classes of dag.(*ClassScratch).Classes, numbered by
// weight, one vertex per chain of pieces node splitting makes, so the
// problem keeps about the original graph's few dozen vertices; vertices
// with identical compatibility sets are then masked out of the search
// universe in one round (see twins). MuTable runs one search for every
// c at once, each visited set updating the entry of its size;
// MaxWeightKSet runs one per size and returns a witness set, and tests
// hold the table to it. The search is exact for any input and is
// cross-checked against both brute force and the paper-faithful ILP
// encoding in tests.
//
// The search state and the candidate sets per depth live on a reusable
// Solver, so a campaign computing millions of µ tables allocates
// nothing in steady state: blocking.Mu keeps Solvers in a pool beside
// its run-class scratch; a one-off solve uses new(Solver).
package clique

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// Solver carries the reusable scratch of the branch-and-bound. The zero
// value is ready to use; a Solver may be reused for any sequence of
// problems (its buffers grow to the largest instance seen) but is not
// safe for concurrent use.
type Solver struct {
	// The caller's problem, searched in place: vertex v has weight w[v]
	// (non-increasing) and compatibility set adj[v]; universe holds the
	// vertices the twin scan kept.
	w        []int64
	adj      []*bitset.Set
	universe *bitset.Set

	// Per-size branch-and-bound state (MaxWeightKSet).
	k       int
	bestW   int64
	picked  []int
	bestSet []int

	// One-pass table state (MuTable): mu[c-1] is the heaviest c-set
	// found so far, for c up to the table's reach, and found the
	// largest c whose entry is positive.
	mu    []int64
	found int

	// Per-depth candidate scratch (depth d uses rest[d] and sub[d]).
	rest, sub []*bitset.Set
}

// MaxWeightKSet returns the maximum total weight of a set of exactly k
// vertices that are pairwise adjacent in the compatibility relation adj,
// together with one optimal vertex set (ascending order). If no such set
// exists it returns (0, nil).
//
// weights must be non-negative and non-increasing (it panics on an
// increase); adj[v] is the set of vertices compatible with v and must be
// symmetric and irreflexive (as produced by dag.(*Graph).Parallel, on a
// graph numbered by weight, or by dag.(*ClassScratch).Classes).
func (s *Solver) MaxWeightKSet(weights []int64, adj []*bitset.Set, k int) (int64, []int) {
	checkOrder(weights)
	if k <= 0 || k > len(weights) {
		return 0, nil
	}
	if k == 1 {
		return weights[0], []int{0}
	}
	if k > s.twins(weights, adj) {
		return 0, nil
	}
	s.k, s.bestW = k, -1
	s.picked = s.picked[:0]
	s.scratch(k)
	s.rec(s.universe, 0, 0)
	if s.bestW < 0 {
		return 0, nil
	}
	return s.bestW, slices.Clone(s.bestSet)
}

// MuTable returns µ[c] for c = 1..m (index c-1): the worst-case workload
// of the c heaviest pairwise-parallel vertices, or 0 when fewer than c
// can run in parallel (Equation (6) and Table I of the paper). µ[1] is
// weights[0]; the rest costs one twin scan and one branch-and-bound for
// every c at once (see recTable). The table equals MaxWeightKSet's
// weight at every c, the per-size search that is its oracle in tests.
// weights and adj are as for MaxWeightKSet.
func (s *Solver) MuTable(weights []int64, adj []*bitset.Set, m int) []int64 {
	checkOrder(weights)
	mu := make([]int64, m)
	if m < 1 || len(weights) == 0 {
		return mu
	}
	mu[0] = weights[0]
	if m == 1 || len(weights) == 1 {
		return mu
	}
	s.mu, s.found = mu[:min(m, s.twins(weights, adj))], 0
	if mu[0] > 0 {
		s.found = 1
	}
	s.scratch(len(s.mu))
	s.recTable(s.universe, 0, 0)
	s.mu = nil
	return mu
}

// checkOrder panics unless weights are non-increasing: the search's
// prefix sums are bounds only in that order, and the twin scan keeps the
// first member of a class as its heaviest.
func checkOrder(weights []int64) {
	for v := 1; v < len(weights); v++ {
		if weights[v] > weights[v-1] {
			panic(fmt.Sprintf("clique: weights must be non-increasing, but vertex %d weighs %d after %d", v, weights[v], weights[v-1]))
		}
	}
}

// twins takes the caller's problem and fills the universe with its
// vertices less every one whose compatibility set equals an earlier
// vertex's, returning how many it keeps.
//
// Vertices with identical compatibility sets are necessarily
// non-adjacent to each other (v ∉ adj[v] = adj[u]), so no valid set
// contains two of them, and they are interchangeable with respect to
// every other vertex: only the first of each class, the heaviest in
// weight order, need appear in an optimum (for any k). Run classes
// still have such twins (about a fifth of generated graphs' classes),
// and on a DAG's own Par sets each linear run is one twin class.
//
// One round reaches the fixed point. Suppose kept vertices a and b have
// the same kept neighbours, and let x ∈ adj[a] be dropped for its kept
// twin y. Then a ∈ adj[x] = adj[y] gives y ∈ adj[a], so y ∈ adj[b],
// so b ∈ adj[y] = adj[x] and x ∈ adj[b]. Hence adj[a] = adj[b]: a and
// b were already one class.
func (s *Solver) twins(weights []int64, adj []*bitset.Set) int {
	n := len(weights)
	s.w, s.adj = weights, adj
	if s.universe == nil {
		s.universe = new(bitset.Set)
	}
	u := s.universe
	u.Reset(n)
	u.Fill()
	kept := n
	for v := 0; v < n; v++ {
		if !u.Contains(v) {
			continue
		}
		for x := v + 1; x < n; x++ {
			if u.Contains(x) && adj[v].Equal(adj[x]) {
				u.Remove(x)
				kept--
			}
		}
	}
	return kept
}

// scratch readies the candidate sets of a search of the given depth.
func (s *Solver) scratch(depth int) {
	for len(s.rest) < depth {
		s.rest = append(s.rest, new(bitset.Set))
		s.sub = append(s.sub, new(bitset.Set))
	}
}

// recTable is MuTable's branch-and-bound: one canonical enumeration of the
// sets pairwise compatible, in which every visited set S of size d+1
// and weight w updates mu[d]. cand holds the vertices that extend the
// current set (size d, weight cur) and follow its last vertex. A child
// S ∪ {v} is entered, and the loop over v continued, only while open
// finds some size c whose µ the subtree could still beat, by the
// prefix-sum bound of the per-size search. A subtree is cut only when,
// for every c, no c-set in it is heavier than the c-set already found;
// each optimal c-set is therefore still visited, or one of equal
// weight was, so every entry equals the per-size search's optimum.
func (s *Solver) recTable(cand *bitset.Set, cur int64, d int) {
	rest := s.rest[d]
	rest.CopyFrom(cand)
	for v := rest.Next(0); v != -1; v = rest.Next(v + 1) {
		rest.Remove(v)
		w := cur + s.w[v]
		if w > s.mu[d] {
			s.mu[d] = w
			s.found = max(s.found, d+1)
		}
		if d+1 < len(s.mu) {
			sub := s.sub[d]
			sub.CopyFrom(rest)
			sub.IntersectWith(s.adj[v])
			if s.open(sub, w, d+1) {
				s.recTable(sub, w, d+1)
			}
		}
		if !s.open(rest, cur, d) {
			break
		}
	}
}

// open reports whether a set of size d and weight cur, grown by
// vertices of cand, could still beat mu at some size: whether cur plus
// the j heaviest members of cand exceeds mu[d+j-1] for some j ≥ 1 with
// d+j within the table.
func (s *Solver) open(cand *bitset.Set, cur int64, d int) bool {
	mu, w := s.mu, s.w
	if d >= len(mu) {
		return false
	}
	// Sizes above found still hold 0, which every extension of a set
	// of positive weight beats, so for them the test is a count: the
	// same answer the prefix sums below give, without the walk.
	if cur > 0 && s.found < len(mu) && cand.Count() >= max(1, s.found+1-d) {
		return true
	}
	beats := false
	cand.ForEach(func(v int) bool {
		cur += w[v]
		if cur > mu[d] {
			beats = true
			return false
		}
		d++
		return d < len(mu)
	})
	return beats
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

// rec is MaxWeightKSet's branch-and-bound for set size k. It explores
// candidate vertices in ascending index (= descending weight). Each
// vertex is either picked (recursing into its adjacency restriction) or
// removed for the remainder of the subtree, which makes the enumeration
// canonical and leaves every picked set ascending. Depth d borrows the
// d-th scratch pair, so the whole search reuses 2k sets however many
// nodes it visits.
func (s *Solver) rec(cand *bitset.Set, cur int64, depth int) {
	need := s.k - len(s.picked)
	if need == 0 {
		if cur > s.bestW {
			s.bestW = cur
			s.bestSet = append(s.bestSet[:0], s.picked...)
		}
		return
	}
	rest := s.rest[depth]
	rest.CopyFrom(cand)
	for v := rest.Next(0); v != -1; v = rest.Next(v + 1) {
		rest.Remove(v)
		sub := s.sub[depth]
		sub.CopyFrom(rest)
		sub.IntersectWith(s.adj[v])
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
