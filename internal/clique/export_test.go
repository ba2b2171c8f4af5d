package clique

import "repro/internal/bitset"

// ReducedAdjacency returns the compatibility sets of the problem setup
// leaves for weights and adj, one per kept vertex in search order.
func ReducedAdjacency(weights []int64, adj []*bitset.Set) []*bitset.Set {
	var s Solver
	s.setup(weights, adj)
	return s.nadj[:s.n]
}
