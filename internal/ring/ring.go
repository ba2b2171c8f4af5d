// Package ring implements the consistent-hash ring the session plane
// routes on: every member (a node's advertised base URL) is hashed onto
// the ring at a fixed number of virtual points, and a key (a session id)
// is owned by the member whose nearest clockwise point it hits.
//
// The ring is deterministic in the member list alone — two nodes
// configured with the same -peers set compute identical ownership, with
// no coordination protocol — and virtual points keep the load spread
// even when member counts are small. Removing one member moves only the
// keys it owned (the classic consistent-hashing property, asserted in
// ring_test.go).
package ring

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual point count: enough to
// spread a handful of members evenly, cheap enough to rebuild per
// config change.
const DefaultVirtualNodes = 64

type point struct {
	h uint64
	m int // index into members
}

// Ring is an immutable consistent-hash ring over a member list. Build
// with New; a nil or empty ring owns nothing (Owner returns "").
type Ring struct {
	members []string
	points  []point
}

// New builds a ring over members with the given virtual point count per
// member (<= 0 means DefaultVirtualNodes). Duplicate and empty member
// strings are dropped; order does not matter.
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq) // member index, and thus tie-breaking, is order-independent
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{h: hash64(m + "#" + strconv.Itoa(v)), m: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].m < r.points[b].m // deterministic on (vanishingly rare) hash ties
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.successor(key)].m]
}

// Next returns the first member clockwise from key that is not exclude:
// the hand-off target for a session owned by a draining node. It
// returns "" when no such member exists (a one-member ring).
func (r *Ring) Next(key, exclude string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	start := r.successor(key)
	for i := 0; i < len(r.points); i++ {
		m := r.members[r.points[(start+i)%len(r.points)].m]
		if m != exclude {
			return m
		}
	}
	return ""
}

// successor returns the index of the first point at or clockwise past
// hash(key), wrapping at the top of the hash space.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	return f.Sum64()
}
