// Package bitset provides a dense, fixed-capacity bit set backed by
// uint64 words.
//
// The analysis code uses bit sets to represent node sets of a DAG
// (successors, predecessors, parallelism sets) and candidate sets during
// clique search, where intersection and population count dominate the
// running time.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Len). The zero value is an
// empty set of capacity 0; use New to create a set with a given capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements (indices 0..n-1).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set of capacity n containing exactly the given
// indices.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the capacity of the set (the size of its universe).
func (s *Set) Len() int { return s.n }

// Add inserts index i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes index i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether index i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set contains no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Reset reinitialises s to an empty set of capacity n, reusing the
// backing array whenever it already has room. It is the allocation-free
// counterpart of New for scratch sets that live across problems of
// varying size (the clique solver's per-depth candidate sets).
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// CopyFrom makes s an element-for-element copy of o, adopting o's
// capacity and reusing s's backing array whenever it has room: the
// allocation-free counterpart of Clone.
func (s *Set) CopyFrom(o *Set) {
	nw := len(o.words)
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
	}
	copy(s.words, o.words)
	s.n = o.n
}

// Fill adds every index of the universe [0, Len) to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Complement replaces s by its complement in the universe [0, Len).
func (s *Set) Complement() {
	for i, w := range s.words {
		s.words[i] = ^w
	}
	s.trim()
}

// trim clears the bits at and beyond Len in the last word, which Fill
// and Complement set and every other method expects clear.
func (s *Set) trim() {
	if extra := len(s.words)*wordBits - s.n; extra > 0 {
		s.words[len(s.words)-1] &= ^uint64(0) >> uint(extra)
	}
}

// Slab returns count independent empty sets of capacity n carved from
// two shared allocations (one header array, one backing word array).
// Families of per-node sets — reachability, parallelism — cost 2n+1
// allocations when built with New; a slab costs 3 regardless of count.
func Slab(count, n int) []*Set {
	if count < 0 {
		panic("bitset: negative count")
	}
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*nw)
	hdrs := make([]Set, count)
	out := make([]*Set, count)
	for i := range hdrs {
		hdrs[i] = Set{words: words[i*nw : (i+1)*nw : (i+1)*nw], n: n}
		out[i] = &hdrs[i]
	}
	return out
}

// Clear removes all elements, keeping the capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith adds every element of o to s. The capacities must match.
func (s *Set) UnionWith(o *Set) {
	s.same(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	s.same(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes from s every element of o.
func (s *Set) DifferenceWith(o *Set) {
	s.same(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.same(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same elements and have
// the same capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is also in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.same(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

func (s *Set) same(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// ForEach calls f for every element in ascending order. If f returns
// false, iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the elements of the set in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Next returns the smallest element >= i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits) << (uint(i) % wordBits)
	for {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
