// Package partition enumerates integer partitions.
//
// The LP-ILP analysis of Serrano et al. (DATE 2016) evaluates the
// lower-priority blocking for every "execution scenario" of m cores, where
// the set of scenarios e_m is exactly the set of integer partitions of m
// (Section IV-B2 of the paper). The number of scenarios p(m) is computed
// with Euler's pentagonal-number recurrence, as referenced by the paper.
package partition

import (
	"fmt"
	"strings"
)

// Partition is one way of writing a positive integer as a sum of positive
// integers, stored in non-increasing order, e.g. {2, 1, 1} for 4 = 2+1+1.
type Partition []int

// Sum returns the integer the partition decomposes.
func (p Partition) Sum() int {
	s := 0
	for _, v := range p {
		s += v
	}
	return s
}

// Size returns the cardinality |s_l| of the scenario: the number of tasks
// running in it.
func (p Partition) Size() int { return len(p) }

// String renders the partition as "{2, 1, 1}".
func (p Partition) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Clone returns an independent copy.
func (p Partition) Clone() Partition {
	c := make(Partition, len(p))
	copy(c, p)
	return c
}

// Equal reports whether two partitions have identical parts.
func (p Partition) Equal(q Partition) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// All returns every partition of m in the deterministic order produced by
// descending-first-part recursion: for m = 4 this yields
// {4}, {3,1}, {2,2}, {2,1,1}, {1,1,1,1}.
//
// All panics if m < 0. All(0) returns a single empty partition by
// convention; the analysis never requests it for m = 0.
func All(m int) []Partition {
	if m < 0 {
		panic("partition: negative m")
	}
	var out []Partition
	cur := make(Partition, 0, m)
	var rec func(remaining, maxPart int)
	rec = func(remaining, maxPart int) {
		if remaining == 0 {
			out = append(out, cur.Clone())
			return
		}
		if maxPart > remaining {
			maxPart = remaining
		}
		for v := maxPart; v >= 1; v-- {
			cur = append(cur, v)
			rec(remaining-v, v)
			cur = cur[:len(cur)-1]
		}
	}
	rec(m, m)
	return out
}

// Count returns p(m), the number of partitions of m, using Euler's
// pentagonal number theorem:
//
//	p(m) = Σ_{q≠0} (-1)^{q-1} · p(m − q(3q−1)/2)
//
// with p(0) = 1 and p(n) = 0 for n < 0. This is the formula the paper
// cites for the size of the scenario set e_m.
func Count(m int) int64 {
	if m < 0 {
		return 0
	}
	p := make([]int64, m+1)
	p[0] = 1
	for n := 1; n <= m; n++ {
		var sum int64
		for q := 1; ; q++ {
			g1 := q * (3*q - 1) / 2 // generalized pentagonal, q > 0
			g2 := q * (3*q + 1) / 2 // generalized pentagonal, q < 0
			if g1 > n && g2 > n {
				break
			}
			sign := int64(1)
			if q%2 == 0 {
				sign = -1
			}
			if g1 <= n {
				sum += sign * p[n-g1]
			}
			if g2 <= n {
				sum += sign * p[n-g2]
			}
		}
		p[n] = sum
	}
	return p[m]
}
