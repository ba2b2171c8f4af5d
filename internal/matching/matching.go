// Package matching provides exact assignment solvers.
//
// The LP-ILP analysis of Serrano et al. (DATE 2016) needs, for every
// execution scenario s_l (an integer partition of the core count m), the
// maximum-weight assignment of distinct lower-priority tasks to the parts
// of the partition, where assigning task τ_i to a part of size c yields
// weight µ_i[c] (Equation (7)). That is a rectangular assignment problem,
// solved here with the O(n³) Hungarian algorithm over int64 weights.
// (The unweighted matching behind the Dilworth width lives with the
// graph, in dag.)
package matching

import "math"

const inf = int64(math.MaxInt64) / 4

// MinCostAssignment solves the rectangular assignment problem: given an
// r×c cost matrix a with r ≤ c, assign each row a distinct column
// minimizing the total cost. It returns the minimum cost and, for each
// row, the chosen column. It panics if r > c or the matrix is ragged.
//
// Costs may be negative; the implementation is the classic potentials
// ("Hungarian") algorithm and runs in O(r·c²).
func MinCostAssignment(a [][]int64) (int64, []int) {
	r := len(a)
	if r == 0 {
		return 0, nil
	}
	c := len(a[0])
	if r > c {
		panic("matching: more rows than columns")
	}
	for _, row := range a {
		if len(row) != c {
			panic("matching: ragged cost matrix")
		}
	}

	u := make([]int64, r+1)
	v := make([]int64, c+1)
	p := make([]int, c+1)   // p[j]: row (1-based) matched to column j; 0 = free
	way := make([]int, c+1) // alternating-path bookkeeping

	for i := 1; i <= r; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, c+1)
		used := make([]bool, c+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= c; j++ {
				if used[j] {
					continue
				}
				cur := a[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= c; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assign := make([]int, r)
	var cost int64
	for j := 1; j <= c; j++ {
		if p[j] != 0 {
			assign[p[j]-1] = j - 1
			cost += a[p[j]-1][j-1]
		}
	}
	return cost, assign
}

// MaxWeightAssignment maximizes the total weight of an injective partial
// assignment of rows to columns: every row either takes a distinct column
// (earning w[row][col]) or stays unassigned at weight 0. The matrix may
// be rectangular in either direction; it is padded internally with
// zero-weight dummy columns. It returns the maximum total weight and,
// for each row, the assigned column or -1 if the row stayed unassigned.
//
// Two consequences of the opt-out semantics: with non-negative weights
// and at least as many columns as rows the result coincides with the
// classic full assignment, and when there are more rows than columns the
// surplus rows simply contribute 0 — exactly what the scenario workload
// of the paper needs when there are fewer lower-priority tasks than parts
// in the partition (see DESIGN.md, "paper errata handled").
func MaxWeightAssignment(w [][]int64) (int64, []int) {
	r := len(w)
	if r == 0 {
		return 0, nil
	}
	c := len(w[0])
	width := c + r // always enough dummy columns for every row to opt out
	neg := make([][]int64, r)
	for i, row := range w {
		if len(row) != c {
			panic("matching: ragged weight matrix")
		}
		neg[i] = make([]int64, width)
		for j, x := range row {
			neg[i][j] = -x
		}
		// Columns c..width-1 stay 0: dummy columns.
	}
	cost, assign := MinCostAssignment(neg)
	for i, j := range assign {
		if j >= c {
			assign[i] = -1
		}
	}
	return -cost, assign
}
