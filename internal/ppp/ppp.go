// Package ppp explores preemption-point placement for limited-preemptive
// DAG tasks — the design dimension behind the model of Serrano et al.
// (DATE 2016) and the future-work direction the paper closes with.
//
// Under limited preemption every DAG node is a non-preemptive region
// (NPR). Where the preemption points sit is a design choice with a
// two-sided effect the analysis makes quantifiable:
//
//   - coarser NPRs (fewer preemption points) reduce the number of
//     preemptions a task can suffer (p_k = min(q_k, h_k) shrinks with
//     q_k) and, on real hardware, the preemption overhead — but every
//     lower-priority NPR grows, inflating the blocking Δ^m/Δ^{m-1} it
//     imposes on higher-priority tasks;
//   - finer NPRs (splitting long nodes) cap the blocking at the split
//     length, at the price of more preemption points.
//
// dag.Split and CoarsenChains are the two placement transforms, and
// Explore sweeps an NPR-length budget over a task set, reporting how the
// schedulability verdict and the blocking terms move.
package ppp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rta"
)

// CheckMaxNPR validates an NPR budget before it reaches dag.Split or
// CoarsenChains, which panic on out-of-range values. Boundary layers
// (wire decoding, session parameters) call this so the panic stays a
// programming-error assertion, never reachable from external input.
func CheckMaxNPR(maxNPR int64) error {
	if maxNPR < 1 {
		return fmt.Errorf("ppp: invalid maxNPR: %d (must be ≥ 1)", maxNPR)
	}
	return nil
}

// CoarsenChains returns a graph in which maximal linear runs (node v
// with a single successor w that has v as its single predecessor) are
// greedily merged while the merged WCET stays within maxNPR. Volume and
// longest path are preserved; the node count (and so the number of
// preemption points) shrinks.
func CoarsenChains(g *dag.Graph, maxNPR int64) *dag.Graph {
	if maxNPR < 1 {
		panic("ppp: maxNPR must be ≥ 1")
	}
	cur := g
	for {
		merged := coarsenOnce(cur, maxNPR)
		if merged == nil {
			return cur
		}
		cur = merged
	}
}

// coarsenOnce performs one merge pass; nil when nothing merged.
func coarsenOnce(g *dag.Graph, maxNPR int64) *dag.Graph {
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	weight := g.WCETs()
	mergedAny := false
	// Scan in topological order so chains fold front-to-back.
	for _, v := range g.TopologicalOrder() {
		rv := find(v)
		succ := g.Successors(v)
		if len(succ) != 1 {
			continue
		}
		w := succ[0]
		if len(g.Predecessors(w)) != 1 {
			continue
		}
		rw := find(w)
		if rv == rw {
			continue
		}
		if weight[rv]+weight[rw] > maxNPR {
			continue
		}
		parent[rw] = rv
		weight[rv] += weight[rw]
		mergedAny = true
	}
	if !mergedAny {
		return nil
	}
	// Rebuild: one node per merge-class, edges between distinct classes.
	var b dag.Builder
	classIdx := map[int]int{}
	var roots []int
	for v := 0; v < n; v++ {
		if find(v) == v {
			roots = append(roots, v)
		}
	}
	sort.Ints(roots)
	for _, r := range roots {
		classIdx[r] = b.AddNode(weight[r])
	}
	seen := map[[2]int]bool{}
	for _, e := range g.Edges() {
		a, c := find(e[0]), find(e[1])
		if a == c {
			continue
		}
		key := [2]int{classIdx[a], classIdx[c]}
		if !seen[key] {
			seen[key] = true
			b.AddEdge(key[0], key[1])
		}
	}
	return b.MustBuild()
}

// Transform applies a placement transform to every task of a set,
// returning a new set with identical timing parameters.
func Transform(ts *model.TaskSet, f func(*dag.Graph) *dag.Graph) *model.TaskSet {
	out := &model.TaskSet{Tasks: make([]*model.Task, ts.N())}
	for i, t := range ts.Tasks {
		out.Tasks[i] = &model.Task{
			Name: t.Name, G: f(t.G), Deadline: t.Deadline, Period: t.Period,
		}
	}
	return out
}

// Point is the outcome of one NPR-budget setting in Explore.
type Point struct {
	MaxNPR      int64
	Schedulable bool
	TotalNodes  int   // preemption-point proxy: Σ |V_i|
	MaxDeltaM   int64 // largest Δ^m over analyzed tasks
	WorstSlackM int64 // min over analyzed tasks of m·D - Rm (negative = miss)
}

// Explore splits every task's nodes to each budget in budgets and runs
// the limited-preemptive analysis, returning one Point per budget.
// Budgets are processed as given; pass them sorted for readable output.
func Explore(ts *model.TaskSet, m int, budgets []int64, method rta.Method) ([]Point, error) {
	if method == rta.FPIdeal {
		return nil, fmt.Errorf("ppp: placement exploration needs a limited-preemptive method")
	}
	out := make([]Point, 0, len(budgets))
	for _, q := range budgets {
		split := Transform(ts, func(g *dag.Graph) *dag.Graph { return dag.Split(g, q) })
		res, err := rta.Analyze(context.Background(), split, rta.Config{M: m, Method: method})
		if err != nil {
			return nil, err
		}
		p := Point{MaxNPR: q, Schedulable: res.Schedulable}
		slackSet := false
		for i, t := range split.Tasks {
			p.TotalNodes += t.G.N()
			tr := res.Tasks[i]
			if !tr.Analyzed {
				continue
			}
			if tr.DeltaM > p.MaxDeltaM {
				p.MaxDeltaM = tr.DeltaM
			}
			slack := int64(m)*t.Deadline - tr.ResponseTimeM
			if !slackSet || slack < p.WorstSlackM {
				p.WorstSlackM = slack
				slackSet = true
			}
		}
		out = append(out, p)
	}
	return out, nil
}
