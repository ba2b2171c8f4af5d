// Package blocking computes the lower-priority interference terms of the
// limited-preemption response-time analysis of Serrano et al. (DATE
// 2016): the Δ^m and Δ^{m-1} bounds on the blocking a task suffers from
// non-preemptive regions (NPRs) of lower-priority DAG tasks.
//
// Two methods are provided, mirroring Section IV of the paper:
//
//   - LP-max (Equation (5)): sum of the m (resp. m-1) largest NPRs among
//     all lower-priority tasks, ignoring precedence constraints. Cheap and
//     pessimistic.
//   - LP-ILP (Equations (6)-(8)): per task, the worst-case workload
//     µ_i[c] on c cores considers only NPRs that can actually execute in
//     parallel; per execution scenario (integer partition of m), distinct
//     tasks are assigned to the parts maximizing the overall workload
//     ρ_k[s_l]; Δ is the maximum over scenarios.
//
// Each LP-ILP quantity can be computed by two interchangeable backends:
// exact combinatorial solvers (max-weight parallel c-set, Hungarian
// assignment, and a knapsack-style scenario sweep) or the paper-faithful
// 0-1 ILP encodings. Tests assert they agree. The combinatorial backend
// is orders of magnitude faster and the only one the analysis (package
// rta) asks for; the ILP encodings are its oracle.
package blocking

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/clique"
	"repro/internal/dag"
	"repro/internal/ilp"
	"repro/internal/matching"
	"repro/internal/partition"
)

// Backend selects the solver used for the LP-ILP quantities.
type Backend int

// Available backends.
const (
	// Combinatorial uses the exact max-weight clique / assignment / DP
	// solvers. Default.
	Combinatorial Backend = iota
	// PaperILP uses the verbatim (erratum-corrected) 0-1 ILP encodings of
	// Sections V-A2 and V-B, solved by branch and bound.
	PaperILP
)

func (b Backend) String() string {
	switch b {
	case Combinatorial:
		return "combinatorial"
	case PaperILP:
		return "paper-ilp"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Mu returns the worst-case workload table µ[c], c = 1..m (index c-1),
// of one task: the heaviest c pairwise-parallel NPRs, or 0 when fewer
// than c NPRs can run in parallel (Equation (6)). Per the paper this is a
// compile-time, task-local quantity, so the combinatorial table is
// memoized on g: a table solved at m serves every m' ≤ m as its prefix,
// and a larger m solves again and replaces it. The result is shared;
// callers must not modify it.
//
// The combinatorial backend solves on the run classes of g
// (dag.ClassScratch): each linear run, such as the chain of pieces
// dag.Split makes of a long node, is one vertex weighing its heaviest
// member, and the classes come in the weight order clique.Solver
// searches in place. The classes and the search live in pooled scratch,
// so a cold solve allocates only the table it returns. The paper-ILP
// backend, the oracle, solves on g itself on every call.
func Mu(g *dag.Graph, m int, be Backend) []int64 {
	switch be {
	case Combinatorial:
		if mu := MemoMu(g, m); mu != nil {
			return mu
		}
		sc := muScratchPool.Get().(*muScratch)
		w, par := sc.classes.Classes(g)
		mu := sc.solver.MuTable(w, par, m)
		muScratchPool.Put(sc)
		StoreMu(g, mu)
		return mu
	case PaperILP:
		mu := make([]int64, m)
		isPar := g.IsParallelMatrix()
		w := g.WCETs()
		for c := 1; c <= m; c++ {
			mu[c-1] = ilp.SolveMu(w, isPar, c)
			if mu[c-1] == 0 && c > 1 {
				break // no c-clique ⇒ no larger one either
			}
		}
		return mu
	}
	panic(fmt.Sprintf("blocking: unknown backend %d", int(be)))
}

// muScratch is the reusable memory of a combinatorial µ solve: the
// run classes of the graph and the clique solver that searches them.
// Drawn from a pool, it makes a cold solve allocate only its table.
type muScratch struct {
	classes dag.ClassScratch
	solver  clique.Solver
}

var muScratchPool = sync.Pool{New: func() any { return new(muScratch) }}

// MemoMu returns the first m entries of the combinatorial µ table
// memoized on g, or nil when g holds no table that long. It never
// solves.
func MemoMu(g *dag.Graph, m int) []int64 {
	return dag.LoadMu(g, m)
}

// StoreMu memoizes on g a combinatorial µ table solved for it elsewhere
// — by the content-addressed cache, for a structurally identical graph
// — so the next lookup of g does not leave the graph. A table shorter
// than the one g holds is ignored.
func StoreMu(g *dag.Graph, mu []int64) {
	dag.StoreMu(g, mu)
}

// MuTables computes Mu for every graph.
func MuTables(graphs []*dag.Graph, m int, be Backend) [][]int64 {
	out := make([][]int64, len(graphs))
	for i, g := range graphs {
		out[i] = Mu(g, m, be)
	}
	return out
}

// TopNPRs returns the min(m, |V|) largest node WCETs of g in
// non-increasing order — the per-task ingredient of LP-max. The result
// is a view of the graph's memoized sorted-WCET list; callers must not
// modify it.
func TopNPRs(g *dag.Graph, m int) []int64 {
	c := g.SortedWCETs()
	return c[:min(len(c), m)]
}

// DeltaMaxFromTops computes the Equation (5) bound for a given core
// count: the sum of the cores largest values among the pooled per-task
// top lists. tops[i] must be sorted non-increasing (as TopNPRs returns)
// and contain at least min(cores, available) entries per task.
func DeltaMaxFromTops(tops [][]int64, cores int) int64 {
	if cores <= 0 {
		return 0
	}
	var pool []int64
	for _, t := range tops {
		pool = append(pool, t[:min(len(t), cores)]...)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] > pool[j] })
	if len(pool) > cores {
		pool = pool[:cores]
	}
	var s int64
	for _, v := range pool {
		s += v
	}
	return s
}

// DeltaMax computes Δ^cores under LP-max (Equation (5)) directly from the
// lower-priority graphs.
func DeltaMax(graphs []*dag.Graph, cores int) int64 {
	tops := make([][]int64, len(graphs))
	for i, g := range graphs {
		tops[i] = TopNPRs(g, cores)
	}
	return DeltaMaxFromTops(tops, cores)
}

// ScenarioWorkload computes ρ[s_l] (Equation (7)): the maximum total
// workload of distinct tasks assigned to the parts of the scenario, task
// on part of size c contributing µ[c]. Parts without a matching task
// contribute zero (dummy-task padding; see DESIGN.md).
//
// The Combinatorial backend solves the strict assignment with the
// Hungarian algorithm. The PaperILP backend solves the printed encoding,
// which for m ≥ 6 may exceed the strict value on scenarios whose part
// sizes can be re-profiled (see ilp.RhoProblem); the Δ aggregation below
// is unaffected.
func ScenarioWorkload(mus [][]int64, m int, scenario []int, be Backend) int64 {
	switch be {
	case Combinatorial:
		w := make([][]int64, len(scenario))
		for p, size := range scenario {
			if size < 1 || size > m {
				panic(fmt.Sprintf("blocking: scenario part %d out of range 1..%d", size, m))
			}
			w[p] = make([]int64, len(mus))
			for i := range mus {
				w[p][i] = mus[i][size-1]
			}
		}
		v, _ := matching.MaxWeightAssignment(w)
		return v
	case PaperILP:
		return ilp.SolveRho(mus, m, scenario)
	}
	panic(fmt.Sprintf("blocking: unknown backend %d", int(be)))
}

// DeltaILP computes Δ^cores under LP-ILP (Equation (8)): the maximum
// over all execution scenarios e_cores of the overall worst-case
// workload.
//
// The Combinatorial backend does not enumerate partitions at all: the
// maximum over partitions of the strict assignment equals the best way
// of giving distinct tasks disjoint core budgets summing to at most
// cores, which a small knapsack-style DP over tasks computes directly.
// TestDeltaILPEqualsScenarioSweep pins the equivalence. The PaperILP
// backend performs the paper's explicit sweep over partitions.
func DeltaILP(mus [][]int64, cores int, be Backend) int64 {
	if cores <= 0 {
		return 0
	}
	switch be {
	case Combinatorial:
		return deltaDP(mus, cores)
	case PaperILP:
		var best int64
		for _, s := range partition.All(cores) {
			best = max(best, ilp.SolveRho(mus, cores, s))
		}
		return best
	}
	panic(fmt.Sprintf("blocking: unknown backend %d", int(be)))
}

// deltaDP maximizes Σ µ_i[c_i] over distinct tasks with Σ c_i ≤ cores,
// c_i ≥ 1. dp[j] is the best workload using at most j cores.
func deltaDP(mus [][]int64, cores int) int64 {
	dp := make([]int64, cores+1)
	for _, mu := range mus {
		next := append([]int64(nil), dp...)
		for j := 1; j <= cores; j++ {
			for c := 1; c <= min(j, len(mu)); c++ {
				next[j] = max(next[j], dp[j-c]+mu[c-1])
			}
		}
		dp = next
	}
	// dp is already monotone in j by construction (dp[j] ≥ dp[j-1]
	// because every c ≤ j-1 choice is also available at j), so dp[cores]
	// is the maximum over all scenarios of e_cores with padding.
	return dp[cores]
}

// Interference bundles the two blocking bounds of a task under analysis.
type Interference struct {
	DeltaM  int64 // Δ^m: blocking on the first NPR (Equation (3))
	DeltaM1 int64 // Δ^{m-1}: blocking at each later preemption point
}

// Method selects how the lower-priority interference is bounded.
type Method int

// Available methods.
const (
	// LPMax is the pessimistic Equation (5) bound.
	LPMax Method = iota
	// LPILP is the precedence-aware Equations (6)-(8) bound.
	LPILP
)

func (m Method) String() string {
	switch m {
	case LPMax:
		return "LP-max"
	case LPILP:
		return "LP-ILP"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Compute derives Δ^m and Δ^{m-1} for a task whose lower-priority set has
// the given graphs, on m cores.
func Compute(graphs []*dag.Graph, m int, method Method, be Backend) Interference {
	switch method {
	case LPMax:
		return Interference{
			DeltaM:  DeltaMax(graphs, m),
			DeltaM1: DeltaMax(graphs, m-1),
		}
	case LPILP:
		mus := MuTables(graphs, m, be)
		return ComputeFromMus(mus, m, be)
	}
	panic(fmt.Sprintf("blocking: unknown method %d", int(method)))
}

// ComputeFromMus is Compute for LP-ILP when the µ tables are already
// available (they are task-local and memoized on their graphs).
//
// Δ^{m-1} needs µ entries only up to c = m-1, which a table computed for
// m cores contains.
func ComputeFromMus(mus [][]int64, m int, be Backend) Interference {
	trunc := make([][]int64, len(mus))
	for i, mu := range mus {
		if len(mu) >= m {
			trunc[i] = mu[:m-1]
		} else {
			trunc[i] = mu
		}
	}
	return Interference{
		DeltaM:  DeltaILP(mus, m, be),
		DeltaM1: DeltaILP(trunc, m-1, be),
	}
}
