// Package gen generates random sporadic DAG task sets following the
// simulation environment of Melani et al. (ECRTS 2015), which is the
// generator the evaluation of Serrano et al. (DATE 2016) uses
// (Section VI-A).
//
// DAGs are grown by recursive fork-join expansion: every non-terminal
// node forks into up to NPar parallel sub-graphs, each of which
// terminates with probability PTerm or keeps expanding with probability
// PPar, down to a nesting depth that caps the longest path. Node WCETs
// are uniform in [CMin, CMax], the node count is capped at MaxNodes, the
// longest path at MaxPathLen nodes.
//
// Two task populations mirror the paper's two experiment groups:
//
//   - GroupMixed: tasks alternate between highly parallel (data-flow) and
//     very limited parallelism or fully sequential (control-flow) —
//     "very common in the embedded domain";
//   - GroupParallel: every task highly parallel with similar widths —
//     "very common in the high-performance domain".
//
// Periods are drawn uniformly from [L, vol/β] (so each task's utilization
// lies in [β, vol/L]), deadlines are implicit (D = T), and task sets are
// assembled by adding tasks until a target utilization is reached, the
// last period being stretched so the total matches the target.
//
// A Generator draws from math/rand's generator, seeded as
// rand.NewSource seeds it, so a seed gives the same task sets it always
// has; the register is filled by jump-ahead (source.go), in place by
// Reseed, which makes the generator-per-task-set pattern of campaigns
// cheap.
package gen

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/model"
)

// DAGParams control the fork-join expansion of a single task graph.
type DAGParams struct {
	PTerm      float64 // probability a sub-graph is a terminal node (paper: 0.4)
	PPar       float64 // probability it keeps expanding (paper: 0.6)
	NPar       int     // maximum parallel branches of a fork (paper: 6)
	MaxNodes   int     // maximum NPRs per DAG (paper: 30)
	MaxPathLen int     // maximum nodes on any path (paper: 7)
	CMin, CMax int64   // node WCET range (paper: [1, 100])
}

// PaperDAGParams returns the Section VI-A parameters.
func PaperDAGParams() DAGParams {
	return DAGParams{
		PTerm:      0.4,
		PPar:       0.6,
		NPar:       6,
		MaxNodes:   30,
		MaxPathLen: 7,
		CMin:       1,
		CMax:       100,
	}
}

// Group selects the task population of Section VI-A.
type Group int

// Task populations.
const (
	// GroupMixed mixes highly parallel and (almost) sequential tasks
	// (the paper's first group).
	GroupMixed Group = iota
	// GroupParallel uses only highly parallel tasks with similar widths
	// (the paper's second group).
	GroupParallel
)

func (g Group) String() string {
	switch g {
	case GroupMixed:
		return "mixed"
	case GroupParallel:
		return "parallel"
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Shape selects a structural DAG family beyond the paper's populations,
// for the extended scenario sweeps of the experiment orchestrator.
type Shape int

// DAG shape families.
const (
	// ShapeAuto picks the population-appropriate shape (the paper's
	// behaviour): sequential-or-parallel for GroupMixed, nested
	// fork-join for GroupParallel.
	ShapeAuto Shape = iota
	// ShapeWide emits a single flat fork-join whose width is at least
	// NPar: maximal parallelism, minimal depth.
	ShapeWide
	// ShapeDeep emits a long chain with occasional two-wide diamonds:
	// maximal depth, very limited parallelism.
	ShapeDeep
	// ShapeOpenMP emits the blocked-LU wavefront of examples/openmp
	// (OpenMP4 depend-clause style): diagonal steps, each fanning out
	// to panel updates whose width shrinks as the wavefront advances —
	// parallelism that starts wide and drains toward a sequential tail.
	ShapeOpenMP
)

func (s Shape) String() string {
	switch s {
	case ShapeAuto:
		return "auto"
	case ShapeWide:
		return "wide"
	case ShapeDeep:
		return "deep"
	case ShapeOpenMP:
		return "openmp"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Params configure a Generator.
type Params struct {
	DAG   DAGParams
	Group Group
	// Shape overrides the per-population DAG structure (ShapeAuto keeps
	// the paper's behaviour).
	Shape Shape
	// Beta is the minimum task utilization β: periods are drawn from
	// [L, vol/Beta] (paper: 0.5).
	Beta float64
	// UMax caps the per-task utilization draw: u ~ U[Beta, UMax].
	// 0 (or anything outside (Beta, 1]) means 1, the paper's setting.
	// Together with Beta this expresses heavy (Beta near 1) and light
	// (UMax well below 1) per-task utilization mixes.
	UMax float64
	// SeqProb is, for GroupMixed, the probability that a task is
	// (almost) sequential. The paper does not print the mixing ratio;
	// one half matches its description of the group. Default 0.5.
	SeqProb float64
}

// PaperParams returns the full Section VI-A configuration for a group.
func PaperParams(group Group) Params {
	return Params{DAG: PaperDAGParams(), Group: group, Beta: 0.5, SeqProb: 0.5}
}

// Generator produces random tasks and task sets, deterministically from
// its seed.
type Generator struct {
	rng    *rand.Rand
	graphs *dag.Arena // where Graph builds; nil for fresh graphs
	params Params
	nTasks int
}

// New returns a Generator with the given seed and parameters.
func New(seed int64, params Params) *Generator { return Reseed(new(Generator), nil, seed, params) }

// Reseed makes g in place the Generator New(seed, params) returns, its
// graphs built into a (fresh when nil); a function, so Generator gains no method.
func Reseed(g *Generator, a *dag.Arena, seed int64, params Params) *Generator {
	d := &params.DAG
	d.NPar, d.MaxNodes, d.MaxPathLen = max(d.NPar, 2), max(d.MaxNodes, 1), max(d.MaxPathLen, 1)
	d.CMin = max(d.CMin, 1)
	d.CMax = max(d.CMax, d.CMin)
	switch params.Shape {
	case ShapeWide:
		// The smallest wide graph is fork + join + 2 branches.
		d.MaxNodes = max(d.MaxNodes, 4)
	case ShapeOpenMP:
		// The smallest wavefront is two diagonals and one panel (a
		// 3-node chain).
		d.MaxNodes, d.MaxPathLen = max(d.MaxNodes, 3), max(d.MaxPathLen, 3)
	}
	if params.Beta <= 0 || params.Beta > 1 {
		params.Beta = 0.5
	}
	if params.UMax <= params.Beta || params.UMax > 1 {
		params.UMax = 1
	}
	if params.SeqProb <= 0 || params.SeqProb >= 1 {
		params.SeqProb = 0.5
	}
	if g.rng == nil {
		g.rng = rand.New(new(source))
	}
	g.rng.Seed(seed)
	g.graphs, g.params, g.nTasks = a, params, 0
	return g
}

// Graph generates one DAG with the generator's parameters, choosing the
// population-appropriate shape (or the explicitly requested family).
func (g *Generator) Graph() *dag.Graph {
	b := builders.Get().(*dag.Builder)
	b.Reset()
	switch {
	case g.params.Shape == ShapeWide:
		g.wideGraph(b)
	case g.params.Shape == ShapeDeep:
		g.deepGraph(b)
	case g.params.Shape == ShapeOpenMP:
		g.openmpGraph(b)
	case g.params.Group == GroupMixed && g.rng.Float64() < g.params.SeqProb:
		g.sequentialGraph(b)
	default:
		g.parallelGraph(b)
	}
	graph, err := dag.BuildIn(g.graphs, b)
	if err != nil {
		panic(err)
	}
	builders.Put(b)
	return graph
}

// builders holds the Builders graphs are generated in. BuildIn copies
// what it keeps, so a Builder serves graph after graph, and generators,
// whether made per task set by New or reseeded in place, do not each
// grow their own node and edge lists.
var builders = sync.Pool{New: func() any { return new(dag.Builder) }}

// sequentialGraph emits a chain — the control-flow tasks of the
// embedded-domain population. Chains use at least three NPRs so that the
// sequential tasks are real programs rather than dust (a one-node task
// with WCET ~U[1,100] would have a deadline smaller than a single
// blocking NPR of its neighbours, drowning the low-utilization end of
// every curve in structural failures the paper does not show).
func (g *Generator) sequentialGraph(b *dag.Builder) {
	lo := 3
	if lo > g.params.DAG.MaxPathLen {
		lo = g.params.DAG.MaxPathLen
	}
	n := lo + g.rng.Intn(g.params.DAG.MaxPathLen-lo+1)
	prev := -1
	for i := 0; i < n; i++ {
		v := b.AddNode(g.wcet())
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
}

// parallelGraph grows a nested fork-join with the paper's expansion
// probabilities. Depth is measured in fork nestings; each nesting adds a
// fork and a join node to every path through it, so the path-length cap
// bounds the admissible depth.
func (g *Generator) parallelGraph(b *dag.Builder) {
	budget := g.params.DAG.MaxNodes
	maxDepth := (g.params.DAG.MaxPathLen - 1) / 2 // nodes on a path of d nestings: 2d+1

	// expand builds a sub-DAG with a unique source and sink and returns
	// them. remaining path budget is tracked via depth.
	var expand func(depth int) (src, sink int)
	expand = func(depth int) (int, int) {
		terminal := depth >= maxDepth || budget < 1+2*2 || // fork+join+2 branches minimum
			g.rng.Float64() < g.params.DAG.PTerm/(g.params.DAG.PTerm+g.params.DAG.PPar)
		if terminal {
			v := b.AddNode(g.wcet())
			budget--
			return v, v
		}
		fork := b.AddNode(g.wcet())
		join := b.AddNode(g.wcet())
		budget -= 2
		nBranch := 2 + g.rng.Intn(g.params.DAG.NPar-1)
		for i := 0; i < nBranch; i++ {
			if budget < 1 {
				break
			}
			s, t := expand(depth + 1)
			b.AddEdge(fork, s)
			b.AddEdge(t, join)
		}
		return fork, join
	}
	// The root expansion must fork at least once for the task to be
	// parallel, so bypass the terminal coin at depth 0 when possible.
	fork := b.AddNode(g.wcet())
	join := b.AddNode(g.wcet())
	budget -= 2
	nBranch := 2 + g.rng.Intn(g.params.DAG.NPar-1)
	for i := 0; i < nBranch; i++ {
		if budget < 1 {
			break
		}
		s, t := expand(1)
		b.AddEdge(fork, s)
		b.AddEdge(t, join)
	}
}

// openmpGraph emits the blocked-LU wavefront of examples/openmp with a
// random number of blocks K: diagonal steps diag(k) for k < K, each
// fanning out to panel updates panel(k,i) for i in (k, K); wavefront
// edges panel(k-1,i) → panel(k,i) carry each column to the next step
// and panel(k-1,k) → diag(k) gates the next diagonal. The DAG has
// K + K(K−1)/2 nodes and a longest path of 2K−1 nodes, so K is drawn
// from [2, Kmax] with Kmax the largest value fitting MaxNodes and
// MaxPathLen.
func (g *Generator) openmpGraph(b *dag.Builder) {
	kMax := 2
	for k := 3; k+k*(k-1)/2 <= g.params.DAG.MaxNodes && 2*k-1 <= g.params.DAG.MaxPathLen; k++ {
		kMax = k
	}
	blocks := 2
	if kMax > 2 {
		blocks = 2 + g.rng.Intn(kMax-1)
	}
	diag := make([]int, blocks)
	panel := make([][]int, blocks)
	for k := 0; k < blocks; k++ {
		diag[k] = b.AddNode(g.wcet())
		panel[k] = make([]int, blocks)
	}
	for k := 0; k < blocks; k++ {
		for i := k + 1; i < blocks; i++ {
			panel[k][i] = b.AddNode(g.wcet())
			b.AddEdge(diag[k], panel[k][i])
			if k > 0 {
				b.AddEdge(panel[k-1][i], panel[k][i])
			}
		}
		if k > 0 {
			b.AddEdge(panel[k-1][k], diag[k])
		}
	}
}

// wideGraph emits one flat fork-join of width ≥ NPar (capped by the node
// budget): the widest structure the node budget admits at path length 3.
func (g *Generator) wideGraph(b *dag.Builder) {
	w := g.params.DAG.NPar + g.rng.Intn(g.params.DAG.NPar+1)
	if w < 2 {
		w = 2
	}
	// The node cap wins over the width floor (New guarantees room for
	// the 4-node minimum fork-join).
	if max := g.params.DAG.MaxNodes - 2; w > max {
		w = max
	}
	fork := b.AddNode(g.wcet())
	join := b.AddNode(g.wcet())
	for i := 0; i < w; i++ {
		v := b.AddNode(g.wcet())
		b.AddEdge(fork, v)
		b.AddEdge(v, join)
	}
}

// deepGraph emits a chain of MaxPathLen nodes in which interior links are
// occasionally widened into two-branch diamonds: the deepest admissible
// structure with token parallelism (width ≤ 2).
func (g *Generator) deepGraph(b *dag.Builder) {
	depth := g.params.DAG.MaxPathLen
	if depth < 3 {
		depth = 3
	}
	budget := g.params.DAG.MaxNodes
	prev := b.AddNode(g.wcet())
	budget--
	for i := 1; i < depth; i++ {
		if budget < 1 {
			break
		}
		// A diamond consumes a path step for the join plus one extra
		// off-path node; take it only with room for both.
		if i+1 < depth && budget >= 3 && g.rng.Float64() < 0.3 {
			left := b.AddNode(g.wcet())
			right := b.AddNode(g.wcet())
			join := b.AddNode(g.wcet())
			b.AddEdge(prev, left)
			b.AddEdge(prev, right)
			b.AddEdge(left, join)
			b.AddEdge(right, join)
			prev = join
			budget -= 3
			i++ // the diamond spans two path steps (branch, join)
			continue
		}
		v := b.AddNode(g.wcet())
		b.AddEdge(prev, v)
		prev = v
		budget--
	}
}

func (g *Generator) wcet() int64 {
	return g.params.DAG.CMin + g.rng.Int63n(g.params.DAG.CMax-g.params.DAG.CMin+1)
}

// Task wraps a fresh graph into a task with an implicit deadline. The
// task utilization is drawn uniformly from [β, UMax] (the paper: [β, 1])
// and the period set to vol/U (never below L): β is the paper's minimum
// task utilization, and capping single-task utilization at 1 reproduces
// the paper's near-complete schedulability at low total utilizations
// (tasks with T ≈ L would otherwise be born unschedulable under any
// blocking).
func (g *Generator) Task() *model.Task {
	graph := g.Graph()
	g.nTasks++
	l := graph.LongestPath()
	vol := graph.Volume()
	u := g.params.Beta + g.rng.Float64()*(g.params.UMax-g.params.Beta)
	period := int64(float64(vol)/u + 0.5)
	if period < l {
		period = l
	}
	return &model.Task{
		Name:     "tau" + strconv.Itoa(g.nTasks),
		G:        graph,
		Deadline: period,
		Period:   period,
	}
}

// TaskSet assembles tasks until the total utilization reaches targetU,
// then scales every period by the common factor ΣU/targetU so the total
// matches the target as closely as integer periods allow (the standard
// assembly of utilization-sweep evaluations: the factor is ≥ 1, so
// deadlines only gain slack), and finally sorts deadline-monotonically
// (rate-monotonic for these implicit-deadline sets). The set always
// contains at least one task.
func (g *Generator) TaskSet(targetU float64) *model.TaskSet {
	if targetU <= 0 {
		targetU = 0.1
	}
	var tasks []*model.Task
	sum := 0.0
	for sum < targetU {
		t := g.Task()
		tasks = append(tasks, t)
		sum += t.Utilization()
	}
	factor := sum / targetU
	if factor > 1 {
		for _, t := range tasks {
			period := int64(float64(t.Period)*factor + 0.5)
			if period < t.G.LongestPath() {
				period = t.G.LongestPath()
			}
			t.Period = period
			t.Deadline = period
		}
	}
	ts := &model.TaskSet{Tasks: tasks}
	ts.SortDeadlineMonotonic()
	return ts
}

// TaskSetN assembles exactly n tasks and scales every period by the
// common factor ΣU/targetU so the total utilization matches the target
// (periods are clamped at L when the factor compresses them below the
// longest path, so very aggressive targets saturate instead of producing
// invalid tasks). Used by the task-count sweep — the alternative reading
// of Figure 2(c), whose printed x-axis is "Number of tasks".
func (g *Generator) TaskSetN(n int, targetU float64) *model.TaskSet {
	if n < 1 {
		n = 1
	}
	if targetU <= 0 {
		targetU = 0.1
	}
	tasks := make([]*model.Task, n)
	sum := 0.0
	for i := range tasks {
		tasks[i] = g.Task()
		sum += tasks[i].Utilization()
	}
	factor := sum / targetU
	for _, t := range tasks {
		period := int64(float64(t.Period)*factor + 0.5)
		if period < t.G.LongestPath() {
			period = t.G.LongestPath()
		}
		t.Period = period
		t.Deadline = period
	}
	ts := &model.TaskSet{Tasks: tasks}
	ts.SortDeadlineMonotonic()
	return ts
}
