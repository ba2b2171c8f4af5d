// Package repair searches preemption-point placement transforms that
// flip an unschedulable task set schedulable.
//
// The paper (Serrano et al., DATE 2016) leaves preemption-point
// placement as the open design dimension of limited-preemptive DAG
// scheduling: the blocking a task suffers is driven by the largest
// non-preemptive regions of lower-priority tasks (Δ^m sums the m
// largest, Δ^{m-1} the m−1 largest), so where the NPR boundaries sit
// decides schedulability. This package turns internal/ppp from a
// passive sweep into an optimizer: given an unschedulable set, it
// searches sequences of per-task transforms — split budgets,
// optional CoarsenChains, optional priority reassignment — for the
// cheapest sequence that makes the set schedulable, or the best
// partial repair when the budget runs out.
//
// The search is anytime and context-cancellable: cancelling mid-search
// returns the best state seen so far (fewest still-failing tasks,
// then largest worst-case slack) rather than an error. Candidates are
// evaluated through a caller-supplied Eval, which sessions bind to a
// from-scratch analysis on the pooled analyzer; the µ tables of graphs
// a transform left alone stay memoized on them, so a candidate solves
// tables only for the graphs it rewrote. A search makes one split (or
// coarsen) per (graph, budget): a transform it has made before returns
// the same graph, so a split reused across frontier states is built,
// fingerprinted and solved once. All enumeration orders are
// fixed and equal-score ties are broken by a seed-pinned rank, so a
// given (task set, Config) pair always yields the same transform
// sequence.
package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/limits"
	"repro/internal/model"
	"repro/internal/ppp"
	"repro/internal/rta"
)

// Strategy selects the search algorithm.
type Strategy int

// Search strategies.
const (
	// Greedy is the blocking-guided beam search: each step expands the
	// frontier with splits that attack the largest NPRs at or below the
	// first failing task and keeps the Beam best states. Linear in
	// MaxSteps; the default.
	Greedy Strategy = iota
	// Exhaustive enumerates transform sequences breadth-first, so the
	// first schedulable state found has the fewest transforms.
	// Exponential in MaxSteps — for small sets and short sequences.
	Exhaustive
)

func (s Strategy) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case Exhaustive:
		return "exhaustive"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a wire spelling onto a Strategy. The empty string
// is Greedy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "greedy":
		return Greedy, nil
	case "exhaustive":
		return Exhaustive, nil
	}
	return 0, fmt.Errorf("repair: invalid strategy: %q (must be greedy or exhaustive)", s)
}

// Op is the kind of one placement transform.
type Op int

// Transform kinds.
const (
	// OpSplit caps a task's NPR lengths at MaxNPR via dag.Split,
	// shrinking the blocking it imposes on higher-priority tasks.
	OpSplit Op = iota
	// OpCoarsen merges a task's preemptible chains up to MaxNPR via
	// ppp.CoarsenChains, shrinking the task's own preemption count.
	OpCoarsen
	// OpMove reassigns a task to priority index To (0 = highest).
	OpMove
)

func (o Op) String() string {
	switch o {
	case OpSplit:
		return "split"
	case OpCoarsen:
		return "coarsen"
	case OpMove:
		return "move"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ParseOp maps a wire spelling onto an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "split":
		return OpSplit, nil
	case "coarsen":
		return OpCoarsen, nil
	case "move":
		return OpMove, nil
	}
	return 0, fmt.Errorf("repair: invalid op: %q (must be split, coarsen or move)", s)
}

// Transform is one placement step. Task names the target: names are
// stable across priority moves, indices are not.
type Transform struct {
	Op     Op
	Task   string
	MaxNPR int64 // split/coarsen budget; unused for OpMove
	To     int   // target priority index; unused otherwise
}

func (t Transform) String() string {
	if t.Op == OpMove {
		return fmt.Sprintf("move %s to %d", t.Task, t.To)
	}
	return fmt.Sprintf("%s %s at %d", t.Op, t.Task, t.MaxNPR)
}

// Search defaults. The candidate cap's default is its wire bound,
// limits.Candidates.
const (
	DefaultMaxSteps = 4
	DefaultBeam     = 4
)

// Config parameterises a Search. The zero value is a usable greedy
// search with derived split budgets.
type Config struct {
	// Strategy selects greedy beam search (default) or exhaustive
	// breadth-first enumeration.
	Strategy Strategy
	// MaxSteps caps the transform-sequence length. 0 means
	// DefaultMaxSteps.
	MaxSteps int
	// Budgets are the candidate NPR-length caps tried for splits and
	// coarsens, each ≥ 1. Empty derives a halving ladder from the
	// set's largest NPR (see DeriveBudgets).
	Budgets []int64
	// Coarsen admits OpCoarsen moves. Off by default: coarsening
	// trades blocking imposed on others for fewer own preemptions,
	// which only pays in priority-inverted corners.
	Coarsen bool
	// Reprioritize admits OpMove promotions of failing tasks. Off by
	// default.
	Reprioritize bool
	// Beam is the greedy frontier width. 0 means DefaultBeam.
	Beam int
	// MaxCandidates caps evaluated candidates; the search returns its
	// best-so-far when the cap strikes. 0 means limits.Candidates.Max.
	MaxCandidates int
	// Seed pins the tie-break rank among equal-scoring candidates.
	// Any fixed value gives reproducible results; it exists so callers
	// can diversify repeated searches, not to add randomness.
	Seed int64
}

// Validate checks the configuration without filling defaults, using
// the repo-wide invalid-field error convention.
func (c Config) Validate() error {
	switch c.Strategy {
	case Greedy, Exhaustive:
	default:
		return fmt.Errorf("repair: invalid Config.Strategy: %d (must be greedy or exhaustive)", int(c.Strategy))
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("repair: invalid Config.MaxSteps: %d (must be ≥ 0; 0 means %d)", c.MaxSteps, DefaultMaxSteps)
	}
	if c.Beam < 0 {
		return fmt.Errorf("repair: invalid Config.Beam: %d (must be ≥ 0; 0 means %d)", c.Beam, DefaultBeam)
	}
	if c.MaxCandidates < 0 {
		return fmt.Errorf("repair: invalid Config.MaxCandidates: %d (must be ≥ 0; 0 means %d)", c.MaxCandidates, limits.Candidates.Max)
	}
	for i, q := range c.Budgets {
		if q < 1 {
			return fmt.Errorf("repair: invalid Config.Budgets[%d]: %d (must be ≥ 1)", i, q)
		}
	}
	return nil
}

func (c Config) withDefaults(tasks []*model.Task) (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.Beam == 0 {
		c.Beam = DefaultBeam
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = int(limits.Candidates.Max)
	}
	if len(c.Budgets) == 0 {
		c.Budgets = DeriveBudgets(tasks)
	}
	return c, nil
}

// DeriveBudgets returns the default split ladder for a task set: the
// set's largest NPR halved one, two and three times, floored at 1 and
// deduplicated. Exported so clients can display what a default search
// will try.
func DeriveBudgets(tasks []*model.Task) []int64 {
	var w int64
	for _, t := range tasks {
		if t.G == nil {
			continue
		}
		if m := t.G.MaxWCET(); m > w {
			w = m
		}
	}
	var out []int64
	for _, d := range []int64{2, 4, 8} {
		q := w / d
		if q < 1 {
			q = 1
		}
		if n := len(out); n == 0 || out[n-1] != q {
			out = append(out, q)
		}
	}
	return out
}

// Result is the outcome of a Search.
type Result struct {
	// Fixed reports whether Tasks analyzes schedulable. An already-
	// schedulable input yields Fixed with an empty Transforms.
	Fixed bool
	// Stopped reports the anytime exit: the context was cancelled or
	// MaxCandidates struck before the search space was exhausted, so
	// Transforms is the best partial repair seen, not a proven optimum.
	Stopped bool
	// Transforms is the winning sequence in application order.
	Transforms []Transform
	// Candidates counts evaluated placements (analyzer calls).
	Candidates int
	// FailingBefore and FailingAfter count analyzed-and-missing tasks
	// in the input and repaired sets.
	FailingBefore, FailingAfter int
	// SlackBefore and SlackAfter are the minimum m·D − R^m over
	// analyzed tasks (m-scaled time units; negative means a miss).
	SlackBefore, SlackAfter int64
	// Tasks is the repaired priority ordering and Report its analysis
	// — exactly the set a caller commits when applying the repair.
	Tasks  []*model.Task
	Report *core.Report
}

// Eval analyzes one candidate priority ordering under the caller's
// fixed options. Sessions bind it to a from-scratch analysis on the
// pooled analyzer under the session's options.
type Eval func(ctx context.Context, tasks []*model.Task) (*core.Report, error)

// Apply replays a transform sequence onto a priority ordering and
// returns the transformed ordering. Transformed tasks are fresh
// *model.Task values (sessions treat tasks as immutable); untouched
// tasks keep their identity.
func Apply(tasks []*model.Task, trs []Transform) ([]*model.Task, error) {
	out := append([]*model.Task(nil), tasks...)
	for i, tr := range trs {
		next, err := applyOne(out, tr, transformGraph)
		if err != nil {
			return nil, fmt.Errorf("repair: transform %d (%s): %w", i, tr, err)
		}
		out = next
	}
	return out, nil
}

// transformGraph returns g split or coarsened at budget q.
func transformGraph(g *dag.Graph, op Op, q int64) *dag.Graph {
	if op == OpSplit {
		return dag.Split(g, q)
	}
	return ppp.CoarsenChains(g, q)
}

// splitFits reports whether dag.Split(g, q), with its Σ⌈C_v/q⌉ nodes
// and a chain edge per extra piece, stays within the limits shape bounds
// of a decoded task, counted before anything is built. A repaired
// session then always restores from its own snapshot.
func splitFits(g *dag.Graph, q int64) bool {
	nodes := int64(0)
	for v := range g.N() {
		if nodes += (g.WCET(v)-1)/q + 1; limits.Check(limits.Nodes, nodes) != nil {
			return false
		}
	}
	extra := nodes - int64(g.N())
	return limits.Check(limits.Edges, int64(g.NumEdges())+extra) == nil
}

// applyOne applies tr to tasks, rewriting graphs through transform.
func applyOne(tasks []*model.Task, tr Transform, transform func(*dag.Graph, Op, int64) *dag.Graph) ([]*model.Task, error) {
	idx := -1
	for i, t := range tasks {
		if t.Name == tr.Task {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown task %q", tr.Task)
	}
	out := append([]*model.Task(nil), tasks...)
	switch tr.Op {
	case OpSplit, OpCoarsen:
		if tr.MaxNPR < 1 {
			return nil, fmt.Errorf("invalid MaxNPR: %d (must be ≥ 1)", tr.MaxNPR)
		}
		t := out[idx]
		out[idx] = &model.Task{Name: t.Name, G: transform(t.G, tr.Op, tr.MaxNPR), Deadline: t.Deadline, Period: t.Period}
	case OpMove:
		if tr.To < 0 || tr.To >= len(out) {
			return nil, fmt.Errorf("invalid To: %d (must be in [0, %d])", tr.To, len(out)-1)
		}
		t := out[idx]
		out = append(out[:idx], out[idx+1:]...)
		out = append(out, nil)
		copy(out[tr.To+1:], out[tr.To:])
		out[tr.To] = t
	default:
		return nil, fmt.Errorf("invalid Op: %d", int(tr.Op))
	}
	return out, nil
}

// score orders candidate states: schedulable beats everything, then
// fewer failing tasks, then the larger worst-case m-scaled slack.
// (Schedulable is tracked separately from the failing count: a report
// can be unschedulable with zero per-task failures when a task was
// never analyzed.)
type score struct {
	sched   bool
	failing int
	slackM  int64
}

func scoreOf(rep *core.Report) score {
	s := score{sched: rep.Schedulable}
	first := true
	for _, tr := range rep.Tasks {
		if !tr.Analyzed {
			continue
		}
		if !tr.Schedulable {
			s.failing++
		}
		slack := int64(rep.Cores)*tr.Deadline - tr.ResponseTimeM
		if first || slack < s.slackM {
			s.slackM = slack
			first = false
		}
	}
	return s
}

func (a score) better(b score) bool {
	if a.sched != b.sched {
		return a.sched
	}
	if a.failing != b.failing {
		return a.failing < b.failing
	}
	return a.slackM > b.slackM
}

// mix64 is the splitmix64 finalizer, the repo's standard bit mixer for
// deterministic derived pseudo-randomness (see experiments.SeedFor).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tieRank is the pinned tie-break among equal-scoring candidates:
// purely a function of (seed, step, enumeration index), never of
// timing or map order.
func tieRank(seed int64, step, cand int) uint64 {
	return mix64(mix64(uint64(seed)) ^ mix64(uint64(step)<<32|uint64(uint32(cand))))
}

// state is one search node: a candidate ordering, the transform chain
// that produced it, and its evaluated score.
type state struct {
	tasks []*model.Task
	chain []Transform
	sc    score
	rep   *core.Report
	rank  uint64
}

// stateKey identifies a candidate up to analysis equivalence: the
// priority order of (name, graph-content) pairs. Deadlines and periods
// never change under repair transforms, so they are not keyed. The key
// is sized first, so building it allocates once.
func stateKey(tasks []*model.Task) string {
	var b strings.Builder
	size := 0
	for _, t := range tasks {
		size += len(t.Name) + len(t.G.Fingerprint()) + 2
	}
	b.Grow(size)
	for _, t := range tasks {
		b.WriteString(t.Name)
		b.WriteByte(':')
		fp := t.G.Fingerprint()
		b.Write(fp[:])
		b.WriteByte(';')
	}
	return b.String()
}

// Search looks for the cheapest transform sequence that makes tasks
// schedulable under eval, or the best partial repair within budget.
// Cancelling ctx mid-search is the anytime exit: the best-so-far
// Result is returned with Stopped set, not an error. Errors are
// reserved for invalid input and failing evaluation of the input set: a
// candidate whose analysis leaves int64 (rta.ErrOverflow) is counted
// and skipped, as a split past the shape bounds is never built.
func Search(ctx context.Context, tasks []*model.Task, cfg Config, eval Eval) (*Result, error) {
	if len(tasks) == 0 {
		return nil, errors.New("repair: invalid task set: empty (must have ≥ 1 task)")
	}
	if eval == nil {
		return nil, errors.New("repair: invalid eval: nil")
	}
	seenName := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t == nil || t.G == nil {
			return nil, errors.New("repair: invalid task set: nil task or graph")
		}
		if seenName[t.Name] {
			return nil, fmt.Errorf("repair: invalid task set: duplicate name %q (transforms address tasks by name)", t.Name)
		}
		seenName[t.Name] = true
	}
	cfg, err := cfg.withDefaults(tasks)
	if err != nil {
		return nil, err
	}

	r := &searcher{cfg: cfg, eval: eval, graphs: map[graphOp]*dag.Graph{}}
	base := &state{tasks: append([]*model.Task(nil), tasks...)}
	if err := r.evaluate(ctx, base); err != nil {
		return nil, err
	}
	r.best = base
	res := &Result{FailingBefore: base.sc.failing, SlackBefore: base.sc.slackM}
	if !base.rep.Schedulable {
		var stopped bool
		if cfg.Strategy == Exhaustive {
			stopped = r.exhaustive(ctx, base)
		} else {
			stopped = r.greedy(ctx, base)
		}
		if r.err != nil {
			return nil, r.err
		}
		res.Stopped = stopped
	}
	best := r.best
	res.Fixed = best.rep.Schedulable
	res.Transforms = best.chain
	res.Candidates = r.candidates
	res.FailingAfter = best.sc.failing
	res.SlackAfter = best.sc.slackM
	res.Tasks = best.tasks
	res.Report = best.rep
	return res, nil
}

type searcher struct {
	cfg        Config
	eval       Eval
	candidates int
	best       *state
	err        error                  // fatal (non-context) evaluation failure
	graphs     map[graphOp]*dag.Graph // transform's results
}

// graphOp is one graph transform: source graph, split or coarsen, budget.
type graphOp struct {
	g  *dag.Graph
	op Op
	q  int64
}

// transform is transformGraph with one result per (graph, op, budget)
// for the whole search: a split reused across frontier states is the
// same graph, so its fingerprint and µ tables are computed once.
func (r *searcher) transform(g *dag.Graph, op Op, q int64) *dag.Graph {
	k := graphOp{g, op, q}
	t, ok := r.graphs[k]
	if !ok {
		t = transformGraph(g, op, q)
		r.graphs[k] = t
	}
	return t
}

func (r *searcher) evaluate(ctx context.Context, s *state) error {
	rep, err := r.eval(ctx, s.tasks)
	if err != nil {
		return err
	}
	r.candidates++
	s.rep = rep
	s.sc = scoreOf(rep)
	return nil
}

// exhausted reports whether the anytime budget has struck.
func (r *searcher) exhausted(ctx context.Context) bool {
	return ctx.Err() != nil || r.candidates >= r.cfg.MaxCandidates
}

// consider promotes s to best if it scores strictly better, or ties
// the score with a smaller pinned rank.
func (r *searcher) consider(s *state) {
	if s.sc.better(r.best.sc) || (s.sc == r.best.sc && s.rank < r.best.rank && len(r.best.chain) > 0) {
		r.best = s
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// moves enumerates the candidate transforms of one unschedulable
// state, in fixed order. The blocking guidance: the first failing
// task k's bound is dominated by Δ^m/Δ^{m-1}, the sums of the largest
// NPRs among lower-priority tasks, so splits target tasks below k in
// descending largest-NPR order. Exhaustive mode widens split targets
// to every task (a failing task's own NPRs bound its intra-task
// blocking too).
func (r *searcher) moves(s *state) []Transform {
	k := -1
	for i, tr := range s.rep.Tasks {
		if tr.Analyzed && !tr.Schedulable {
			k = i
			break
		}
	}
	if k < 0 {
		return nil
	}
	n := len(s.tasks)
	var out []Transform

	// Greedy: only tasks below k can block it, and splitting k itself
	// would add preemption points (a larger p_k) without shrinking any
	// Δ term of its bound. Exhaustive: every task, every effect.
	lo := k + 1
	if r.cfg.Strategy == Exhaustive {
		lo = 0
	}
	type target struct {
		idx int
		max int64
	}
	targets := make([]target, 0, n-lo)
	for j := lo; j < n; j++ {
		targets = append(targets, target{j, s.tasks[j].G.MaxWCET()})
	}
	sort.SliceStable(targets, func(a, b int) bool { return targets[a].max > targets[b].max })
	for _, tg := range targets {
		for _, q := range r.cfg.Budgets {
			if tg.max <= q || !splitFits(s.tasks[tg.idx].G, q) {
				continue // the split would be a no-op, or past the shape bounds
			}
			out = append(out, Transform{Op: OpSplit, Task: s.tasks[tg.idx].Name, MaxNPR: q})
		}
	}
	if r.cfg.Coarsen {
		// Coarsening a failing task shrinks its own preemption count
		// p_k, hence its p_k·Δ^{m-1} term.
		for i, tr := range s.rep.Tasks {
			if !tr.Analyzed || tr.Schedulable {
				continue
			}
			for _, q := range r.cfg.Budgets {
				out = append(out, Transform{Op: OpCoarsen, Task: s.tasks[i].Name, MaxNPR: q})
			}
		}
	}
	if r.cfg.Reprioritize {
		// Promote the first failing task into each higher slot.
		for to := 0; to < k; to++ {
			out = append(out, Transform{Op: OpMove, Task: s.tasks[k].Name, To: to})
		}
	}
	return out
}

// expand evaluates the children of s at the given depth, appending
// fresh ones to next and reporting whether the budget struck. seen
// dedups analysis-equivalent states across the whole search.
func (r *searcher) expand(ctx context.Context, s *state, depth int, cand *int, seen map[string]bool, next *[]*state) (stop bool) {
	for _, tr := range r.moves(s) {
		if r.exhausted(ctx) {
			return true
		}
		tasks, err := applyOne(s.tasks, tr, r.transform)
		if err != nil {
			continue // unreachable for generated moves
		}
		key := stateKey(tasks)
		if seen[key] {
			continue
		}
		seen[key] = true
		c := &state{
			tasks: tasks,
			chain: append(append([]Transform(nil), s.chain...), tr),
			rank:  tieRank(r.cfg.Seed, depth, *cand),
		}
		*cand++
		if err := r.evaluate(ctx, c); err != nil {
			if isCtxErr(err) {
				return true
			}
			if errors.Is(err, rta.ErrOverflow) {
				r.candidates++
				continue
			}
			r.err = err
			return true
		}
		r.consider(c)
		if c.rep.Schedulable {
			return true // first hit at this depth wins; chains are depth+1 long
		}
		*next = append(*next, c)
	}
	return false
}

// greedy is the blocking-guided beam search. It reports whether the
// anytime budget struck before the search converged.
func (r *searcher) greedy(ctx context.Context, base *state) bool {
	seen := map[string]bool{stateKey(base.tasks): true}
	frontier := []*state{base}
	for depth := 0; depth < r.cfg.MaxSteps; depth++ {
		frontierBest := frontier[0].sc
		var children []*state
		cand := 0
		for _, s := range frontier {
			if r.expand(ctx, s, depth, &cand, seen, &children) {
				return r.err == nil && r.best.rep != nil && !r.best.rep.Schedulable && r.exhausted(ctx)
			}
		}
		if len(children) == 0 {
			return false
		}
		sort.SliceStable(children, func(a, b int) bool {
			if children[a].sc != children[b].sc {
				return children[a].sc.better(children[b].sc)
			}
			return children[a].rank < children[b].rank
		})
		if !children[0].sc.better(frontierBest) {
			return false // local optimum: no child improves the frontier
		}
		if len(children) > r.cfg.Beam {
			children = children[:r.cfg.Beam]
		}
		frontier = children
	}
	return false
}

// exhaustive is the breadth-first enumeration: the first schedulable
// state found has the fewest transforms. It reports whether the
// anytime budget struck before the space was exhausted.
func (r *searcher) exhaustive(ctx context.Context, base *state) bool {
	seen := map[string]bool{stateKey(base.tasks): true}
	frontier := []*state{base}
	for depth := 0; depth < r.cfg.MaxSteps && len(frontier) > 0; depth++ {
		var next []*state
		cand := 0
		for _, s := range frontier {
			if r.expand(ctx, s, depth, &cand, seen, &next) {
				return r.err == nil && r.best.rep != nil && !r.best.rep.Schedulable && r.exhausted(ctx)
			}
		}
		frontier = next
	}
	return false
}
