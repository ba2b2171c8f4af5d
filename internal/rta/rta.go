// Package rta implements the response-time analysis of Serrano et al.
// (DATE 2016) for sporadic DAG tasks under global fixed-priority
// scheduling, in three variants:
//
//   - FP-ideal: the fully-preemptive bound of Melani et al. (ECRTS 2015),
//     Equation (1) of the paper, with zero preemption overhead and no
//     lower-priority interference — the paper's idealised baseline;
//   - LP-max: Equation (4) with the Equation (5) blocking bound;
//   - LP-ILP: Equation (4) with the Equations (6)-(8) blocking bound.
//
// # Exact arithmetic
//
// Equations (1)/(4) mix integer terms with the rational self-interference
// term (vol-L)/m. To keep schedulability verdicts exact, all response
// times are carried scaled by m: Rm = m·R. In scaled form the fixed point
// is
//
//	Rm ← m·L + (vol - L) + m·⌊(I_lp + I_hp)/m⌋
//
// and every quantity is an int64; a task is schedulable iff its fixed
// point satisfies Rm ≤ m·D. The carry-in workload bound of an interferer
// τ_i in a window of (scaled) length Rm is, with X = Rm + Rm_i - vol_i,
//
//	W_i = ⌊X/(m·T_i)⌋·vol_i + min(vol_i, X mod (m·T_i))
//
// which is Melani et al.'s W_i(Δ) = ⌊(Δ+R_i-vol_i/m)/T_i⌋·vol_i +
// min(vol_i, m·((Δ+R_i-vol_i/m) mod T_i)) evaluated exactly.
//
// No intermediate wraps: before the Δ fold takes a task in and before
// task k's fixed point forms a product, every intermediate is bounded
// from what the analyzer holds, and a *RangeError naming the task
// refuses the analysis when a bound leaves int64 (DESIGN.md, "Exact
// arithmetic", has the argument).
package rta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/blocking"
	"repro/internal/dag"
	"repro/internal/engine/cache"
	"repro/internal/model"
	"repro/internal/obs"
)

// Method selects the analysis variant.
type Method int

// Analysis variants.
const (
	// FPIdeal is Equation (1): fully preemptive, no blocking, no
	// preemption cost.
	FPIdeal Method = iota
	// LPMax is Equation (4) with Equation (5) blocking.
	LPMax
	// LPILP is Equation (4) with Equations (6)-(8) blocking.
	LPILP
)

func (m Method) String() string {
	switch m {
	case FPIdeal:
		return "FP-ideal"
	case LPMax:
		return "LP-max"
	case LPILP:
		return "LP-ILP"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Config parameterises an analysis run.
type Config struct {
	M      int    // number of identical cores, ≥ 1
	Method Method // analysis variant

	// Cache, when non-nil, memoizes the content-addressed per-graph
	// µ[c] tables (Equation (6)) across graph instances. It backs the
	// µ memo on each dag.Graph, not the other way round: a lookup
	// reaches the shared cache only when the graph holds no table for
	// M cores yet, so steady-state re-analysis costs the same with or
	// without it, while structurally identical graphs built elsewhere
	// (fresh deserializations of recurring task sets) skip the clique
	// search. A graph analyzed once and never seen again, such as a
	// freshly generated one, only pays the fingerprint and an entry,
	// so such callers leave Cache nil. Cheaper quantities
	// (top-NPR lists, suffix Δ aggregates) are never cached —
	// recompute wins. Results are identical with or without a cache.
	Cache *cache.Cache

	// FinalNPRRefinement enables the paper's future-work item (ii): for
	// tasks whose DAG has a single sink, once the final non-preemptive
	// region starts it runs to completion, so interference and blocking
	// only need to be accounted until its start. The bound becomes
	//
	//	R_k = S_k + C_sink,   S_k = (L-C_sink) + (vol-C_sink-(L-C_sink))/m
	//	                            + ⌊(I_lp + I_hp(S_k))/m⌋
	//
	// i.e. the Equation (4) fixed point for the sub-DAG without the sink
	// evaluated over the (smaller) window S_k, plus the sink's WCET.
	// Both interference terms are non-decreasing in the window, so the
	// refined bound never exceeds the plain one; tests assert this and
	// the simulator oracle covers soundness. Tasks with several sinks
	// fall back to the plain bound. Ignored for FPIdeal.
	FinalNPRRefinement bool

	// AblateRepeatedBlocking drops the p_k·Δ^{m-1} term of Equation (3),
	// keeping only the initial Δ^m blocking. This is UNSOUND as a
	// schedulability test and exists only for the ablation experiments
	// that quantify how much of the LP pessimism the repeated-blocking
	// term contributes. Ignored for FPIdeal.
	AblateRepeatedBlocking bool

	// Trace, when non-nil, records analysis-phase span timings (blocking
	// pushes, cache lookups, per-task fixed points) into the given
	// histograms. Nil — the default — keeps the hot path at one
	// predictable branch per phase and zero extra allocation; verdicts
	// and results are identical either way.
	Trace *obs.Trace

	// DonationSafeBlocking counts every preemption point as a potential
	// blocking episode: p_k = q_k instead of the paper's
	// p_k = min(q_k, h_k). The paper's min assumes repeated blocking
	// requires a higher-priority-induced preemption, which its
	// sequential-task substrate (RTNS 2015) guarantees — but a DAG task
	// under eager work-conserving scheduling also yields cores at
	// parallelism dips (a join waiting on a long branch), and a
	// lower-priority NPR picked up at such a dip blocks the task with
	// no preemption involved; successive dips can even be blocked by
	// NPRs of one chain that the precedence-aware Δ^m counts only once.
	// The differential soundness harness found generated sets whose
	// simulated response exceeds the paper-exact LP-ILP bound this way
	// (see DESIGN.md, "Eager-donation blocking gap", and the pinned
	// reproducer in internal/experiments). Every blocking episode after
	// the initial one starts at a node boundary of τ_k, so q_k bounds
	// the episode count and p_k = q_k restores soundness under eager
	// donation, at the price of extra pessimism. Off by default: the
	// default analysis reproduces the paper. Ignored for FPIdeal.
	DonationSafeBlocking bool
}

// DefaultMaxIterations bounds the fixed-point loop per task as a safety
// net. The iteration is monotone and bounded by m·D, so the limit only
// matters for adversarial inputs.
const DefaultMaxIterations = 1_000_000

// TaskResult reports the analysis of one task.
type TaskResult struct {
	Name        string
	Schedulable bool
	Analyzed    bool // false when analysis stopped at a higher-priority failure

	// ResponseTimeM is the response-time upper bound scaled by M
	// (Rm = m·R). When the task is unschedulable it holds the first
	// value that exceeded m·D.
	ResponseTimeM int64

	Iterations int

	// Blocking terms used (zero for FP-ideal).
	DeltaM  int64
	DeltaM1 int64

	// Preemptions is p_k = min(q_k, h_k) at the final window.
	Preemptions int64

	// InterferenceHP and InterferenceLP are I_hp and I_lp at the fixed
	// point (unscaled workload units).
	InterferenceHP int64
	InterferenceLP int64
}

// RangeError refuses an analysis in which an intermediate of task
// Task's m-scaled fixed point, or of the Δ fold of the tasks below it,
// could leave int64 on M cores. It unwraps to ErrOverflow.
type RangeError struct {
	Task string
	M    int
}

// ErrOverflow marks values that leave int64.
var ErrOverflow = errors.New("overflow int64")

func (e *RangeError) Error() string {
	return fmt.Sprintf("rta: task %q: response-time terms scaled by m = %d %v", e.Task, e.M, ErrOverflow)
}

func (e *RangeError) Unwrap() error { return ErrOverflow }

// addSat and mulSat add and multiply non-negative values, saturating at
// math.MaxInt64, the range checks' "out of range".
func addSat(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

func mulSat(a, b int64) int64 {
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi == 0 && lo < math.MaxInt64 {
		return int64(lo)
	}
	return math.MaxInt64
}

// ResponseTimeCeil returns ⌈R⌉ in time units for an analysis on m cores.
func (r *TaskResult) ResponseTimeCeil(m int) int64 {
	return (r.ResponseTimeM + int64(m) - 1) / int64(m)
}

// Result reports the analysis of a whole task set.
type Result struct {
	Schedulable bool
	Tasks       []TaskResult
	Method      Method
	M           int
}

// Analyzer runs the response-time analysis with one configuration at a
// time, reusing every internal buffer across calls: the structural
// scratch (per-task volumes, longest paths, response bounds), the
// suffix-incremental blocking aggregators, and the result itself for
// AnalyzeInPlace. It holds no µ tables: those are memoized on their
// graphs (see muTable), so an analyzer pins no graph beyond the set it
// last analyzed. In steady state — re-analyzing task sets whose graphs
// hold their µ tables — AnalyzeInPlace and Schedulable perform no heap
// allocation at all (asserted by TestAnalyzerSteadyStateZeroAlloc). The
// zero Analyzer is unconfigured; Reconfigure configures it, which is
// how core draws analyzers of any configuration from one process-wide
// pool.
//
// An Analyzer is NOT safe for concurrent use; give each worker its own.
type Analyzer struct {
	cfg Config

	// Per-set scratch, grown to the largest set analyzed.
	vols, longs, rm []int64
	graphs          []*dag.Graph
	suffix          []blocking.Interference // suffix[k]: Δ pair of graphs[k+1:]
	lower           []blocking.Interference // Schedulable's lower bound on suffix[k]
	agg, lowAgg     blocking.SuffixAggregator

	res Result
}

// validateConfig checks cfg, naming the offending field and value the
// way every layer of the API does (see TestConfigValidationErrors).
func validateConfig(cfg Config) error {
	if cfg.M < 1 {
		return fmt.Errorf("rta: invalid Config.M: %d (must be ≥ 1)", cfg.M)
	}
	switch cfg.Method {
	case FPIdeal, LPMax, LPILP:
	default:
		return fmt.Errorf("rta: invalid Config.Method: %v", cfg.Method)
	}
	return nil
}

// NewAnalyzer validates the configuration and returns a reusable
// Analyzer.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	return &Analyzer{cfg: cfg}, nil
}

// Reconfigure swaps the analyzer's configuration. Scratch buffers are
// kept, and the µ tables memoized on the graphs serve every core count
// up to the largest already solved, so a pooled analyzer moving between
// configurations pays re-analysis, not re-allocation or re-solving.
func (a *Analyzer) Reconfigure(cfg Config) error {
	if err := validateConfig(cfg); err != nil {
		return err
	}
	a.cfg = cfg
	return nil
}

// Analyze runs the analysis and returns a freshly allocated Result the
// caller owns. The context cancels long analyses between tasks and
// between fixed-point chunks.
func (a *Analyzer) Analyze(ctx context.Context, ts *model.TaskSet) (*Result, error) {
	r, err := a.AnalyzeInPlace(ctx, ts)
	if err != nil {
		return nil, err
	}
	out := *r
	out.Tasks = append([]TaskResult(nil), r.Tasks...)
	return &out, nil
}

// Analyze runs the response-time analysis on the task set under the
// given configuration. Tasks are processed in priority order; if a task
// is found unschedulable, the set verdict is unschedulable and the
// remaining (lower-priority) tasks are reported unanalyzed, mirroring the
// iterative structure of Equation (1) which needs each higher-priority
// response time as input.
//
// One-shot convenience over NewAnalyzer; callers analyzing more than one
// set should hold an Analyzer to reuse its scratch state, or use a
// core.Analyzer, which draws one from a process-wide pool per call.
func Analyze(ctx context.Context, ts *model.TaskSet, cfg Config) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	a, err := NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	return a.Analyze(ctx, ts)
}

// ensure sizes the scratch buffers for an n-task set. Allocation-free
// once the buffers have grown.
func (a *Analyzer) ensure(n int) {
	if cap(a.vols) < n {
		a.vols = make([]int64, n)
		a.longs = make([]int64, n)
		a.rm = make([]int64, n)
		a.graphs = make([]*dag.Graph, n)
		a.suffix = make([]blocking.Interference, n)
		a.lower = make([]blocking.Interference, n)
	}
	a.vols, a.longs, a.rm = a.vols[:n], a.longs[:n], a.rm[:n]
	a.graphs, a.suffix, a.lower = a.graphs[:n], a.suffix[:n], a.lower[:n]
	// Shrinking must not pin the previous, larger set: clear the
	// pointer-holding tail up to the high-water mark so those graphs
	// (with their lazily memoized O(V²) bitsets) stay collectable.
	clear(a.graphs[n:cap(a.graphs)])
	if cap(a.res.Tasks) < n {
		a.res.Tasks = make([]TaskResult, n)
	}
	a.res.Tasks = a.res.Tasks[:n]
}

// muTable returns the combinatorial µ table of g (LP-ILP path); the
// paper-ILP solver is the tests' oracle for it. The graph's own memo
// answers when it holds a table for M cores. Otherwise the shared
// content-addressed cache does, when one is configured, and its table
// is stored on the graph, so the clique search runs at most once per
// graph structure across every analyzer sharing the cache. Without a
// cache, blocking.Mu solves and stores. Only the
// shared fetch is traced as a cache lookup; graph memo hits are below
// measurement noise.
func (a *Analyzer) muTable(g *dag.Graph) []int64 {
	if mu := blocking.MemoMu(g, a.cfg.M); mu != nil {
		return mu
	}
	if a.cfg.Cache == nil {
		return blocking.Mu(g, a.cfg.M, blocking.Combinatorial)
	}
	var t0 time.Time
	if a.cfg.Trace != nil {
		t0 = time.Now()
	}
	mu := a.cfg.Cache.MuTable(g, a.cfg.M, blocking.Combinatorial)
	if a.cfg.Trace != nil {
		a.cfg.Trace.CacheLookup.Since(t0)
	}
	blocking.StoreMu(g, mu)
	return mu
}

// push feeds one graph into the suffix aggregators. LP-max needs only
// the graph's memoized sorted-WCET list; LP-ILP fetches the µ table
// through the graph memo and the cache (see muTable). Schedulable's
// bracket pushes the sorted list and its head, [µ[1]], into lowAgg.
func (a *Analyzer) push(g *dag.Graph, bracket bool) {
	trace := a.cfg.Trace
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	a.pushInner(g, bracket)
	if trace != nil {
		trace.SuffixPush.Since(t0)
	}
}

func (a *Analyzer) pushInner(g *dag.Graph, bracket bool) {
	switch {
	case bracket:
		tops := g.SortedWCETs()
		a.agg.PushTops(tops)
		a.lowAgg.PushMu(tops[:min(len(tops), 1)])
	case a.cfg.Method == LPILP:
		a.agg.PushMu(a.muTable(g))
	default: // LPMax
		a.agg.PushTops(g.SortedWCETs())
	}
}

// ctxCheckStride is how many fixed-point iterations run between
// cancellation checks. Iterations are cheap; checking every one would
// dominate short solves.
const ctxCheckStride = 1024

// AnalyzeInPlace runs the analysis and returns the analyzer's internal
// Result, valid until the next call on this analyzer. This is the one
// analysis routine and its zero-allocation entry point; callers that
// need the result to outlive the next call must use Analyze. One
// bottom-up scan pushes each lower-priority graph into the suffix
// aggregator once and records the Δ pair of every suffix, then the
// Equation (4) fixed points run top-down. The context is observed
// between blocking pushes, between tasks and every ctxCheckStride
// fixed-point iterations, so a cancelled long LP-ILP solve returns
// promptly; a cancelled call leaves nothing behind that the next one
// reads.
func (a *Analyzer) AnalyzeInPlace(ctx context.Context, ts *model.TaskSet) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	a.cfg.Trace.RecordFull()
	if err := a.fold(ctx, ts, false); err != nil {
		return nil, err
	}
	if err := a.fixedPoints(ctx, ts, a.suffix); err != nil {
		return nil, err
	}
	return &a.res, nil
}

// Schedulable returns the verdict of AnalyzeInPlace, error for error,
// without a Result. An LP-ILP set whose lower-priority graphs hold no µ
// table for M yet is bracketed first by the same fixed points on two
// µ-free Δ folds: LP-max's above LP-ILP's, and each task's heaviest NPR
// alone below it. Only a set the two leave open, or one a guard or an
// error turns away, pays the µ tables and the full pass (DESIGN.md,
// "Verdicts by bracket", has the proof).
func (a *Analyzer) Schedulable(ctx context.Context, ts *model.TaskSet) (bool, error) {
	if a.bracketed(ts) && a.fold(ctx, ts, true) == nil {
		if a.fixedPoints(ctx, ts, a.suffix) == nil && a.res.Schedulable && a.settled(ts) {
			return true, nil
		}
		// The lower pass checks every range against LP-max's Δ, so the
		// full pass cannot refuse a task the lower one analyzed.
		if a.fixedPoints(ctx, ts, a.lower) == nil && !a.res.Schedulable && a.settled(ts) {
			return false, nil
		}
	}
	res, err := a.AnalyzeInPlace(ctx, ts)
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// bracketed gates Schedulable's bracket: a valid LP-ILP set of two or
// more tasks whose lower-priority graphs hold no µ table for M. A set
// whose tables are memoized has no solve to save.
func (a *Analyzer) bracketed(ts *model.TaskSet) bool {
	if a.cfg.Method != LPILP || ts.N() < 2 || ts.Validate() != nil {
		return false
	}
	for _, t := range ts.Tasks[1:] {
		if blocking.MemoMu(t.G, a.cfg.M) != nil {
			return false
		}
	}
	return true
}

// settled reports whether the bracket pass in a.res stands clear of the
// iteration cap: LP-ILP climbs from each base in steps of at least m to
// at most the fixed points of a pass that met every deadline, so these
// must lie fewer than DefaultMaxIterations steps up, and a pass's miss
// must have passed m·D, not stopped at the cap.
func (a *Analyzer) settled(ts *model.TaskSet) bool {
	m := int64(a.cfg.M)
	for k, tr := range a.res.Tasks {
		if !tr.Schedulable {
			return tr.ResponseTimeM > m*ts.Tasks[k].Deadline
		}
		if a.res.Schedulable && (tr.InterferenceLP+tr.InterferenceHP)/m >= DefaultMaxIterations {
			return false
		}
	}
	return true
}

// fold loads ts into the scratch and folds the blocking terms bottom-up:
// suffix[k] is the Δ pair of graphs[k+1:], from the empty lowest
// suffix, and for the bracket lower[k] too. The fold's entries stay
// within the pushed volume sum.
func (a *Analyzer) fold(ctx context.Context, ts *model.TaskSet, bracket bool) error {
	cfg := a.cfg
	n := ts.N()
	a.ensure(n)
	for i, t := range ts.Tasks {
		a.vols[i], a.longs[i] = t.G.Volume(), t.G.LongestPath()
		a.graphs[i] = t.G
	}
	if cfg.Method == FPIdeal {
		clear(a.suffix) // no blocking
		return nil
	}
	a.agg.Reset(cfg.M)
	a.suffix[n-1] = a.agg.Interference()
	if bracket {
		a.lowAgg.Reset(cfg.M)
		a.lower[n-1] = a.lowAgg.Interference()
	}
	var foldVol int64
	for k := n - 2; k >= 0; k-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		if foldVol = addSat(foldVol, a.vols[k+1]); foldVol == math.MaxInt64 {
			return &RangeError{Task: ts.Tasks[k+1].Name, M: cfg.M}
		}
		a.push(a.graphs[k+1], bracket)
		a.suffix[k] = a.agg.Interference()
		if bracket {
			a.lower[k] = a.lowAgg.Interference()
		}
	}
	return nil
}

// fixedPoints runs the fixed points top-down into a.res, task k blocked
// by delta[k] (suffix, or the bracket's lower) and range-checked
// against suffix[k]. dMax and tMax are the largest deadline and period
// of the tasks above k.
func (a *Analyzer) fixedPoints(ctx context.Context, ts *model.TaskSet, delta []blocking.Interference) error {
	cfg := a.cfg
	res := &a.res
	res.Schedulable, res.Method, res.M = true, cfg.Method, cfg.M
	var dMax, tMax int64
	for k := range ts.N() {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := &res.Tasks[k]
		*tr = TaskResult{Name: ts.Tasks[k].Name}
		if !res.Schedulable {
			// A higher-priority task already failed; W_i would need its
			// (nonexistent) response bound.
			continue
		}
		tr.Analyzed = true
		tr.DeltaM, tr.DeltaM1 = delta[k].DeltaM, delta[k].DeltaM1
		if err := a.solveTask(ctx, ts, k, dMax, tMax, a.suffix[k], tr); err != nil {
			return err
		}
		if !tr.Schedulable {
			res.Schedulable = false
		}
		dMax, tMax = max(dMax, ts.Tasks[k].Deadline), max(tMax, ts.Tasks[k].Period)
	}
	return nil
}

// solveTask runs the Equation (1)/(4) fixed point for task k, whose
// blocking terms (tr.DeltaM/DeltaM1) the caller has already filled in;
// its range is checked with the Δ pair fit, and dMax and tMax are the
// largest deadline and period above k. It reads the structural scratch
// (a.vols, a.longs) and the higher-priority response bounds a.rm[:k],
// and writes the remaining TaskResult fields plus a.rm[k].
func (a *Analyzer) solveTask(ctx context.Context, ts *model.TaskSet, k int, dMax, tMax int64, fit blocking.Interference, tr *TaskResult) error {
	cfg := a.cfg
	var t0 time.Time
	if cfg.Trace != nil {
		t0 = time.Now()
	}
	task := ts.Tasks[k]
	m64 := int64(cfg.M)
	l := a.longs[k]
	vol := a.vols[k]
	q := int64(task.G.PreemptionPoints())
	if !fixedPointFits(m64, task.Deadline, l, vol, fit.DeltaM, fit.DeltaM1, q, int64(k), dMax, tMax) {
		return &RangeError{Task: task.Name, M: cfg.M}
	}
	dm := m64 * task.Deadline

	// Final-NPR refinement (future-work (ii)): iterate on the start
	// time S of the unique sink and add its WCET afterwards. With
	// sinkC = 0 this degenerates to the plain Equation (4) fixed
	// point (the window is the full response time).
	sinkC := int64(0)
	if cfg.FinalNPRRefinement && cfg.Method != FPIdeal {
		if sinks := task.G.Sinks(); len(sinks) == 1 && task.G.N() > 1 {
			sinkC = task.G.WCET(sinks[0])
		}
	}
	sinkCm := m64 * sinkC

	// Sub-DAG quantities: with a single sink, every maximal path ends
	// at it, so L' = L - sinkC and vol' = vol - sinkC exactly, and
	// m·L' + (vol'-L') = m·(L-sinkC) + (vol-L).
	base := m64*(l-sinkC) + (vol - l)
	cur := base
	converged := false
	for it := 1; it <= DefaultMaxIterations; it++ {
		if it%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tr.Iterations = it
		ihp := int64(0)
		hk := int64(0)
		for i := 0; i < k; i++ {
			ihp += carryInWorkload(cur, a.rm[i], a.vols[i], ts.Tasks[i].Period, m64)
			ti := m64 * ts.Tasks[i].Period
			hk += (cur + ti - 1) / ti // ⌈S/T_i⌉ in scaled form
		}
		pk := q
		if !cfg.DonationSafeBlocking {
			pk = min(pk, hk)
		}
		ilp := int64(0)
		if cfg.Method != FPIdeal {
			ilp = tr.DeltaM
			if !cfg.AblateRepeatedBlocking {
				ilp += pk * tr.DeltaM1
			}
		}
		next := base + m64*((ilp+ihp)/m64)
		tr.Preemptions = pk
		tr.InterferenceHP = ihp
		tr.InterferenceLP = ilp
		if next == cur {
			converged = true
			break
		}
		cur = next
		if cur+sinkCm > dm {
			break // bound exceeded; unschedulable
		}
	}
	tr.ResponseTimeM = cur + sinkCm
	tr.Schedulable = converged && tr.ResponseTimeM <= dm
	a.rm[k] = tr.ResponseTimeM
	if cfg.Trace != nil {
		cfg.Trace.FixedPoint.Since(t0)
		cfg.Trace.FixedPointIters.Observe(float64(tr.Iterations))
	}
	return nil
}

// fixedPointFits reports whether every intermediate of the m-scaled
// fixed point of a task (deadline d, longest path l, volume vol, Δ
// terms dM and dM1, q preemption points) below h tasks whose largest
// deadline and period are dMax and tMax, ⌈R⌉ included, fits in int64.
func fixedPointFits(m, d, l, vol, dM, dM1, q, h, dMax, tMax int64) bool {
	top := addSat(mulSat(m, l), vol-l) // base + m·C_sink
	w := max(top, mulSat(m, d))
	mD := mulSat(m, dMax)
	ihp := mulSat(h, addSat(w, addSat(mD, mD)))
	ilp := addSat(dM, mulSat(q, dM1))
	return max(addSat(w, mulSat(m, tMax)), addSat(addSat(top, ilp), addSat(ihp, m))) < math.MaxInt64
}

// carryInWorkload evaluates W_i for an interferer with the given volume
// and period in a scaled window.
func carryInWorkload(windowM, rmI, vol, taskPeriod, m64 int64) int64 {
	x := windowM + rmI - vol
	if x < 0 {
		return 0
	}
	period := m64 * taskPeriod
	return (x/period)*vol + min(vol, x%period)
}
