// Package core is the top-level analysis API of the reproduction: it
// wraps the response-time analysis of Serrano et al. (DATE 2016) behind
// an Analyzer with validated options, human-readable reports, and
// method-comparison helpers. The root lpdag package re-exports it.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine/cache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rta"
)

// Method selects the schedulability analysis variant.
type Method = rta.Method

// Analysis variants, re-exported for callers of the public API.
const (
	// FPIdeal is the fully-preemptive bound of Melani et al. with zero
	// preemption cost and no blocking (the paper's baseline).
	FPIdeal = rta.FPIdeal
	// LPMax is limited preemption with the pessimistic Equation (5)
	// blocking bound.
	LPMax = rta.LPMax
	// LPILP is limited preemption with the precedence-aware
	// Equations (6)-(8) blocking bound.
	LPILP = rta.LPILP
)

// Methods lists all variants in presentation order.
func Methods() []Method { return []Method{FPIdeal, LPILP, LPMax} }

// Options configure an Analyzer.
type Options struct {
	Cores  int    // number of identical cores m, ≥ 1
	Method Method // analysis variant; default FPIdeal

	// FinalNPRRefinement enables the paper's future-work item (ii):
	// for single-sink tasks, interference is accounted only until the
	// start of the non-preemptable final region, so the refined bound
	// never exceeds the plain one. This used to require dropping to the
	// rta layer (the old AnalyzeRefined returned an rta.Result); folding
	// it into Options keeps every analysis path returning one Report
	// shape. Ignored for FPIdeal.
	FinalNPRRefinement bool

	// Cache, when non-nil, memoizes the content-addressed µ[c] tables
	// (the clique search of Equation (6)) across graph instances,
	// behind the µ memo each graph keeps for itself. Share
	// one cache so structurally identical graphs — decoded again from
	// a recurring request, say — solve each table once; graphs that
	// are analyzed once and never recur, like generated ones, gain
	// nothing from it. Cheaper derived quantities are recomputed, never
	// cached. Verdicts are identical with or without it.
	Cache *cache.Cache

	// Trace, when non-nil, records analysis-phase span timings into its
	// histograms (see obs.NewTrace). Nil means tracing off; results are
	// identical either way.
	Trace *obs.Trace
}

// Analyzer runs the response-time analysis with fixed options. It holds
// only its options and is safe for concurrent use: every call draws an
// rta.Analyzer scratch state (suffix aggregator, result buffers) from
// one process-wide pool and reconfigures it, so in steady state every
// worker goroutine reuses warm buffers and the analysis hot path
// allocates nothing beyond the returned Report, whatever the options.
// µ tables are memoized on the graphs themselves, not in the pooled
// state, and a dropped Analyzer leaves no pool of its own behind
// pinning the graphs it last analyzed.
type Analyzer struct {
	opts Options
}

// analyzers is the one pool of rta scratch states every Analyzer draws
// from, whatever its options.
var analyzers = sync.Pool{New: func() any { return new(rta.Analyzer) }}

// get draws a pooled rta.Analyzer configured for a's options; put it
// back with analyzers.Put.
func (a *Analyzer) get() *rta.Analyzer {
	ra := analyzers.Get().(*rta.Analyzer)
	if err := ra.Reconfigure(rtaConfig(a.opts)); err != nil {
		panic(err) // options were validated by New; unreachable
	}
	return ra
}

// ValidateOptions checks opts, naming the offending field and value the
// same way on every path (see TestOptionsValidationErrors).
func ValidateOptions(opts Options) error {
	if opts.Cores < 1 {
		return fmt.Errorf("core: invalid Options.Cores: %d (must be ≥ 1)", opts.Cores)
	}
	switch opts.Method {
	case FPIdeal, LPMax, LPILP:
	default:
		return fmt.Errorf("core: invalid Options.Method: %v", opts.Method)
	}
	return nil
}

// New validates the options and returns an Analyzer.
func New(opts Options) (*Analyzer, error) {
	if err := ValidateOptions(opts); err != nil {
		return nil, err
	}
	return &Analyzer{opts: opts}, nil
}

// rtaConfig maps validated Options onto the rta layer's Config.
func rtaConfig(opts Options) rta.Config {
	return rta.Config{
		M:                  opts.Cores,
		Method:             opts.Method,
		FinalNPRRefinement: opts.FinalNPRRefinement,
		Cache:              opts.Cache,
		Trace:              opts.Trace,
	}
}

// MustNew is New that panics on error, for tests and fixtures.
func MustNew(opts Options) *Analyzer {
	a, err := New(opts)
	if err != nil {
		panic(err)
	}
	return a
}

// Options returns the analyzer's configuration.
func (a *Analyzer) Options() Options { return a.opts }

// TaskReport is the per-task outcome.
type TaskReport struct {
	Name        string
	Schedulable bool
	Analyzed    bool

	// ResponseTime is the response-time upper bound in time units (the
	// exact bound is the rational ResponseTimeM / Cores; this field is
	// its ceiling). Deadline is copied from the task for convenience.
	ResponseTime  int64
	ResponseTimeM int64 // exact bound scaled by Cores
	Deadline      int64

	DeltaM      int64
	DeltaM1     int64
	Preemptions int64
	Iterations  int
}

// Report is the outcome of analyzing one task set.
type Report struct {
	Schedulable bool
	Method      Method
	Cores       int
	Utilization float64
	Tasks       []TaskReport
}

// Analyze runs the analysis on the task set. The context cancels long
// solves (it is observed between tasks and between fixed-point chunks).
func (a *Analyzer) Analyze(ctx context.Context, ts *model.TaskSet) (*Report, error) {
	ra := a.get()
	defer analyzers.Put(ra)
	res, err := ra.AnalyzeInPlace(ctx, ts)
	if err != nil {
		return nil, err
	}
	return ReportOf(res, ts), nil
}

// ReportOf converts an rta-layer Result into the public Report shape —
// the single conversion every analysis path (one-shot, pooled, session)
// goes through, so there is exactly one Report schema on the wire.
func ReportOf(res *rta.Result, ts *model.TaskSet) *Report {
	rep := &Report{
		Schedulable: res.Schedulable,
		Method:      res.Method,
		Cores:       res.M,
		Utilization: ts.Utilization(),
		Tasks:       make([]TaskReport, len(res.Tasks)),
	}
	for i, tr := range res.Tasks {
		rep.Tasks[i] = TaskReport{
			Name:          tr.Name,
			Schedulable:   tr.Schedulable,
			Analyzed:      tr.Analyzed,
			ResponseTime:  tr.ResponseTimeCeil(res.M),
			ResponseTimeM: tr.ResponseTimeM,
			Deadline:      ts.Tasks[i].Deadline,
			DeltaM:        tr.DeltaM,
			DeltaM1:       tr.DeltaM1,
			Preemptions:   tr.Preemptions,
			Iterations:    tr.Iterations,
		}
	}
	return rep
}

// Schedulable is a convenience wrapper returning only the verdict. It
// skips the Report entirely, so a pooled warm analyzer answers it
// without heap allocation.
func (a *Analyzer) Schedulable(ctx context.Context, ts *model.TaskSet) (bool, error) {
	ra := a.get()
	defer analyzers.Put(ra)
	res, err := ra.AnalyzeInPlace(ctx, ts)
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// ScheduleBatch returns the schedulability verdict of every set, holding
// one pooled rta.Analyzer — scratch buffers, suffix aggregator — across
// the whole batch. This is the batch entry point the experiment
// campaigns drive with a fresh Analyzer per point and method: a sweep
// worker analyzing SetsPerPoint sets back to back draws and
// reconfigures one warm scratch state for them all.
func (a *Analyzer) ScheduleBatch(ctx context.Context, sets []*model.TaskSet) ([]bool, error) {
	ra := a.get()
	defer analyzers.Put(ra)
	out := make([]bool, len(sets))
	for i, ts := range sets {
		res, err := ra.AnalyzeInPlace(ctx, ts)
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		out[i] = res.Schedulable
	}
	return out, nil
}

// String renders the report as a fixed-width table.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "SCHEDULABLE"
	if !r.Schedulable {
		verdict = "NOT SCHEDULABLE"
	}
	fmt.Fprintf(&b, "%s on m=%d cores (U=%.3f): %s\n", r.Method, r.Cores, r.Utilization, verdict)
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %8s %6s %s\n",
		"task", "R(ub)", "D", "Dm", "Dm-1", "p", "verdict")
	for _, t := range r.Tasks {
		status := "ok"
		switch {
		case !t.Analyzed:
			status = "skipped"
		case !t.Schedulable:
			status = "MISS"
		}
		rStr := "-"
		if t.Analyzed {
			rStr = fmt.Sprintf("%d", t.ResponseTime)
		}
		fmt.Fprintf(&b, "%-12s %10s %10d %8d %8d %6d %s\n",
			t.Name, rStr, t.Deadline, t.DeltaM, t.DeltaM1, t.Preemptions, status)
	}
	return b.String()
}

// CompareMethods analyzes the set with every method at the analyzer's
// core count (the analyzer's own Method is ignored) and returns the
// reports keyed by method.
func (a *Analyzer) CompareMethods(ctx context.Context, ts *model.TaskSet) (map[Method]*Report, error) {
	out := make(map[Method]*Report, 3)
	for _, m := range Methods() {
		opts := a.opts
		opts.Method = m
		sub, err := New(opts)
		if err != nil {
			return nil, err
		}
		rep, err := sub.Analyze(ctx, ts)
		if err != nil {
			return nil, err
		}
		out[m] = rep
	}
	return out, nil
}
