package obs

// Trace is the analysis pipeline's phase-timing surface: one histogram
// per phase of interest, resolved once and threaded down to
// internal/rta through core.Options. The analyzer guards every
// time.Now() pair behind a nil check, so an un-traced analyzer (the
// default, and every benchmark baseline) pays a single predictable
// branch per phase.
//
// Phases:
//
//   - SuffixPush: one graph pushed into the blocking aggregator (a µ
//     table or top-NPR fold); one AnalyzeInPlace scan is n-1 of them,
//     as is the µ-free scan of rta's verdict-only bracket.
//   - CacheLookup: one µ-table fetch from the shared content-addressed
//     cache (reached only when the graph holds no µ table for the core
//     count yet, so the series measures genuine cross-instance traffic).
//   - FixedPoint: one per-task response-time fixed point (solveTask).
//   - FixedPointIters: iterations that fixed point took to converge.
//
// FullRuns counts full passes, the calls of AnalyzeInPlace, the one
// routine that builds a result. The span histograms also time the
// µ-free passes of rta's verdict-only bracket, which count no run, so
// FullRuns bounds their denominator from below.
type Trace struct {
	SuffixPush      *Histogram
	CacheLookup     *Histogram
	FixedPoint      *Histogram
	FixedPointIters *Histogram
	FullRuns        *Counter

	// IncRuns is always nil, and a nil *Counter reads 0. No analysis
	// is incremental any more; the field stays only because the
	// perfbench module reads it for its session.rta.incremental_ratio
	// row, which therefore reads 0.
	IncRuns *Counter
}

// RecordFull counts one from-scratch analysis pass. Nil-safe.
func (t *Trace) RecordFull() {
	if t != nil {
		t.FullRuns.Inc()
	}
}

// NewTrace resolves the analysis-phase series in r. A nil registry
// yields a nil trace, which every consumer treats as "tracing off".
func NewTrace(r *Registry) *Trace {
	if r == nil {
		return nil
	}
	return &Trace{
		SuffixPush: r.Histogram("lpdag_analysis_suffix_push_seconds",
			"Time in full bottom-up blocking aggregator pushes.",
			SpanBuckets),
		CacheLookup: r.Histogram("lpdag_analysis_cache_lookup_seconds",
			"Time per shared-cache µ-table fetch (graph memo misses only).",
			SpanBuckets),
		FixedPoint: r.Histogram("lpdag_analysis_fixed_point_seconds",
			"Time per per-task response-time fixed point.",
			SpanBuckets),
		FixedPointIters: r.Histogram("lpdag_analysis_fixed_point_iterations",
			"Iterations per response-time fixed point.",
			IterationBuckets),
		FullRuns: r.Counter("lpdag_analysis_full_runs_total",
			"From-scratch analysis passes."),
	}
}
