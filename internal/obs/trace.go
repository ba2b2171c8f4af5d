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
//   - SuffixRestore: AnalyzeIncremental's whole blocking scan —
//     checkpoint restore plus the pushes replayed above it. The time
//     saved against a from-scratch scan is the whole point of the
//     suffix-incremental design, so both sides are measured.
//   - SuffixPush: one graph pushed into the blocking aggregator (a µ
//     table or top-NPR fold), on either entry point; a from-scratch
//     AnalyzeInPlace scan is n-1 of them.
//   - CacheLookup: one µ-table fetch from the shared content-addressed
//     cache (reached only when the graph holds no µ table for the core
//     count yet, so the series measures genuine cross-instance traffic).
//   - FixedPoint: one per-task response-time fixed point (solveTask).
//   - FixedPointIters: iterations that fixed point took to converge.
//
// FullRuns/IncRuns count calls of AnalyzeInPlace and
// AnalyzeIncremental (both run one analysis routine), giving the
// denominator for the span histograms.
type Trace struct {
	SuffixRestore   *Histogram
	SuffixPush      *Histogram
	CacheLookup     *Histogram
	FixedPoint      *Histogram
	FixedPointIters *Histogram
	FullRuns        *Counter
	IncRuns         *Counter
}

// RecordFull counts one from-scratch analysis pass. Nil-safe.
func (t *Trace) RecordFull() {
	if t != nil {
		t.FullRuns.Inc()
	}
}

// RecordIncremental counts one incremental analysis pass. Nil-safe.
func (t *Trace) RecordIncremental() {
	if t != nil {
		t.IncRuns.Inc()
	}
}

// NewTrace resolves the analysis-phase series in r. A nil registry
// yields a nil trace, which every consumer treats as "tracing off".
func NewTrace(r *Registry) *Trace {
	if r == nil {
		return nil
	}
	return &Trace{
		SuffixRestore: r.Histogram("lpdag_analysis_suffix_restore_seconds",
			"Time restoring and replaying suffix blocking checkpoints in incremental re-analysis.",
			SpanBuckets),
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
		IncRuns: r.Counter("lpdag_analysis_incremental_runs_total",
			"Incremental (suffix-reusing) analysis passes."),
	}
}
