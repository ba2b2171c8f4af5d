package engine

// Metric registration for the engine's job slots, its cache, and the
// session registry. Everything the engine already counts for Stats() is
// re-exported through scrape-time CounterFunc/GaugeFunc readers — no
// double bookkeeping, no new hot-path writes. The only new hot-path
// instruments are the two latency histograms (slot wait, job duration
// by kind), which submit feeds behind a single nil check, and the
// abandoned-jobs counter (jobs whose submitter gave up while they
// waited for a slot — the shed/drain signal Stats() never surfaced).

import "repro/internal/obs"

// engineMetrics holds the pre-resolved hot-path series. nil when no
// registry is configured, which submit checks once per job.
type engineMetrics struct {
	queueWait *obs.Histogram
	jobDur    [numJobKinds]*obs.Histogram
}

// registerMetrics wires the engine into r. Called once from New; r is
// non-nil here.
func (e *Engine) registerMetrics(r *obs.Registry) {
	e.obsReg = r
	e.trace = obs.NewTrace(r)

	r.Gauge("lpdag_engine_workers",
		"Job slots of the engine: the most jobs that run at once.").Set(float64(e.cfg.Workers))
	r.GaugeFunc("lpdag_engine_queue_depth",
		"Jobs submitted and not yet finished (running or waiting for a slot).",
		func() float64 { return float64(e.queued.Load()) })

	m := &engineMetrics{
		queueWait: r.Histogram("lpdag_engine_queue_wait_seconds",
			"Time a job waited for an engine slot before it ran.",
			obs.LatencyBuckets),
	}
	for k := JobKind(0); k < numJobKinds; k++ {
		k := k
		r.CounterFunc("lpdag_engine_jobs_total",
			"Completed jobs by kind.",
			func() float64 { return float64(e.served[k].Load()) },
			"kind", k.String())
		m.jobDur[k] = r.Histogram("lpdag_engine_job_duration_seconds",
			"Job execution time by kind (excludes queue wait).",
			obs.LatencyBuckets,
			"kind", k.String())
	}
	r.CounterFunc("lpdag_engine_job_failures_total",
		"Jobs that completed with an error.",
		func() float64 { return float64(e.failed.Load()) })
	r.CounterFunc("lpdag_engine_jobs_abandoned_total",
		"Jobs not run because the submitter's context expired while they waited for a slot.",
		func() float64 { return float64(e.abandoned.Load()) })
	e.metrics = m

	if c := e.memo; c != nil {
		r.CounterFunc("lpdag_cache_hits_total",
			"Analysis cache lookups served from a materialized entry.",
			func() float64 { return float64(c.Stats().Hits) })
		r.CounterFunc("lpdag_cache_misses_total",
			"Analysis cache lookups that had to compute.",
			func() float64 { return float64(c.Stats().Misses) })
		r.CounterFunc("lpdag_cache_waits_total",
			"Analysis cache lookups that blocked on another goroutine's in-flight compute.",
			func() float64 { return float64(c.Stats().Waits) })
		r.CounterFunc("lpdag_cache_evictions_total",
			"Analysis cache entries evicted by the second-chance size bound.",
			func() float64 { return float64(c.Stats().Evictions) })
		r.GaugeFunc("lpdag_cache_entries",
			"Materialized analysis cache entries (in-flight computes excluded).",
			func() float64 { return float64(c.Stats().Entries) })
		r.GaugeFunc("lpdag_cache_hit_ratio",
			"hits/(hits+misses+waits) since process start; 0 before any lookup.",
			func() float64 { return c.Stats().HitRate() })
	}
}
