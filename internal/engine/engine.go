// Package engine is a long-running concurrent analysis service over the
// lpdag library: a bounded worker pool that executes analyze, simulate
// and generate jobs, backed by a shared content-addressed cache
// (internal/engine/cache) so that concurrent and repeated requests for
// structurally identical task graphs compute the expensive blocking
// quantities once.
//
// The engine is the process-wide singleton behind cmd/lpdag-serve (see
// server.go for the HTTP front end) but is equally usable embedded: the
// public methods are synchronous — they enqueue a job, wait for a
// worker, and return the result — so callers get backpressure for free
// and can fan out with their own goroutines.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine/cache"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterises an Engine.
type Config struct {
	// Workers is the number of concurrent job executors; 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth is the pending-job buffer beyond the running workers;
	// 0 means 4× workers. When the queue is full, Submit blocks (or
	// fails when the caller's context expires), which is the engine's
	// admission control.
	QueueDepth int
	// CacheEntries bounds the shared µ-table cache (0 =
	// cache.DefaultMaxEntries). Negative disables caching.
	CacheEntries int
	// Obs, when non-nil, is the metric registry the engine instruments
	// itself into: pool gauges and counters, per-kind job latency
	// histograms, cache counters, and the analysis-phase trace threaded
	// down to the rta layer. Nil — the default — means no metrics and
	// no overhead beyond one nil check per job.
	Obs *obs.Registry
}

// JobKind labels the work a job carries, for the stats counters.
type JobKind int

// Job kinds.
const (
	JobAnalyze JobKind = iota
	JobSimulate
	JobGenerate
	// JobSweep is one experiment-sweep point (generation plus the
	// per-method analyses of all its task sets), submitted by the
	// campaign orchestrator in internal/experiments.
	JobSweep
	// JobSession is one stateful-session operation (create, edit,
	// admission probe, sensitivity query), submitted by the session
	// registry so interactive what-if traffic shares the pool's
	// backpressure with everything else.
	JobSession
	numJobKinds
)

func (k JobKind) String() string {
	switch k {
	case JobAnalyze:
		return "analyze"
	case JobSimulate:
		return "simulate"
	case JobGenerate:
		return "generate"
	case JobSweep:
		return "sweep"
	case JobSession:
		return "session"
	}
	return fmt.Sprintf("JobKind(%d)", int(k))
}

// job is one queued unit of work. ctx is the submitter's context: a
// worker popping a job whose submitter has already given up skips the
// computation instead of burning a worker on a result nobody reads; the
// same context is passed into run, so an executing job (a long LP-ILP
// solve) observes cancellation mid-computation too.
type job struct {
	kind JobKind
	ctx  context.Context
	run  func(context.Context) (any, error)
	done chan jobResult
	enq  time.Time // submit time; set only when metrics are on
}

type jobResult struct {
	val any
	err error
}

// ErrClosed is returned by job submissions after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// Engine is the concurrent analysis service. Construct with New; Close
// drains the queue and stops the workers.
type Engine struct {
	cfg  Config
	memo *cache.Cache // nil when caching is disabled
	jobs chan *job
	wg   sync.WaitGroup

	// mu guards closed and, held shared, every send on jobs, so Close
	// cannot close the channel under an in-flight send.
	mu     sync.RWMutex
	closed bool

	// analyzers maps AnalyzeSpec → *core.Analyzer so repeated requests
	// with the same spec share one analyzer (and thus its pool of warm
	// rta scratch states). Cores is client-controlled on the serving
	// path, so the memo is bounded: past maxMemoizedSpecs distinct
	// specs, new ones get transient analyzers instead (correct, just
	// cold) rather than growing the map forever.
	analyzers     sync.Map
	analyzerCount int64 // memoized specs (atomic; sync.Map has no Len)

	queued    int64 // jobs submitted but not yet finished (atomic)
	served    [numJobKinds]uint64
	failed    uint64
	abandoned uint64 // queued jobs skipped: submitter context expired

	// Observability (nil without Config.Obs): the registry itself (for
	// the session layer to attach to), the pre-resolved hot-path
	// histograms, and the analysis-phase trace every pooled analyzer
	// shares.
	obsReg  *obs.Registry
	metrics *engineMetrics
	trace   *obs.Trace
}

// New starts an Engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	e := &Engine{
		cfg:  cfg,
		jobs: make(chan *job, cfg.QueueDepth),
	}
	if cfg.CacheEntries >= 0 {
		e.memo = cache.New(cfg.CacheEntries)
	}
	if cfg.Obs != nil {
		e.registerMetrics(cfg.Obs)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops accepting jobs, lets queued ones finish (except jobs
// whose submitter context is already cancelled, which are skipped),
// and waits for the workers to exit. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Cache returns the engine's shared µ-table cache (nil when disabled).
func (e *Engine) Cache() *cache.Cache { return e.memo }

// Obs returns the metrics registry the engine was configured with, or
// nil. Subsystems built on the engine (the campaign handler, the
// cluster shard worker) publish their series here, so one /metrics
// scrape covers the whole process.
func (e *Engine) Obs() *obs.Registry { return e.obsReg }

// Workers returns the configured worker count — the natural bound for
// callers fanning batches out over the pool.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	Workers     int         `json:"workers"`
	QueueDepth  int         `json:"queue_depth"` // jobs in flight or waiting
	QueueCap    int         `json:"queue_cap"`
	Analyses    uint64      `json:"analyses"`
	Simulations uint64      `json:"simulations"`
	Generations uint64      `json:"generations"`
	Sweeps      uint64      `json:"sweeps"`
	SessionOps  uint64      `json:"session_ops"`
	Failed      uint64      `json:"failed"`
	Cache       cache.Stats `json:"cache"`
}

// JobsServed returns the total completed jobs of all kinds.
func (s Stats) JobsServed() uint64 {
	return s.Analyses + s.Simulations + s.Generations + s.Sweeps + s.SessionOps
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:     e.cfg.Workers,
		QueueDepth:  int(atomic.LoadInt64(&e.queued)),
		QueueCap:    e.cfg.QueueDepth,
		Analyses:    atomic.LoadUint64(&e.served[JobAnalyze]),
		Simulations: atomic.LoadUint64(&e.served[JobSimulate]),
		Generations: atomic.LoadUint64(&e.served[JobGenerate]),
		Sweeps:      atomic.LoadUint64(&e.served[JobSweep]),
		SessionOps:  atomic.LoadUint64(&e.served[JobSession]),
		Failed:      atomic.LoadUint64(&e.failed),
	}
	if e.memo != nil {
		s.Cache = e.memo.Stats()
	}
	return s
}

func (e *Engine) worker() {
	defer e.wg.Done()
	m := e.metrics
	for j := range e.jobs {
		if err := j.ctx.Err(); err != nil {
			// Submitter abandoned the job while it was queued (request
			// cancelled, server shutting down): don't compute.
			atomic.AddUint64(&e.abandoned, 1)
			atomic.AddInt64(&e.queued, -1)
			j.done <- jobResult{err: err}
			continue
		}
		var t0 time.Time
		if m != nil {
			m.queueWait.Since(j.enq)
			t0 = time.Now()
		}
		val, err := j.run(j.ctx)
		if m != nil {
			m.jobDur[j.kind].Since(t0)
		}
		atomic.AddUint64(&e.served[j.kind], 1)
		if err != nil {
			atomic.AddUint64(&e.failed, 1)
		}
		atomic.AddInt64(&e.queued, -1)
		j.done <- jobResult{val: val, err: err}
	}
}

// submit enqueues fn and waits for its result. It returns ErrClosed
// after Close, and the context's error if ctx expires while the job is
// still queued (a running job observes the same context through its
// argument and aborts at the analysis layer's next cancellation check).
func (e *Engine) submit(ctx context.Context, kind JobKind, fn func(context.Context) (any, error)) (any, error) {
	j := &job{kind: kind, ctx: ctx, run: fn, done: make(chan jobResult, 1)}
	if e.metrics != nil {
		j.enq = time.Now()
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	atomic.AddInt64(&e.queued, 1)
	select {
	case e.jobs <- j:
		e.mu.RUnlock()
	case <-ctx.Done():
		e.mu.RUnlock()
		atomic.AddInt64(&e.queued, -1)
		return nil, ctx.Err()
	}
	select {
	case res := <-j.done:
		return res.val, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Submit runs fn as a pooled job of the given kind and returns its
// result: the exported generic entry point for callers that orchestrate
// their own work units over the engine's worker pool (the experiment
// orchestrator submits one JobSweep per sweep point). fn MUST NOT submit
// further jobs to the same engine — a job waiting on a nested job can
// deadlock the pool once every worker does it. fn receives the
// submitter's context and should observe it during long computations.
func (e *Engine) Submit(ctx context.Context, kind JobKind, fn func(context.Context) (any, error)) (any, error) {
	if kind < 0 || kind >= numJobKinds {
		return nil, fmt.Errorf("engine: unknown job kind %d", int(kind))
	}
	return e.submit(ctx, kind, fn)
}

// AnalyzeSpec selects the analysis parameters of one request.
type AnalyzeSpec struct {
	Cores    int
	Method   core.Method
	Backend  core.Backend
	FinalNPR bool // Options.FinalNPRRefinement
}

// maxMemoizedSpecs bounds the per-spec analyzer memo. Legitimate
// workloads use a handful of (cores, method, backend) triples; a client
// sweeping arbitrary core counts past this bound still gets correct
// (transient) analyzers, it just stops accumulating warm state.
const maxMemoizedSpecs = 64

// analyzer returns the engine-wide analyzer for a spec, creating it on
// first use. Sharing per-spec analyzers keeps the warm rta scratch
// states (suffix aggregators, µ memos) alive across requests.
func (e *Engine) analyzer(spec AnalyzeSpec) (*core.Analyzer, error) {
	if v, ok := e.analyzers.Load(spec); ok {
		return v.(*core.Analyzer), nil
	}
	a, err := core.New(core.Options{
		Cores: spec.Cores, Method: spec.Method, Backend: spec.Backend,
		FinalNPRRefinement: spec.FinalNPR,
		Cache:              e.memo,
		Trace:              e.trace,
	})
	if err != nil {
		return nil, err
	}
	if atomic.LoadInt64(&e.analyzerCount) >= maxMemoizedSpecs {
		return a, nil // memo full: serve a transient analyzer
	}
	v, loaded := e.analyzers.LoadOrStore(spec, a)
	if !loaded {
		atomic.AddInt64(&e.analyzerCount, 1)
	}
	return v.(*core.Analyzer), nil
}

// Analyze runs the response-time analysis of ts as a pooled job. All
// engine analyses share the content-addressed cache and a per-spec
// analyzer, so concurrent requests for overlapping task sets dedupe the
// blocking computations and repeated requests reuse warm scratch state.
func (e *Engine) Analyze(ctx context.Context, ts *model.TaskSet, spec AnalyzeSpec) (*core.Report, error) {
	a, err := e.analyzer(spec)
	if err != nil {
		return nil, err
	}
	v, err := e.submit(ctx, JobAnalyze, func(jobCtx context.Context) (any, error) {
		return a.Analyze(jobCtx, ts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Report), nil
}

// AnalyzeBatch analyzes every (task set, spec) pair, fanning the jobs
// out over the worker pool and preserving order. Per-item failures are
// reported in errs; the call itself only fails when ctx expires.
//
// The fan-out is bounded at the engine's worker count — only that many
// jobs can execute at once, so goroutine-per-item would buy nothing but
// stacks (batches can be MaxBatch-sized and arrive MaxInFlight at a
// time from the HTTP front end).
func (e *Engine) AnalyzeBatch(ctx context.Context, sets []*model.TaskSet, specs []AnalyzeSpec) (reports []*core.Report, errs []error, err error) {
	if len(sets) != len(specs) {
		return nil, nil, fmt.Errorf("engine: %d task sets but %d specs", len(sets), len(specs))
	}
	reports = make([]*core.Report, len(sets))
	errs = make([]error, len(sets))
	forEachBounded(len(sets), e.cfg.Workers, func(i int) {
		reports[i], errs[i] = e.Analyze(ctx, sets[i], specs[i])
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, nil, ctxErr
	}
	return reports, errs, nil
}

// forEachBounded runs fn(0..n-1) on at most bound concurrent
// goroutines, returning when all calls finished. fn must handle its own
// cancellation (the engine's job layer does).
func forEachBounded(n, bound int, fn func(i int)) {
	if bound > n {
		bound = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < bound; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// SimulateSpec parameterises a simulation job.
type SimulateSpec struct {
	Cores    int
	Duration int64
	MaxJobs  int
}

// Simulate runs the discrete-event scheduler simulator as a pooled job.
func (e *Engine) Simulate(ctx context.Context, ts *model.TaskSet, spec SimulateSpec) (*sim.Result, error) {
	v, err := e.submit(ctx, JobSimulate, func(context.Context) (any, error) {
		return sim.Run(ts, sim.Config{M: spec.Cores, Duration: spec.Duration, MaxJobs: spec.MaxJobs})
	})
	if err != nil {
		return nil, err
	}
	return v.(*sim.Result), nil
}

// GenerateSpec parameterises a task-set generation job.
type GenerateSpec struct {
	Seed        int64
	Group       gen.Group
	Utilization float64
	Tasks       int // exact task count; 0 = add tasks until Utilization
	SeqProb     float64
}

// Generate produces a random task set as a pooled job, deterministic in
// the spec's seed.
func (e *Engine) Generate(ctx context.Context, spec GenerateSpec) (*model.TaskSet, error) {
	v, err := e.submit(ctx, JobGenerate, func(context.Context) (any, error) {
		params := gen.PaperParams(spec.Group)
		if spec.SeqProb > 0 {
			params.SeqProb = spec.SeqProb
		}
		g := gen.New(spec.Seed, params)
		if spec.Tasks > 0 {
			return g.TaskSetN(spec.Tasks, spec.Utilization), nil
		}
		return g.TaskSet(spec.Utilization), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*model.TaskSet), nil
}
