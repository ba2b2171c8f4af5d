// Package engine is a long-running concurrent analysis service over the
// lpdag library: analyze, simulate, generate, sweep and session jobs
// admitted through one slot semaphore of Workers slots, backed by a
// shared content-addressed cache (internal/engine/cache) so that
// concurrent and repeated requests for structurally identical task
// graphs compute the expensive blocking quantities once.
//
// The engine is the process-wide singleton behind cmd/lpdag-serve (see
// server.go for the HTTP front end) but is equally usable embedded: the
// public methods are synchronous — each takes a slot, runs its job on
// the caller's goroutine and returns the result — so callers get
// backpressure for free; FanOut is the one bounded fan-out over them.
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
	// Workers is the number of jobs that run at once; 0 means
	// GOMAXPROCS. Further submitters wait for a slot (or fail when
	// their context expires), which is the engine's admission control.
	Workers int
	// CacheEntries bounds the shared µ-table cache (0 =
	// cache.DefaultMaxEntries). Negative disables caching.
	CacheEntries int
	// Obs, when non-nil, is the metric registry the engine instruments
	// itself into: slot gauges and counters, per-kind job latency
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
	// registry so interactive what-if traffic shares the engine's
	// slots with everything else.
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

// ErrClosed is returned by job submissions after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// Engine is the concurrent analysis service. Construct with New; Close
// refuses new jobs and waits for the admitted ones.
type Engine struct {
	cfg   Config
	memo  *cache.Cache   // nil when caching is disabled
	slots chan struct{}  // one token per running job; capacity Workers
	wg    sync.WaitGroup // admitted jobs, running or waiting for a slot

	// mu guards closed and, held shared, every wg.Add, so Close's Wait
	// cannot race an admission.
	mu     sync.RWMutex
	closed bool

	queued    atomic.Int64 // jobs admitted but not yet finished
	served    [numJobKinds]atomic.Uint64
	failed    atomic.Uint64
	abandoned atomic.Uint64 // jobs whose submitter context expired before they ran

	// Observability (nil without Config.Obs): the registry itself (for
	// the session layer and the HTTP server to attach to), the
	// pre-resolved hot-path histograms, and the analysis-phase trace
	// every pooled analyzer shares.
	obsReg  *obs.Registry
	metrics *engineMetrics
	trace   *obs.Trace
}

// New returns an Engine with the given configuration. It starts no
// goroutines.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, slots: make(chan struct{}, cfg.Workers)}
	if cfg.CacheEntries >= 0 {
		e.memo = cache.New(cfg.CacheEntries)
	}
	if cfg.Obs != nil {
		e.registerMetrics(cfg.Obs)
	}
	return e
}

// Close stops accepting jobs and waits for every admitted one: running
// jobs finish, and jobs still waiting for a slot run too, unless their
// submitter context expires first. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
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

// Workers returns the number of job slots — the natural bound for
// callers fanning batches out over the engine.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	Workers     int         `json:"workers"`
	QueueDepth  int         `json:"queue_depth"` // jobs running or waiting for a slot
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
		QueueDepth:  int(e.queued.Load()),
		Analyses:    e.served[JobAnalyze].Load(),
		Simulations: e.served[JobSimulate].Load(),
		Generations: e.served[JobGenerate].Load(),
		Sweeps:      e.served[JobSweep].Load(),
		SessionOps:  e.served[JobSession].Load(),
		Failed:      e.failed.Load(),
	}
	if e.memo != nil {
		s.Cache = e.memo.Stats()
	}
	return s
}

// submit waits for a slot, runs fn on the caller's goroutine and
// returns its result once fn returns. It returns ErrClosed after Close,
// and the context's error if ctx expires before the job got to run; a
// running job observes the same context through its argument and stops
// at the analysis layer's next cancellation check.
func (e *Engine) submit(ctx context.Context, kind JobKind, fn func(context.Context) (any, error)) (any, error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	e.wg.Add(1)
	e.mu.RUnlock()
	defer e.wg.Done()
	e.queued.Add(1)
	defer e.queued.Add(-1)

	m := e.metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	select {
	case e.slots <- struct{}{}:
		defer func() { <-e.slots }()
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		// The submitter gave up (request cancelled, server shutting
		// down) before the job ran: don't compute.
		e.abandoned.Add(1)
		return nil, err
	}
	if m != nil {
		m.queueWait.Since(t0)
		t0 = time.Now()
	}
	val, err := fn(ctx)
	if m != nil {
		m.jobDur[kind].Since(t0)
	}
	e.served[kind].Add(1)
	if err != nil {
		e.failed.Add(1)
	}
	return val, err
}

// Submit runs fn as a job of the given kind on the caller's goroutine
// once a slot is free, and returns its result when fn returns: the
// exported generic entry point for callers that orchestrate their own
// work units over the engine (the experiment orchestrator submits one
// JobSweep per sweep point). A cancelled context ends only the wait for
// a slot; fn receives the same context and should observe it during
// long computations. fn MUST NOT submit further jobs to the same engine
// — a job holding a slot while it waits for another can deadlock the
// engine once every slot does it.
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
	FinalNPR bool // Options.FinalNPRRefinement
}

// Analyze runs the response-time analysis of ts as an engine job. All
// engine analyses share the content-addressed cache, so concurrent
// requests for overlapping task sets dedupe the blocking computations,
// and every job draws warm rta scratch state from core's process-wide
// pool, whatever its spec. The engine keeps no per-spec state.
func (e *Engine) Analyze(ctx context.Context, ts *model.TaskSet, spec AnalyzeSpec) (*core.Report, error) {
	a, err := core.New(core.Options{
		Cores: spec.Cores, Method: spec.Method,
		FinalNPRRefinement: spec.FinalNPR,
		Cache:              e.memo,
		Trace:              e.trace,
	})
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
// out over the engine's slots (FanOut) and preserving order. Per-item
// failures are reported in errs; the call itself only fails when ctx
// expires.
func (e *Engine) AnalyzeBatch(ctx context.Context, sets []*model.TaskSet, specs []AnalyzeSpec) (reports []*core.Report, errs []error, err error) {
	if len(sets) != len(specs) {
		return nil, nil, fmt.Errorf("engine: %d task sets but %d specs", len(sets), len(specs))
	}
	reports = make([]*core.Report, len(sets))
	errs = make([]error, len(sets))
	e.FanOut(ctx, len(sets), func(i int) {
		reports[i], errs[i] = e.Analyze(ctx, sets[i], specs[i])
	}, nil)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, nil, ctxErr
	}
	return reports, errs, nil
}

// FanOut calls fn(i) for every i in [0, n) on at most Workers
// goroutines, each taking the next index from a shared counter, so a
// slow index holds up only its own goroutine; more goroutines than
// slots would only wait for slots. done(i), when non-nil, runs on the
// caller's goroutine after fn(i) returns, one call at a time, in
// completion order. No index is handed out once ctx is done, so the
// indices left unstarted are a suffix of [0, n), and FanOut then
// returns ctx's error. It returns only after every started fn has
// returned. fn must observe ctx itself, as the engine's slot wait does.
func (e *Engine) FanOut(ctx context.Context, n int, fn, done func(i int)) error {
	var next atomic.Int64
	finished := make(chan int) // an index for done, or -1 as a goroutine exits
	live := min(e.cfg.Workers, n)
	for range live {
		go func() {
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				fn(i)
				if done != nil {
					finished <- i
				}
			}
			finished <- -1
		}()
	}
	for live > 0 {
		if i := <-finished; i < 0 {
			live--
		} else {
			done(i)
		}
	}
	if next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}

// SimulateSpec parameterises a simulation job.
type SimulateSpec struct {
	Cores    int
	Duration int64
	MaxJobs  int
}

// Simulate runs the discrete-event scheduler simulator as an engine job.
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

// Generate produces a random task set as an engine job, deterministic
// in the spec's seed.
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
