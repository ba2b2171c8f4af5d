// Package lpdag is a from-scratch Go implementation of the
// response-time analysis of sporadic DAG tasks under global
// fixed-priority scheduling with limited preemptions, reproducing
//
//	M. A. Serrano, A. Melani, M. Bertogna, E. Quiñones,
//	"Response-Time Analysis of DAG Tasks under Fixed Priority
//	Scheduling with Limited Preemptions", DATE 2016.
//
// The package is the stable public facade over the implementation
// packages: the DAG task model, the three analysis variants (the
// fully-preemptive FP-ideal baseline and the limited-preemptive LP-max
// and LP-ILP blocking bounds), the random task-set generator used by the
// paper's evaluation, a discrete-event scheduler simulator for
// validation, and the preemption-point placement explorer.
//
// # Quick start
//
//	var b lpdag.GraphBuilder
//	src := b.AddNode(2)          // nodes are non-preemptive regions (WCET)
//	a, c := b.AddNode(4), b.AddNode(3)
//	sink := b.AddNode(1)
//	b.AddEdge(src, a)            // edges are precedence constraints
//	b.AddEdge(src, c)
//	b.AddEdge(a, sink)
//	b.AddEdge(c, sink)
//	task := &lpdag.Task{Name: "dag", G: b.MustBuild(), Deadline: 20, Period: 20}
//
//	ts, err := lpdag.NewTaskSet(task)
//	...
//	an, err := lpdag.NewAnalyzer(lpdag.Options{Cores: 4, Method: lpdag.LPILP})
//	...
//	report, err := an.Analyze(ctx, ts)
//	fmt.Print(report)
//
// For interactive what-if and admission-control workloads, hold a
// Session: edits (add/remove/reprioritize a task, change the core
// count) are absorbed statefully; a query re-analyzes the set from
// scratch, reusing the µ tables memoized on the graphs it holds:
//
//	s, err := lpdag.NewSession(lpdag.Options{Cores: 4, Method: lpdag.LPILP}, tasks...)
//	...
//	verdict, err := s.TryAdmit(ctx, newTask, -1) // admission probe, no commit
//	_ = s.AddTask(newTask, -1)                   // commit it
//	report, err := s.Report(ctx)
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// the paper's equations to the implementation.
package lpdag

import (
	"context"
	"io"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/engine/cache"
	"repro/internal/experiments"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ppp"
	"repro/internal/repair"
	"repro/internal/seqlp"
	"repro/internal/session"
	"repro/internal/sim"
)

// Task model types (see internal/model and internal/dag).
type (
	// Task is one sporadic DAG task τ = (G, D, T) with constrained
	// deadline D ≤ T.
	Task = model.Task
	// TaskSet is a priority-ordered set of tasks (index 0 = highest).
	TaskSet = model.TaskSet
	// Graph is an immutable DAG of non-preemptive regions.
	Graph = dag.Graph
	// GraphBuilder accumulates nodes and edges; its zero value is ready
	// to use.
	GraphBuilder = dag.Builder
)

// Analysis types (see internal/core).
type (
	// Analyzer runs the response-time analysis with fixed options.
	Analyzer = core.Analyzer
	// Options configure an Analyzer.
	Options = core.Options
	// Report is the analysis outcome for a task set.
	Report = core.Report
	// TaskReport is the per-task analysis outcome.
	TaskReport = core.TaskReport
	// Method selects the analysis variant.
	Method = core.Method
)

// Analysis variants.
const (
	// FPIdeal is the fully-preemptive baseline (Equation (1) of the
	// paper): no blocking, zero preemption cost.
	FPIdeal = core.FPIdeal
	// LPMax bounds lower-priority blocking by the m largest NPRs
	// regardless of precedence (Equation (5)): cheap, pessimistic.
	LPMax = core.LPMax
	// LPILP bounds blocking by the largest NPR sets that can actually
	// run in parallel (Equations (6)-(8)): tighter, costlier.
	LPILP = core.LPILP
)

// Methods lists the analysis variants in presentation order.
func Methods() []Method { return core.Methods() }

// NewAnalyzer validates the options and returns an Analyzer.
func NewAnalyzer(opts Options) (*Analyzer, error) { return core.New(opts) }

// NewTaskSet validates the tasks and returns a set in the given priority
// order (highest first).
func NewTaskSet(tasks ...*Task) (*TaskSet, error) { return model.NewTaskSet(tasks...) }

// ReadTaskSet reads a task set from JSON (the format written by
// (*TaskSet).WriteJSON and cmd/lpdag-gen).
func ReadTaskSet(r io.Reader) (*TaskSet, error) { return model.ReadJSON(r) }

// Generator types (see internal/gen): the random task-set populations of
// the paper's evaluation (Section VI-A).
type (
	// Generator produces random DAG tasks and task sets.
	Generator = gen.Generator
	// GenParams configure a Generator.
	GenParams = gen.Params
	// DAGParams control the fork-join expansion of one task graph.
	DAGParams = gen.DAGParams
	// Group selects the task population.
	Group = gen.Group
)

// Task populations of the evaluation.
const (
	// GroupMixed mixes highly parallel and sequential tasks (embedded
	// domain, the paper's first group).
	GroupMixed = gen.GroupMixed
	// GroupParallel uses uniformly highly parallel tasks (HPC domain,
	// the paper's second group).
	GroupParallel = gen.GroupParallel
)

// Shape selects an extended DAG structure family (gen.Shape).
type Shape = gen.Shape

// DAG shape families of the extended scenario sweeps.
const (
	// ShapeAuto keeps the population-appropriate paper structure.
	ShapeAuto = gen.ShapeAuto
	// ShapeWide emits flat fork-joins of width ≥ NPar.
	ShapeWide = gen.ShapeWide
	// ShapeDeep emits long chains with occasional two-wide diamonds.
	ShapeDeep = gen.ShapeDeep
	// ShapeOpenMP emits the blocked-LU wavefront of examples/openmp:
	// diagonal steps fanning out to shrinking panel updates.
	ShapeOpenMP = gen.ShapeOpenMP
)

// PaperGenParams returns the Section VI-A generator configuration.
func PaperGenParams(group Group) GenParams { return gen.PaperParams(group) }

// NewGenerator returns a deterministic Generator.
func NewGenerator(seed int64, params GenParams) *Generator { return gen.New(seed, params) }

// Simulator types (see internal/sim): a discrete-event global-FP
// limited-preemptive scheduler used to validate the analysis.
type (
	// SimConfig parameterises one simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a run.
	SimResult = sim.Result
	// JobStat describes one completed job.
	JobStat = sim.JobStat
	// Span is one contiguous node execution on a core.
	Span = sim.Span
)

// Simulate runs the limited-preemptive scheduler simulator.
func Simulate(ts *TaskSet, cfg SimConfig) (*SimResult, error) { return sim.Run(ts, cfg) }

// Placement types (see internal/ppp): preemption-point placement
// exploration.
type (
	// PlacementPoint is the outcome of one NPR-length budget.
	PlacementPoint = ppp.Point
)

// SplitNodes caps every NPR at maxNPR by splitting long nodes into
// chains (finer preemption points, less blocking on others).
func SplitNodes(g *Graph, maxNPR int64) *Graph { return dag.Split(g, maxNPR) }

// CoarsenChains merges linear runs of nodes up to maxNPR (fewer
// preemption points, more blocking on others).
func CoarsenChains(g *Graph, maxNPR int64) *Graph { return ppp.CoarsenChains(g, maxNPR) }

// ExplorePlacement sweeps NPR-length budgets over the task set under a
// limited-preemptive analysis method.
func ExplorePlacement(ts *TaskSet, cores int, budgets []int64, method Method) ([]PlacementPoint, error) {
	return ppp.Explore(ts, cores, budgets, method)
}

// Blocking terms (see internal/blocking), exposed for tooling that wants
// the Δ values without a full analysis.
type (
	// Interference bundles Δ^m and Δ^{m-1}.
	Interference = blocking.Interference
	// Backend selects the solvers of BlockingLPILP.
	Backend = blocking.Backend
)

// BlockingLPILP solvers.
const (
	// Combinatorial solves µ and ρ with exact max-weight-clique and
	// assignment algorithms, as every analysis does.
	Combinatorial = blocking.Combinatorial
	// PaperILP solves the paper's literal 0-1 ILP encodings with a
	// built-in branch-and-bound solver: the same values, far slower.
	PaperILP = blocking.PaperILP
)

// BlockingLPMax computes Δ^m and Δ^{m-1} of a lower-priority set under
// Equation (5).
func BlockingLPMax(graphs []*Graph, cores int) Interference {
	return blocking.Compute(graphs, cores, blocking.LPMax, blocking.Combinatorial)
}

// BlockingLPILP computes Δ^m and Δ^{m-1} under Equations (6)-(8) with
// the solvers be names: Combinatorial, as every analysis does, or the
// paper's PaperILP encodings, its oracle.
func BlockingLPILP(graphs []*Graph, cores int, be Backend) Interference {
	return blocking.Compute(graphs, cores, blocking.LPILP, be)
}

// PaperExample returns the running example of the paper (Figure 1) as a
// five-task set: a synthetic highest-priority task over the four tasks
// τ1-τ4 whose blocking tables the paper works out in Tables I-III.
func PaperExample() *TaskSet { return fixture.TaskSet() }

// PaperExampleGraphs returns just the four Figure 1 DAGs (τ1..τ4).
func PaperExampleGraphs() []*Graph { return fixture.LowerPriorityGraphs() }

// Analyze is a one-shot convenience: analyze ts on the given core count
// with the given method. Callers needing cancellation, non-default
// options, or warm scratch reuse should hold an Analyzer and call its
// context-aware Analyze.
func Analyze(ts *TaskSet, cores int, method Method) (*Report, error) {
	a, err := NewAnalyzer(Options{Cores: cores, Method: method})
	if err != nil {
		return nil, err
	}
	return a.Analyze(context.Background(), ts)
}

// Session types (see internal/session and internal/engine): the
// stateful what-if / admission-control API. A Session holds a task set
// and options, absorbs edits, and answers each query with a
// from-scratch analysis on the same pooled analyzer Analyze uses; the
// µ tables stay memoized on the task graphs, so an edit pays fresh
// tables only for the graphs it introduced. Reports are bit-identical
// to a from-scratch Analyze of the same set.
type (
	// Session is a long-lived, editable task set with a memoized
	// report.
	Session = session.Session
	// SessionEdit is one element of a transactional Session.Apply batch.
	SessionEdit = session.Edit
	// SessionRegistry owns the live sessions of an engine: bounded
	// count, TTL eviction, id lookup; the lpdag-serve /v1/sessions
	// endpoints are its HTTP face.
	SessionRegistry = engine.SessionRegistry
	// SessionRegistryConfig bounds a SessionRegistry.
	SessionRegistryConfig = engine.SessionRegistryConfig
	// SessionSnapshot is the canonical binary-serializable state of a
	// Session (id, options, ordered task set, edit epoch, last touch);
	// restoring one yields a Session whose Report is bit-identical.
	SessionSnapshot = session.Snapshot
	// SessionStore is the crash-safe on-disk session log behind
	// lpdag-serve -session-dir (fsync per committed edit batch,
	// torn-tail-tolerant recovery, rename-based compaction).
	SessionStore = engine.SessionStore
	// SessionFaultConfig injects storage and hand-off faults into a
	// SessionStore for crash-tolerance tests.
	SessionFaultConfig = engine.FaultConfig
)

// Repair types (see internal/repair): the anytime NPR-placement
// search that turns "unschedulable" into a sequence of split/coarsen/
// priority transforms that fix it. Session.Repair drives it through
// the pooled analyzer; lpdag-serve exposes it as
// POST /v1/sessions/{id}/repair and the REPL as `fix`.
type (
	// RepairConfig parameterises a repair search; the zero value is a
	// usable greedy search with derived split budgets.
	RepairConfig = repair.Config
	// RepairResult is a search outcome: the transform sequence, the
	// repaired task ordering and its report, and the anytime exit flag.
	RepairResult = repair.Result
	// RepairTransform is one placement step (split/coarsen/move).
	RepairTransform = repair.Transform
	// RepairStrategy selects greedy beam search or exhaustive
	// breadth-first enumeration.
	RepairStrategy = repair.Strategy
)

// Repair strategies.
const (
	// RepairGreedy is the blocking-guided beam search (the default).
	RepairGreedy = repair.Greedy
	// RepairExhaustive enumerates sequences breadth-first: minimal
	// transform count, exponential cost.
	RepairExhaustive = repair.Exhaustive
)

// RepairSearch looks for the cheapest transform sequence that makes
// tasks schedulable under eval — see repair.Search. Most callers want
// Session.Repair instead, which binds eval to an analysis under the
// session's options.
func RepairSearch(ctx context.Context, tasks []*Task, cfg RepairConfig, eval repair.Eval) (*RepairResult, error) {
	return repair.Search(ctx, tasks, cfg, eval)
}

// RepairApply replays a transform sequence onto a priority ordering.
func RepairApply(tasks []*Task, trs []RepairTransform) ([]*Task, error) {
	return repair.Apply(tasks, trs)
}

// NewSession validates the options and initial tasks (highest priority
// first; empty is allowed) and returns a ready Session.
func NewSession(opts Options, tasks ...*Task) (*Session, error) {
	return session.New(opts, tasks...)
}

// NewSessionRegistry returns a session registry whose analyses share
// the engine's cache and job slots.
func NewSessionRegistry(e *Engine, cfg SessionRegistryConfig) *SessionRegistry {
	return engine.NewSessionRegistry(e, cfg)
}

// OpenSessionStore opens (creating if needed) the durable session log
// in dir, recovering every intact snapshot and truncating a torn tail
// left by a crash mid-append.
func OpenSessionStore(dir string) (*SessionStore, error) {
	return engine.OpenSessionStore(dir)
}

// RestoreSession rebuilds a live Session from a snapshot; its Report is
// bit-identical to the session the snapshot was taken from.
func RestoreSession(snap *SessionSnapshot) (*Session, error) {
	return session.Restore(snap)
}

// Service types (see internal/engine): the long-running concurrent
// analysis engine and its HTTP front end (cmd/lpdag-serve).
type (
	// Engine runs analyze/simulate/generate jobs on their callers'
	// goroutines, at most Workers at once; its analyses share one
	// content-addressed µ-table cache.
	Engine = engine.Engine
	// EngineConfig sizes an Engine (workers, cache) and wires its
	// metrics.
	EngineConfig = engine.Config
	// EngineStats snapshots the engine's job and cache counters.
	EngineStats = engine.Stats
	// AnalyzeSpec selects per-request analysis parameters.
	AnalyzeSpec = engine.AnalyzeSpec
	// SimulateSpec parameterises an engine simulation job.
	SimulateSpec = engine.SimulateSpec
	// GenerateSpec parameterises an engine generation job.
	GenerateSpec = engine.GenerateSpec
	// ServerConfig configures the HTTP front end (body size, in-flight
	// requests, sessions); what a request may ask for is bounded by
	// internal/limits, not configured.
	ServerConfig = engine.ServerConfig
	// EngineServer is the engine's HTTP front end plus the node's
	// draining flag: StartDraining flips /healthz to "draining".
	EngineServer = engine.Server
	// Cache is the content-addressed memo store for the expensive
	// µ-table computations (clique searches); share one via
	// Options.Cache so structurally identical graphs — however they
	// arrive — solve each table once across analyzers. Cheap derived
	// quantities are recomputed, never cached: a hit must beat
	// recompute, or it isn't worth a lookup.
	Cache = cache.Cache
	// CacheStats snapshots a Cache's hit/miss/wait/eviction counters.
	CacheStats = cache.Stats
	// MetricsRegistry collects the process's metric series and writes
	// Prometheus text exposition. Pass one via EngineConfig.Obs to
	// instrument an engine (slots, cache, sessions, analysis traces);
	// its Handler serves GET /metrics. A nil registry disables all
	// instrumentation at zero cost.
	MetricsRegistry = obs.Registry
)

// NewEngine starts a concurrent analysis engine; Close it when done.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// NewEngineServer returns the engine's HTTP server (the lpdag-serve
// API: POST /v1/analyze, /v1/simulate, /v1/generate, the session
// routes, GET /healthz, /stats; MountCampaignRoutes adds the campaign
// stream). The returned server is an http.Handler.
func NewEngineServer(e *Engine, cfg ServerConfig) *EngineServer { return engine.NewServer(e, cfg) }

// NewCache returns a bounded content-addressed µ-table cache
// (maxEntries ≤ 0 selects the default bound).
func NewCache(maxEntries int) *Cache { return cache.New(maxEntries) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Experiment-orchestration types (see internal/experiments): the
// parallel campaign sweeps and the differential soundness harness.
type (
	// CampaignConfig describes a sweep campaign: the cartesian grid
	// Scenarios × Ms × UFracs with SetsPerPoint task sets per point.
	CampaignConfig = experiments.CampaignConfig
	// CampaignScenario is one task-population family of a campaign.
	CampaignScenario = experiments.Scenario
	// CampaignPoint is one grid point.
	CampaignPoint = experiments.Point
	// CampaignPointResult is the per-point outcome (schedulable counts
	// per method).
	CampaignPointResult = experiments.PointResult
	// CampaignRunOptions control execution and streaming (engine,
	// JSONL/CSV writers, progress callback, resume data).
	CampaignRunOptions = experiments.RunOptions
	// CampaignProgress reports incremental completion with an ETA.
	CampaignProgress = experiments.Progress
	// SoundnessConfig parameterises the simulation-vs-analysis
	// differential soundness harness.
	SoundnessConfig = experiments.SoundnessConfig
	// SoundnessReport aggregates a soundness sweep.
	SoundnessReport = experiments.SoundnessReport
	// SoundnessViolation is one analytical-bound violation with its
	// minimized reproducer.
	SoundnessViolation = experiments.SoundnessViolation
)

// RunCampaign executes a sweep campaign on an engine, one job per
// point, the engine's workers pulling points in index order, and
// streams per-point results in deterministic index order. Output is
// byte-identical for any worker count (see DESIGN.md, "Campaign
// orchestrator").
func RunCampaign(cfg CampaignConfig, opts CampaignRunOptions) ([]CampaignPointResult, error) {
	return experiments.RunCampaign(cfg, opts)
}

// CampaignScenarios returns the named scenario registry (the paper's
// populations plus heavy/light utilization mixes, wide/deep DAG shapes,
// and NPR-granularity families).
func CampaignScenarios() []CampaignScenario { return experiments.StandardScenarios() }

// CampaignScenarioByName resolves a registry name.
func CampaignScenarioByName(name string) (CampaignScenario, error) {
	return experiments.ScenarioByName(name)
}

// ReadCampaignJSONL decodes a campaign's JSON-lines result stream (for
// resuming via CampaignRunOptions.Completed, or analysis).
func ReadCampaignJSONL(r io.Reader) ([]CampaignPointResult, error) {
	return experiments.ReadCampaignJSONL(r)
}

// RunSoundness sweeps generated (task set, cores) points and checks
// every analytical bound against the discrete-event simulator oracle.
func RunSoundness(cfg SoundnessConfig) (*SoundnessReport, error) {
	return experiments.RunSoundness(cfg)
}

// MountCampaignRoutes serves POST /v1/campaign (a sweep campaign as
// streamed ndjson results) on srv, as cmd/lpdag-serve does: behind
// srv's admission, on srv's engine.
func MountCampaignRoutes(srv *EngineServer) { experiments.Mount(srv) }

// Sequential-task substrate (see internal/seqlp): the RTNS 2015 analysis
// of Thekkilakattil et al. the paper generalises to DAGs.
type (
	// SeqTask is a sequential task: an ordered chain of NPRs.
	SeqTask = seqlp.Task
	// SeqResult is the sequential analysis outcome.
	SeqResult = seqlp.Result
)

// AnalyzeSequential runs the sequential limited-preemptive analysis
// (priority order: index 0 highest).
func AnalyzeSequential(tasks []*SeqTask, cores int) (*SeqResult, error) {
	return seqlp.Analyze(tasks, cores)
}
