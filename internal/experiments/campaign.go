package experiments

// The parallel campaign orchestrator: sweeps a grid of (scenario,
// cores, utilization) points over the engine's job slots.
//
// A campaign's points run on the experiment runner (runner.go): one
// engine job per point, pulled in index order by the engine's workers,
// so the concurrency is the engine's worker count. The analyses do not
// consult the engine's µ-table cache: every set is generated fresh and
// analyzed once, and the µ memo on each graph already serves a set's
// other methods. Each task set's RNG seed derives from (campaign seed,
// point index, set index) alone (see seed.go), so campaign output is
// bit-identical regardless of worker count and completion order; the
// Merger reorders finished points back into index order before
// writing, which keeps the JSONL and CSV streams byte-stable too.

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ppp"
)

// Scenario is one task-population family of a campaign: the generator
// knobs plus optional preemption-point transforms. The zero value is the
// paper's mixed population.
type Scenario struct {
	// Name labels the family in results ("mixed", "wide", …). Must be
	// non-empty and match [A-Za-z0-9._-]+ so the CSV stream stays
	// delimiter-free.
	Name string `json:"name"`
	// Group selects the base population (Section VI-A).
	Group gen.Group `json:"group"`
	// Shape overrides the DAG structure (gen.ShapeWide / gen.ShapeDeep).
	Shape gen.Shape `json:"shape,omitempty"`
	// Beta / UMax bound the per-task utilization draw (0 = paper
	// defaults 0.5 / 1). Heavy mixes push Beta up; light mixes pull
	// UMax down.
	Beta float64 `json:"beta,omitempty"`
	UMax float64 `json:"umax,omitempty"`
	// SeqProb overrides the mixed population's sequential-task
	// probability (0 = default 0.5).
	SeqProb float64 `json:"seqprob,omitempty"`
	// NPRSplit, when > 0, caps every NPR at this length by splitting
	// long nodes (dag.Split) after generation: the fine-grained
	// end of the preemption-point granularity sweep.
	NPRSplit int64 `json:"npr_split,omitempty"`
	// NPRCoarsen, when > 0, merges linear runs up to this length
	// (ppp.CoarsenChains): the coarse-grained end.
	NPRCoarsen int64 `json:"npr_coarsen,omitempty"`
	// Tasks fixes the set size (0 = add tasks until the target
	// utilization is reached).
	Tasks int `json:"tasks,omitempty"`
	// DAG overrides the fork-join expansion parameters (nil = the
	// paper's Section VI-A values, adjusted by Shape presets).
	DAG *gen.DAGParams `json:"dag,omitempty"`
}

// Params resolves the scenario to generator parameters.
func (s Scenario) Params() gen.Params {
	p := gen.PaperParams(s.Group)
	if s.DAG != nil {
		p.DAG = *s.DAG
	}
	p.Shape = s.Shape
	if s.Beta > 0 {
		p.Beta = s.Beta
	}
	if s.UMax > 0 {
		p.UMax = s.UMax
	}
	if s.SeqProb > 0 {
		p.SeqProb = s.SeqProb
	}
	return p
}

// TaskSet generates the scenario's task set for one seed and target
// utilization, applying the preemption-point transforms when configured.
func (s Scenario) TaskSet(seed int64, targetU float64) *model.TaskSet {
	return s.taskSet(nil, seed, targetU)
}

// generators pools the generators of task sets, arenas the graph
// storage of campaign points.
var generators = sync.Pool{New: func() any { return new(gen.Generator) }}
var arenas = sync.Pool{New: func() any { return new(dag.Arena) }}

// taskSet is TaskSet from a pooled generator, building every generated
// graph and split into a (fresh ones when a is nil).
func (s Scenario) taskSet(a *dag.Arena, seed int64, targetU float64) *model.TaskSet {
	g := generators.Get().(*gen.Generator)
	defer generators.Put(g)
	gen.Reseed(g, a, seed, s.Params())
	var ts *model.TaskSet
	if s.Tasks > 0 {
		ts = g.TaskSetN(s.Tasks, targetU)
	} else {
		ts = g.TaskSet(targetU)
	}
	if s.NPRSplit > 0 || s.NPRCoarsen > 0 {
		tasks := make([]*model.Task, len(ts.Tasks))
		for i, t := range ts.Tasks {
			graph := t.G
			if s.NPRSplit > 0 {
				graph = dag.SplitIn(a, graph, s.NPRSplit)
			}
			if s.NPRCoarsen > 0 {
				graph = ppp.CoarsenChains(graph, s.NPRCoarsen)
			}
			tasks[i] = &model.Task{Name: t.Name, G: graph, Deadline: t.Deadline, Period: t.Period}
		}
		ts = &model.TaskSet{Tasks: tasks}
	}
	return ts
}

// validName reports whether a scenario name is safe for the CSV stream.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// StandardScenarios is the named scenario registry: the paper's two
// populations plus the extended families of this reproduction.
func StandardScenarios() []Scenario {
	return []Scenario{
		{Name: "mixed", Group: gen.GroupMixed},
		{Name: "parallel", Group: gen.GroupParallel},
		{Name: "heavy", Group: gen.GroupMixed, Beta: 0.7},
		{Name: "light", Group: gen.GroupMixed, Beta: 0.05, UMax: 0.3},
		{Name: "wide", Group: gen.GroupParallel, Shape: gen.ShapeWide,
			DAG: &gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 12, MaxNodes: 40, MaxPathLen: 5, CMin: 1, CMax: 100}},
		{Name: "deep", Group: gen.GroupMixed, Shape: gen.ShapeDeep,
			DAG: &gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 2, MaxNodes: 40, MaxPathLen: 15, CMin: 1, CMax: 100}},
		{Name: "npr-fine", Group: gen.GroupMixed, NPRSplit: 10},
		{Name: "npr-coarse", Group: gen.GroupMixed, NPRCoarsen: 200},
		// openmp is the blocked-LU wavefront family (ROADMAP 4(c)):
		// OpenMP4 depend-clause DAGs whose parallelism drains toward a
		// sequential tail — up to 8 blocks (36 nodes, path 15).
		{Name: "openmp", Group: gen.GroupParallel, Shape: gen.ShapeOpenMP,
			DAG: &gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 6, MaxNodes: 38, MaxPathLen: 15, CMin: 1, CMax: 100}},
	}
}

// registry backs ScenarioByName, so resolving a name does not build the
// whole registry: a wire body may name thousands of scenarios.
var registry = StandardScenarios()

// ScenarioByName resolves a registry name. The result is the caller's
// own: its DAG parameters are a fresh copy.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range registry {
		if s.Name == name {
			if s.DAG != nil {
				d := *s.DAG
				s.DAG = &d
			}
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q", name)
}

// CampaignConfig describes a full sweep campaign: the cartesian grid
// Scenarios × Ms × UFracs, with SetsPerPoint task sets per point.
type CampaignConfig struct {
	Seed         int64
	Ms           []int     // core counts (default 4, 8, 16)
	UFracs       []float64 // target utilization as a fraction of m (default 0.1..0.9)
	SetsPerPoint int       // task sets per grid point (default 25)
	Scenarios    []Scenario
	Methods      []core.Method // analysis methods (default all three)
	// Workers sizes the engine the campaign creates when RunOptions
	// does not supply one (0 = GOMAXPROCS). It never affects results.
	Workers int
}

// normalized fills defaults and validates; it returns a copy.
func (c CampaignConfig) normalized() (CampaignConfig, error) {
	if len(c.Ms) == 0 {
		c.Ms = []int{4, 8, 16}
	}
	for _, m := range c.Ms {
		if m < 1 {
			return c, fmt.Errorf("experiments: core count %d < 1", m)
		}
	}
	if len(c.UFracs) == 0 {
		c.UFracs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	for _, f := range c.UFracs {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return c, fmt.Errorf("experiments: utilization fraction %v not positive finite", f)
		}
	}
	if c.SetsPerPoint < 1 {
		c.SetsPerPoint = 25
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []Scenario{{Name: "mixed", Group: gen.GroupMixed}}
	}
	for _, s := range c.Scenarios {
		if !validName(s.Name) {
			return c, fmt.Errorf("experiments: scenario name %q invalid (want [A-Za-z0-9._-]+)", s.Name)
		}
	}
	if len(c.Methods) == 0 {
		c.Methods = core.Methods()
	}
	return c, nil
}

// Point is one grid point of a campaign.
type Point struct {
	Index    int
	Scenario Scenario
	M        int
	U        float64 // absolute target utilization (frac · m)
}

// Points enumerates the campaign grid in deterministic index order:
// scenarios outermost, then core counts, then utilization fractions.
func (c CampaignConfig) Points() ([]Point, error) {
	cfg, err := c.normalized()
	if err != nil {
		return nil, err
	}
	pts := make([]Point, cfg.gridSize())
	for i := range pts {
		pts[i] = cfg.point(i)
	}
	return pts, nil
}

// gridSize is the point count of a normalized grid, or math.MaxInt
// where the product overflows, so a bound can be checked before
// anything is built for the grid.
func (c CampaignConfig) gridSize() int {
	return mulCapped(mulCapped(len(c.Scenarios), len(c.Ms)), len(c.UFracs))
}

// point derives grid point i of a normalized config from its index, in
// Points order, so running a lease never builds the grid.
func (c CampaignConfig) point(i int) Point {
	nu, nm := len(c.UFracs), len(c.Ms)
	m, f := c.Ms[i/nu%nm], c.UFracs[i%nu]
	return Point{Index: i, Scenario: c.Scenarios[i/nu/nm], M: m, U: math.Round(f*float64(m)*1e6) / 1e6}
}

// mulCapped returns a·b for a, b ≥ 0, or math.MaxInt where that
// overflows.
func mulCapped(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// PointResult is the outcome at one grid point: the schedulable count
// per method over the point's task sets. All fields are deterministic in
// (campaign config, campaign seed) — wall-clock measurements live in the
// progress stream, never here, so result streams are byte-stable.
type PointResult struct {
	Index    int            `json:"index"`
	Scenario string         `json:"scenario"`
	M        int            `json:"m"`
	U        float64        `json:"u"`
	Sets     int            `json:"sets"`
	Sched    map[string]int `json:"sched"`
}

// Pct returns a method's schedulable percentage.
func (r PointResult) Pct(method string) float64 {
	if r.Sets == 0 {
		return 0
	}
	return 100 * float64(r.Sched[method]) / float64(r.Sets)
}

// Progress reports incremental campaign completion (points done, not
// byte output): Done is monotone, ETA a linear extrapolation.
type Progress struct {
	Done    int
	Total   int
	Elapsed time.Duration
	ETA     time.Duration
}

// RunOptions control campaign execution and streaming.
type RunOptions struct {
	// Context cancels the campaign (nil = background).
	Context context.Context
	// Engine runs the point jobs, at most its worker count at once;
	// when nil the campaign starts its own with CampaignConfig.Workers
	// workers and closes it on return. The campaign leaves the engine's
	// µ-table cache alone: its freshly generated sets would only miss.
	Engine *engine.Engine
	// JSONL, when non-nil, receives one compact JSON PointResult per
	// line, in point-index order, as points complete.
	JSONL io.Writer
	// CSV, when non-nil, receives the header and one row per point, in
	// point-index order, as points complete.
	CSV io.Writer
	// OnProgress, when non-nil, is called after every completed point.
	OnProgress func(Progress)
	// Obs, when non-nil, publishes the same progress as the
	// lpdag_campaign_* series (points planned/done, ETA, cumulative
	// completed counter) so the run is watchable from /metrics.
	Obs *obs.Registry
	// Completed carries results of a previous (partial) run of the SAME
	// campaign, e.g. re-read from its JSONL stream with
	// ReadCampaignJSONL: points whose index appears here are emitted
	// verbatim instead of recomputed, which is the resume mechanism.
	// Because every point is deterministic in (seed, index), the
	// resumed output is byte-identical to an uninterrupted run.
	Completed []PointResult
}

// CheckResult validates one carried-over or remotely computed result
// against the campaign grid: its index must name a point of THIS grid
// and the point metadata must match. Resuming with a different
// campaign's file (or accepting a confused cluster worker's stream)
// would otherwise silently emit stale foreign points as this campaign's
// output.
func CheckResult(cfg CampaignConfig, pr PointResult) error {
	ncfg, err := cfg.normalized()
	if err != nil {
		return err
	}
	if n := ncfg.gridSize(); pr.Index < 0 || pr.Index >= n {
		return fmt.Errorf("experiments: point index %d outside this campaign's grid (%d points)", pr.Index, n)
	}
	pt := ncfg.point(pr.Index)
	if pr.Scenario != pt.Scenario.Name || pr.M != pt.M || pr.U != pt.U || pr.Sets != ncfg.SetsPerPoint {
		return fmt.Errorf("experiments: point %d is (%s, m=%d, u=%v, sets=%d) in the carried data but (%s, m=%d, u=%v, sets=%d) in this campaign — wrong file or changed config",
			pr.Index, pr.Scenario, pr.M, pr.U, pr.Sets, pt.Scenario.Name, pt.M, pt.U, ncfg.SetsPerPoint)
	}
	return nil
}

// RunCampaign executes the campaign and returns the per-point results in
// index order. Results stream to the writers incrementally; the returned
// slice is the same data (campaign grids are small — memory pressure is
// in the per-set analyses, which are never accumulated).
func RunCampaign(cfg CampaignConfig, opts RunOptions) ([]PointResult, error) {
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	m, missing, err := NewMerger(ncfg, opts)
	if err != nil {
		return nil, err
	}
	if err := runCampaignPoints(ncfg, missing, opts, func(p int, pr PointResult) { m.Put(missing[p], pr) }); err != nil {
		return nil, err
	}
	return m.Results()
}

// StreamEmitter writes point results to optional JSONL and CSV sinks,
// emitting the CSV header lazily and latching the first write error.
// The Merger writes every campaign stream through one — local, cluster
// worker and merged cluster — so all byte streams come from the same
// code path. The encode scratch is
// part of the emitter, so a whole campaign stream reuses one buffer.
type StreamEmitter struct {
	jsonl, csv io.Writer
	names      []string
	enc        encState
	csvOnce    bool
	err        error
}

// NewStreamEmitter builds an emitter over the given sinks (either may
// be nil); names are the CSV method columns.
func NewStreamEmitter(jsonl, csv io.Writer, names []string) *StreamEmitter {
	return &StreamEmitter{jsonl: jsonl, csv: csv, names: names}
}

// Emit writes one result; after the first write error it is a no-op.
func (e *StreamEmitter) Emit(r PointResult) {
	if e.err != nil {
		return
	}
	if e.jsonl != nil {
		buf, err := e.enc.appendPointResult(e.enc.buf[:0], r)
		e.enc.buf = buf
		if err == nil {
			_, err = e.jsonl.Write(buf)
		}
		if err != nil {
			e.err = err
			return
		}
	}
	if e.csv != nil {
		if !e.csvOnce {
			if _, err := io.WriteString(e.csv, campaignCSVHeaderNames(e.names)); err != nil {
				e.err = err
				return
			}
			e.csvOnce = true
		}
		e.enc.buf = appendCampaignCSVRow(e.enc.buf[:0], r, e.names)
		if _, err := e.csv.Write(e.enc.buf); err != nil {
			e.err = err
		}
	}
}

// Err returns the latched first write error, if any.
func (e *StreamEmitter) Err() error { return e.err }

// RunCampaignSubset computes just the given grid points of a campaign:
// the worker half of the cluster shard protocol (the coordinator leases
// index subsets to remote workers, each of which calls this). Indices
// must be strictly increasing and inside the grid. Results stream to the
// writers in that order; because every point is deterministic in
// (campaign seed, index), the emitted lines are byte-identical to the
// corresponding lines of a full local run.
func RunCampaignSubset(cfg CampaignConfig, indices []int, opts RunOptions) ([]PointResult, error) {
	ncfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	n := ncfg.gridSize()
	for i, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("experiments: subset: point index %d outside this campaign's grid (%d points)", idx, n)
		}
		if i > 0 && idx <= indices[i-1] {
			return nil, fmt.Errorf("experiments: subset: indices must be strictly increasing (%d after %d)", idx, indices[i-1])
		}
	}
	if len(indices) == 0 {
		return nil, nil
	}
	m := newMerger(make([]PointResult, len(indices)), make([]bool, len(indices)), methodNames(ncfg.Methods), opts)
	if err := runCampaignPoints(ncfg, indices, opts, m.Put); err != nil {
		return nil, err
	}
	return m.Results()
}

// runCampaignPoints computes the grid points idx of a normalized config
// on the runner, over opts.Engine or a private engine of cfg.Workers
// workers.
func runCampaignPoints(cfg CampaignConfig, idx []int, opts RunOptions, done func(p int, pr PointResult)) error {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Config{Workers: cfg.Workers})
		defer eng.Close()
	}
	return runPoints(ctx, eng, idx, func(ctx context.Context, i int) (PointResult, error) {
		return runCampaignPoint(ctx, cfg, cfg.point(i))
	}, done)
}

// runCampaignPoint generates and analyzes the task sets of one grid
// point. It runs as one engine job, holding one slot, so the analyses
// execute inline (submitting nested jobs from a job could deadlock the
// engine). The sets are generated once and each method analyzes them
// as one ScheduleBatch, so the whole point reuses a single warm rta
// scratch state per method, and the µ table each graph memoizes for the
// first LP-ILP method serves the next. The graphs live in a pooled
// arena until the next point draws it: the job returns only counts, and
// campaigns keep no graph in the µ-table cache.
func runCampaignPoint(ctx context.Context, cfg CampaignConfig, pt Point) (PointResult, error) {
	res := PointResult{
		Index:    pt.Index,
		Scenario: pt.Scenario.Name,
		M:        pt.M,
		U:        pt.U,
		Sets:     cfg.SetsPerPoint,
		Sched:    make(map[string]int, len(cfg.Methods)),
	}
	a := arenas.Get().(*dag.Arena)
	defer arenas.Put(a)
	a.Reset()
	sets := make([]*model.TaskSet, cfg.SetsPerPoint)
	for si := range sets {
		sets[si] = pt.Scenario.taskSet(a, SeedFor(cfg.Seed, pt.Index, si), pt.U)
	}
	for _, method := range cfg.Methods {
		n, err := countSchedulable(ctx, sets, core.Options{Cores: pt.M, Method: method})
		if err != nil {
			return res, err
		}
		res.Sched[method.String()] = n
	}
	return res, nil
}

// countSchedulable analyzes sets with one analyzer as one ScheduleBatch
// — one warm rta scratch state for them all — and counts the
// schedulable ones.
func countSchedulable(ctx context.Context, sets []*model.TaskSet, opts core.Options) (int, error) {
	a, err := core.New(opts)
	if err != nil {
		return 0, err
	}
	verdicts, err := a.ScheduleBatch(ctx, sets)
	if err != nil {
		return 0, fmt.Errorf("method %v: %w", opts.Method, err)
	}
	n := 0
	for _, ok := range verdicts {
		if ok {
			n++
		}
	}
	return n, nil
}

// methodNames renders a method list for CSV headers.
func methodNames(methods []core.Method) []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = m.String()
	}
	return out
}
