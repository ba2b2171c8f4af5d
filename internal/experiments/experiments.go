// Package experiments regenerates every table and figure of the
// evaluation of Serrano et al. (DATE 2016): the worked example
// (Tables I-III), the schedulability curves of Figure 2 (m = 4, 8, 16),
// the second-group comparison reported in the text of Section VI-B, and
// the analysis-runtime measurements.
//
// Results are returned as data and rendered as CSV and ASCII charts;
// cmd/lpdag-experiments is the command-line front end and the root
// bench_test.go exposes one benchmark per table/figure.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/textplot"
)

// Fig2Config parameterises one schedulability-curve experiment (one
// sub-figure of Figure 2).
type Fig2Config struct {
	M            int     // cores (paper: 4, 8, 16)
	UStart       float64 // first utilization (paper: 1)
	UEnd         float64 // last utilization (paper: m)
	UStep        float64 // grid step (paper plots ~0.25 for m=4)
	SetsPerPoint int     // task sets per utilization (paper: 300)
	Seed         int64
	Group        gen.Group

	// SeqProbOverride, when non-zero, overrides the mixed population's
	// sequential-task probability (calibration knob; the paper does not
	// print the mixing ratio).
	SeqProbOverride float64
}

// PaperFig2Config returns the Section VI configuration for a core count,
// with the sample count configurable (the paper uses 300 per point).
func PaperFig2Config(m, setsPerPoint int, seed int64) Fig2Config {
	step := 0.25
	if m >= 8 {
		step = 0.5
	}
	return Fig2Config{
		M: m, UStart: 1, UEnd: float64(m), UStep: step,
		SetsPerPoint: setsPerPoint, Seed: seed, Group: gen.GroupMixed,
	}
}

// utilizations returns the sweep's utilization grid. It fails for a
// core count below 1 or an empty grid.
func (cfg Fig2Config) utilizations() ([]float64, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("experiments: invalid Fig2Config.M: %d (must be ≥ 1)", cfg.M)
	}
	step := cfg.UStep
	if step <= 0 {
		step = 0.25
	}
	var us []float64
	for u := cfg.UStart; u <= cfg.UEnd+1e-9; u += step {
		us = append(us, math.Round(u*1e6)/1e6)
	}
	if len(us) == 0 {
		return nil, fmt.Errorf("experiments: empty utilization grid: UStart %g > UEnd %g", cfg.UStart, cfg.UEnd)
	}
	return us, nil
}

// scenario is the population a Figure 2 sweep samples.
func (cfg Fig2Config) scenario() Scenario {
	return Scenario{Name: "fig2", Group: cfg.Group, SeqProb: cfg.SeqProbOverride}
}

// fig2Set deterministically generates one task set of a Figure 2 sweep:
// set `set` of grid point `point`. Each set has its own derived seed
// (see SeedFor), so no two sets share generator state and growing any
// dimension of the sweep — more sets, more points, more methods — never
// perturbs the sets already generated.
func fig2Set(cfg Fig2Config, point, set int, u float64) *model.TaskSet {
	return cfg.scenario().TaskSet(SeedFor(cfg.Seed, point, set), u)
}

// CurvePoint is the outcome at one utilization: the percentage of
// schedulable task sets per method.
type CurvePoint struct {
	U   float64
	Pct map[core.Method]float64
}

// Figure2 sweeps the utilization grid and returns one point per
// utilization. It runs as a campaign of one scenario and one core count
// over the utilization fractions u/m, so set j of grid point i is
// fig2Set(cfg, i, j, u) and the analyses run on the engine.
func Figure2(cfg Fig2Config) ([]CurvePoint, error) {
	us, err := cfg.utilizations()
	if err != nil {
		return nil, err
	}
	fracs := make([]float64, len(us))
	for i, u := range us {
		fracs[i] = u / float64(cfg.M)
	}
	results, err := RunCampaign(CampaignConfig{
		Seed: cfg.Seed, Ms: []int{cfg.M}, UFracs: fracs,
		SetsPerPoint: max(cfg.SetsPerPoint, 1),
		Scenarios:    []Scenario{cfg.scenario()},
	}, RunOptions{})
	if err != nil {
		return nil, err
	}
	points := make([]CurvePoint, len(results))
	for i, r := range results {
		pct := make(map[core.Method]float64, 3)
		for _, m := range core.Methods() {
			pct[m] = r.Pct(m.String())
		}
		points[i] = CurvePoint{U: r.U, Pct: pct}
	}
	return points, nil
}

// CurveCSV renders points as "U,FP-ideal,LP-ILP,LP-max" rows.
func CurveCSV(points []CurvePoint) string {
	var b strings.Builder
	b.WriteString("utilization,FP-ideal,LP-ILP,LP-max\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f\n",
			p.U, p.Pct[core.FPIdeal], p.Pct[core.LPILP], p.Pct[core.LPMax])
	}
	return b.String()
}

// CurveChart renders points as an ASCII chart in the style of Figure 2.
func CurveChart(title string, points []CurvePoint) string {
	xs := make([]float64, len(points))
	ys := map[core.Method][]float64{}
	for i, p := range points {
		xs[i] = p.U
		for _, m := range core.Methods() {
			ys[m] = append(ys[m], p.Pct[m])
		}
	}
	series := []textplot.Series{
		{Name: "FP-ideal", Marker: '*', Y: ys[core.FPIdeal]},
		{Name: "LP-ILP", Marker: 'o', Y: ys[core.LPILP]},
		{Name: "LP-max", Marker: '+', Y: ys[core.LPMax]},
	}
	return textplot.Chart(title, xs, series, 64, 16, 0, 100)
}

// CheckCurveShape verifies the qualitative properties the paper reports
// for a Figure 2 curve: the per-point ordering FP-ideal ≥ LP-ILP ≥
// LP-max, (near-)full schedulability at the lowest utilization, and
// collapse ordering — LP-max reaches 0% at or before LP-ILP, which
// reaches 0% at or before FP-ideal. It returns a list of violations
// (empty = shape holds).
func CheckCurveShape(points []CurvePoint) []string {
	var issues []string
	for _, p := range points {
		fp, li, lm := p.Pct[core.FPIdeal], p.Pct[core.LPILP], p.Pct[core.LPMax]
		if li > fp+1e-9 || lm > li+1e-9 {
			issues = append(issues,
				fmt.Sprintf("ordering violated at U=%.2f: FP=%.1f ILP=%.1f MAX=%.1f", p.U, fp, li, lm))
		}
	}
	if len(points) > 0 {
		first := points[0]
		for _, m := range core.Methods() {
			if first.Pct[m] < 90 {
				issues = append(issues, fmt.Sprintf(
					"%v starts at %.1f%% (< 90%%) at U=%.2f", m, first.Pct[m], first.U))
			}
		}
	}
	zero := func(method core.Method) float64 {
		for _, p := range points {
			if p.Pct[method] == 0 {
				return p.U
			}
		}
		return math.Inf(1)
	}
	if zero(core.LPMax) > zero(core.LPILP) {
		issues = append(issues, "LP-max should collapse before LP-ILP")
	}
	if zero(core.LPILP) > zero(core.FPIdeal) {
		issues = append(issues, "LP-ILP should collapse before FP-ideal")
	}
	return issues
}

// TasksSweepConfig parameterises the task-count sweep: the alternative
// reading of Figure 2(c), whose printed x-axis is "Number of tasks"
// (2..16) although the caption says "as a function of the utilization".
// We regenerate both readings; this one fixes the total utilization and
// varies the set size.
type TasksSweepConfig struct {
	M            int
	U            float64 // fixed total utilization (e.g. m/4)
	NStart, NEnd int     // task-count grid (paper axis: 2..16)
	SetsPerPoint int
	Seed         int64
	Group        gen.Group
}

// TasksSweepPoint is the outcome at one task count.
type TasksSweepPoint struct {
	N   int
	Pct map[core.Method]float64
}

// TasksSweep runs the task-count sweep, one runner point per task
// count n; set j of point n is seeded SeedFor(Seed, n, j).
func TasksSweep(cfg TasksSweepConfig) ([]TasksSweepPoint, error) {
	if cfg.NStart < 1 {
		cfg.NStart = 2
	}
	if cfg.NEnd < cfg.NStart {
		cfg.NEnd = cfg.NStart
	}
	sets := max(cfg.SetsPerPoint, 1)
	eng := engine.New(engine.Config{})
	defer eng.Close()
	return sweep(eng, cfg.NEnd-cfg.NStart+1, func(ctx context.Context, i int) (TasksSweepPoint, error) {
		n := cfg.NStart + i
		batch := make([]*model.TaskSet, sets)
		for j := range batch {
			batch[j] = gen.New(SeedFor(cfg.Seed, n, j), gen.PaperParams(cfg.Group)).TaskSetN(n, cfg.U)
		}
		pct := make(map[core.Method]float64, 3)
		for _, method := range core.Methods() {
			sched, err := countSchedulable(ctx, batch, core.Options{Cores: cfg.M, Method: method})
			if err != nil {
				return TasksSweepPoint{}, err
			}
			pct[method] = 100 * float64(sched) / float64(sets)
		}
		return TasksSweepPoint{N: n, Pct: pct}, nil
	})
}

// TasksSweepCSV renders the task-count sweep as CSV.
func TasksSweepCSV(points []TasksSweepPoint) string {
	var b strings.Builder
	b.WriteString("tasks,FP-ideal,LP-ILP,LP-max\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%d,%.2f,%.2f,%.2f\n",
			p.N, p.Pct[core.FPIdeal], p.Pct[core.LPILP], p.Pct[core.LPMax])
	}
	return b.String()
}

// Group2Result summarises the second-group experiment of Section VI-B:
// with uniformly highly-parallel task sets, LP-max and LP-ILP perform
// very similarly.
type Group2Result struct {
	Points []CurvePoint
	// MaxGap is the largest |LP-ILP − LP-max| percentage over the grid;
	// MeanGap the average.
	MaxGap  float64
	MeanGap float64
}

// Group2 runs the Figure 2 sweep on the uniformly-parallel population.
func Group2(cfg Fig2Config) (Group2Result, error) {
	cfg.Group = gen.GroupParallel
	points, err := Figure2(cfg)
	if err != nil {
		return Group2Result{}, err
	}
	res := Group2Result{Points: points}
	var sum float64
	for _, p := range points {
		gap := math.Abs(p.Pct[core.LPILP] - p.Pct[core.LPMax])
		sum += gap
		if gap > res.MaxGap {
			res.MaxGap = gap
		}
	}
	res.MeanGap = sum / float64(len(points))
	return res, nil
}

// TimingConfig parameterises the analysis-runtime measurement of
// Section VI-B (MATLAB+CPLEX: 0.45 s, 4.75 s, 43 min for m = 4, 8, 16;
// the absolute Go numbers are not comparable, the growth trend is).
type TimingConfig struct {
	Ms    []int   // core counts to measure (paper: 4, 8, 16)
	Sets  int     // sets per core count
	UFrac float64 // target utilization as a fraction of m (default 0.4)
	Seed  int64
}

// TimingResult is the measurement at one core count.
type TimingResult struct {
	M           int
	Sets        int
	Schedulable int
	AvgPerSet   time.Duration // LP-ILP analysis wall time per set
	TotalTime   time.Duration
	Scenarios   int64 // p(m), the execution-scenario count the paper discusses
}

// Timing measures the LP-ILP schedulability-test runtime per task set.
// It runs serially and without a µ-table cache on purpose: the
// measurement is the wall time of the analysis itself, and every
// generated set is distinct anyway.
func Timing(cfg TimingConfig) []TimingResult {
	if cfg.UFrac <= 0 {
		cfg.UFrac = 0.4
	}
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	out := make([]TimingResult, 0, len(cfg.Ms))
	for _, m := range cfg.Ms {
		sets := make([]*model.TaskSet, cfg.Sets)
		for i := range sets {
			sets[i] = gen.New(SeedFor(cfg.Seed, m, i), gen.PaperParams(gen.GroupMixed)).
				TaskSet(cfg.UFrac * float64(m))
		}
		a := core.MustNew(core.Options{Cores: m, Method: core.LPILP})
		start := time.Now()
		sched := 0
		for _, ts := range sets {
			ok, err := a.Schedulable(context.Background(), ts)
			if err != nil {
				panic(err)
			}
			if ok {
				sched++
			}
		}
		total := time.Since(start)
		out = append(out, TimingResult{
			M: m, Sets: cfg.Sets, Schedulable: sched,
			AvgPerSet: total / time.Duration(cfg.Sets), TotalTime: total,
			Scenarios: partition.Count(m),
		})
	}
	return out
}

// TimingTable renders timing results with the paper's reference numbers.
func TimingTable(results []TimingResult) string {
	paper := map[int]string{4: "0.45 s", 8: "4.75 s", 16: "43 min"}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %10s %14s %12s %18s\n", "m", "p(m)", "avg/set (Go)", "sched/sets", "paper MATLAB+CPLEX")
	for _, r := range results {
		ref := paper[r.M]
		if ref == "" {
			ref = "-"
		}
		fmt.Fprintf(&b, "%4d %10d %14s %7d/%-4d %18s\n",
			r.M, r.Scenarios, r.AvgPerSet.Round(time.Microsecond), r.Schedulable, r.Sets, ref)
	}
	return b.String()
}

// TableIText renders the worked example's µ table (Table I).
func TableIText() string {
	graphs := fixture.LowerPriorityGraphs()
	mus := blocking.MuTables(graphs, fixture.M, blocking.Combinatorial)
	var b strings.Builder
	b.WriteString("Table I: worst-case workload µ_i[c] (Figure 1 tasks, m=4)\n")
	fmt.Fprintf(&b, "%4s %8s %8s %8s %8s\n", "c", "µ1[c]", "µ2[c]", "µ3[c]", "µ4[c]")
	for c := 1; c <= fixture.M; c++ {
		fmt.Fprintf(&b, "%4d %8d %8d %8d %8d\n", c, mus[0][c-1], mus[1][c-1], mus[2][c-1], mus[3][c-1])
	}
	return b.String()
}

// TableIIText renders the execution scenarios of e_4 (Table II).
func TableIIText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: execution scenarios e_%d (p(%d) = %d)\n",
		fixture.M, fixture.M, partition.Count(fixture.M))
	scenarios := partition.All(fixture.M)
	// Present in the paper's order: by decreasing cardinality, then
	// lexicographic.
	sort.SliceStable(scenarios, func(i, j int) bool {
		return len(scenarios[i]) > len(scenarios[j])
	})
	for i, s := range scenarios {
		fmt.Fprintf(&b, "  s%d = %-14s |s| = %d\n", i+1, s.String(), s.Size())
	}
	return b.String()
}

// TableIIIText renders the per-scenario overall workloads and the Δ
// values of the worked example (Table III and Section IV-B3).
func TableIIIText() string {
	graphs := fixture.LowerPriorityGraphs()
	mus := blocking.MuTables(graphs, fixture.M, blocking.Combinatorial)
	var b strings.Builder
	b.WriteString("Table III: overall worst-case workload ρ_k[s_l] (m=4)\n")
	for _, s := range partition.All(fixture.M) {
		rho := blocking.ScenarioWorkload(mus, fixture.M, s, blocking.Combinatorial)
		fmt.Fprintf(&b, "  ρ[%-14s] = %d\n", s.String(), rho)
	}
	in := blocking.Compute(graphs, fixture.M, blocking.LPILP, blocking.Combinatorial)
	mx := blocking.Compute(graphs, fixture.M, blocking.LPMax, blocking.Combinatorial)
	fmt.Fprintf(&b, "LP-ILP: Δ⁴ = %d, Δ³ = %d   (paper: 19, 15)\n", in.DeltaM, in.DeltaM1)
	fmt.Fprintf(&b, "LP-max: Δ⁴ = %d, Δ³ = %d   (paper: 20, 16)\n", mx.DeltaM, mx.DeltaM1)
	return b.String()
}

// VariantPoint is the outcome at one utilization for the analysis
// variants of the ablation study: plain LP-ILP, LP-ILP with the
// final-NPR refinement (future-work (ii)), and LP-ILP with the repeated
// blocking term p·Δ^{m-1} ablated (diagnostic only — unsound as a test,
// it isolates how much schedulability that term costs).
type VariantPoint struct {
	U       float64
	Plain   float64
	Refined float64
	Ablated float64
}

// Variants sweeps the utilization grid with the three LP-ILP variants,
// one runner point per utilization, on the same task sets as Figure2.
func Variants(cfg Fig2Config) ([]VariantPoint, error) {
	us, err := cfg.utilizations()
	if err != nil {
		return nil, err
	}
	n := max(cfg.SetsPerPoint, 1)
	eng := engine.New(engine.Config{})
	defer eng.Close()
	// The variants differ only in the fixed-point iteration; the µ
	// table the first one solves is memoized on each graph for the
	// other two.
	variants := []rta.Config{
		{M: cfg.M, Method: rta.LPILP},
		{M: cfg.M, Method: rta.LPILP, FinalNPRRefinement: true},
		{M: cfg.M, Method: rta.LPILP, AblateRepeatedBlocking: true},
	}
	return sweep(eng, len(us), func(ctx context.Context, point int) (VariantPoint, error) {
		sets := make([]*model.TaskSet, n)
		for i := range sets {
			sets[i] = fig2Set(cfg, point, i, us[point])
		}
		var sched [3]int
		for vi, vcfg := range variants {
			// An rta.Analyzer is single-goroutine: one per point and
			// variant, reused across the point's sets.
			a, err := rta.NewAnalyzer(vcfg)
			if err != nil {
				return VariantPoint{}, err
			}
			for _, ts := range sets {
				res, err := a.AnalyzeInPlace(ctx, ts)
				if err != nil {
					return VariantPoint{}, err
				}
				if res.Schedulable {
					sched[vi]++
				}
			}
		}
		pct := func(vi int) float64 { return 100 * float64(sched[vi]) / float64(n) }
		return VariantPoint{U: us[point], Plain: pct(0), Refined: pct(1), Ablated: pct(2)}, nil
	})
}

// VariantsCSV renders the variant sweep as CSV.
func VariantsCSV(points []VariantPoint) string {
	var b strings.Builder
	b.WriteString("utilization,LP-ILP,LP-ILP+finalNPR,LP-ILP-noRepeatBlocking\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f\n", p.U, p.Plain, p.Refined, p.Ablated)
	}
	return b.String()
}

// PessimismConfig parameterises the analysis-vs-simulation gap study.
type PessimismConfig struct {
	M       int
	U       float64
	Sets    int
	Seed    int64
	Horizon int64 // simulation length per set (default 20 max periods)
}

// PessimismResult quantifies how often the LP-ILP analysis rejects a set
// that survives simulation. Simulation covers only the synchronous
// periodic scenario, so "survives" is necessary, not sufficient — the
// number is an upper bound on the analysis pessimism at this point.
type PessimismResult struct {
	Sets          int
	Accepted      int // analysis says schedulable
	Rejected      int
	RejectedAlive int     // rejected by analysis but no simulated miss
	UpperBoundPct float64 // RejectedAlive / Sets · 100
}

// Pessimism runs the study at one (m, U) point, one runner point per
// task set: the set's LP-ILP verdict decides whether it is simulated.
func Pessimism(cfg PessimismConfig) (PessimismResult, error) {
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	eng := engine.New(engine.Config{})
	defer eng.Close()
	a, err := core.New(core.Options{Cores: cfg.M, Method: core.LPILP})
	if err != nil {
		return PessimismResult{}, err
	}
	type verdict struct{ accepted, alive bool }
	verdicts, err := sweep(eng, cfg.Sets, func(ctx context.Context, i int) (verdict, error) {
		ts := gen.New(SeedFor(cfg.Seed, 0, i), gen.PaperParams(gen.GroupMixed)).TaskSet(cfg.U)
		ok, err := a.Schedulable(ctx, ts)
		if err != nil || ok {
			return verdict{accepted: ok}, err
		}
		horizon := cfg.Horizon
		if horizon <= 0 {
			horizon = 20 * maxPeriod(ts)
		}
		sr, err := sim.Run(ts, sim.Config{M: cfg.M, Duration: horizon})
		if err != nil {
			return verdict{}, err
		}
		return verdict{alive: sr.Misses == 0}, nil
	})
	if err != nil {
		return PessimismResult{}, err
	}
	res := PessimismResult{Sets: cfg.Sets}
	for _, v := range verdicts {
		switch {
		case v.accepted:
			res.Accepted++
		case v.alive:
			res.Rejected++
			res.RejectedAlive++
		default:
			res.Rejected++
		}
	}
	res.UpperBoundPct = 100 * float64(res.RejectedAlive) / float64(res.Sets)
	return res, nil
}
