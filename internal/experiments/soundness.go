package experiments

// The differential soundness harness: the one property this whole
// reproduction rests on is that every analytical response-time bound
// upper-bounds what the discrete-event simulator observes on a legal
// behaviour of the task system. The harness sweeps thousands of
// generated (task set, cores) points drawn from the extended scenario
// families and checks, per point:
//
//   - LP-max, LP-ILP and LP-ILP+finalNPR bounds vs the limited-
//     preemptive simulator, in the donation-safe blocking mode
//     (rta.Config.DonationSafeBlocking): the simulator is eager and
//     work-conserving, and this harness is what discovered that the
//     paper-exact p_k = min(q_k, h_k) accounting is NOT sound against
//     eager core donation at DAG parallelism dips — see the pinned
//     reproducer in TestEagerDonationGapReproducer and the DESIGN.md
//     erratum. The paper-exact bounds stay covered by the static
//     dominance checks below;
//   - the FP-ideal bound vs a unit-split simulation: with every NPR cut
//     to length 1 all completions land on integer instants, so the
//     node-boundary scheduler degenerates to a discrete fully-preemptive
//     global FP scheduler — the model Equation (1) analyzes — while
//     volumes, longest paths and periods are unchanged;
//   - LP-ILP ≤ LP-max per task (tighter blocking must never hurt), and
//     the refined bound ≤ the plain bound.
//
// A violation is shrunk by greedy task removal to a minimized
// reproducer and dumped as JSON (WriteReproducer) so CI can archive it.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/sim"
)

// SoundnessConfig parameterises a soundness sweep.
type SoundnessConfig struct {
	Seed   int64
	Points int // generated (task set, cores) points (default 500)
	// Ms is the core-count pool points draw from (default 2, 3, 4, 8).
	Ms []int
	// UFracMin/UFracMax bound the target utilization as a fraction of m
	// (default 0.3 .. 0.85): a mix of schedulable and overloaded points.
	UFracMin, UFracMax float64
	// Scenarios cycles through the generation families (default: all
	// standard families with WCETs capped at 25 so unit-split
	// simulations stay cheap).
	Scenarios []Scenario
	Backend   core.Backend
	// SimPeriods scales the simulation horizon: SimPeriods × the set's
	// largest period (default 4; the synchronous release at t=0 is the
	// classic worst-case-style scenario, so short horizons already bite).
	SimPeriods int
	// UnitSplitEvery runs the FP-ideal unit-split check on every k-th
	// point (default 1 = all points; raise to trade coverage for time).
	UnitSplitEvery int
	// Workers bounds the engine's concurrent jobs (0 = GOMAXPROCS).
	Workers int
	// MaxViolations caps the number of minimized reproducers collected
	// (default 8); counting continues past the cap.
	MaxViolations int
}

func (c SoundnessConfig) normalized() SoundnessConfig {
	if c.Points < 1 {
		c.Points = 500
	}
	if len(c.Ms) == 0 {
		c.Ms = []int{2, 3, 4, 8}
	}
	if c.UFracMin <= 0 {
		c.UFracMin = 0.3
	}
	if c.UFracMax < c.UFracMin {
		c.UFracMax = 0.85
		if c.UFracMax < c.UFracMin {
			c.UFracMax = c.UFracMin
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = SoundnessScenarios()
	}
	if c.SimPeriods < 1 {
		c.SimPeriods = 4
	}
	if c.UnitSplitEvery < 1 {
		c.UnitSplitEvery = 1
	}
	if c.MaxViolations < 1 {
		c.MaxViolations = 8
	}
	return c
}

// SoundnessScenarios is the default family pool: the standard scenario
// registry re-parameterised with small WCETs (unit-splitting a node
// multiplies its simulation events by its WCET, so CMax 25 keeps the
// fully-preemptive oracle cheap).
func SoundnessScenarios() []Scenario {
	base := gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 4, MaxNodes: 16, MaxPathLen: 6, CMin: 1, CMax: 25}
	wide := gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 8, MaxNodes: 20, MaxPathLen: 5, CMin: 1, CMax: 25}
	deep := gen.DAGParams{PTerm: 0.4, PPar: 0.6, NPar: 2, MaxNodes: 24, MaxPathLen: 12, CMin: 1, CMax: 25}
	return []Scenario{
		{Name: "mixed", Group: gen.GroupMixed, DAG: &base},
		{Name: "parallel", Group: gen.GroupParallel, DAG: &base},
		{Name: "heavy", Group: gen.GroupMixed, Beta: 0.7, DAG: &base},
		{Name: "light", Group: gen.GroupMixed, Beta: 0.1, UMax: 0.35, DAG: &base},
		{Name: "wide", Group: gen.GroupParallel, Shape: gen.ShapeWide, DAG: &wide},
		{Name: "deep", Group: gen.GroupMixed, Shape: gen.ShapeDeep, DAG: &deep},
		{Name: "npr-fine", Group: gen.GroupMixed, NPRSplit: 5, DAG: &base},
		{Name: "npr-coarse", Group: gen.GroupMixed, NPRCoarsen: 60, DAG: &base},
	}
}

// SoundnessViolation is one analytical-bound violation, with the
// (minimized) reproducer attached.
type SoundnessViolation struct {
	Point     int             `json:"point"`
	Kind      string          `json:"kind"`
	Method    string          `json:"method"`
	Task      string          `json:"task"`
	TaskIndex int             `json:"task_index"`
	M         int             `json:"m"`
	U         float64         `json:"u"`
	Seed      int64           `json:"seed"`
	Scenario  string          `json:"scenario"`
	Bound     int64           `json:"bound_response"`
	Observed  int64           `json:"observed_response"`
	TaskSet   json.RawMessage `json:"taskset"`
}

func (v SoundnessViolation) String() string {
	return fmt.Sprintf("point %d (%s, m=%d, U=%.2f, seed %d): %s [%s] task %d (%s): bound %d, observed %d",
		v.Point, v.Scenario, v.M, v.U, v.Seed, v.Kind, v.Method, v.TaskIndex, v.Task, v.Bound, v.Observed)
}

// SoundnessReport aggregates a sweep.
type SoundnessReport struct {
	Points     int
	Analyses   int
	Sims       int
	Violations []SoundnessViolation // minimized, ≤ MaxViolations
	// TotalViolations counts every violating point, including ones past
	// the reproducer cap.
	TotalViolations int
}

// soundnessPoint is the deterministic derivation of one point.
type soundnessPoint struct {
	scenario Scenario
	m        int
	u        float64
	seed     int64
}

func derivePoint(cfg SoundnessConfig, p int) soundnessPoint {
	sc := cfg.Scenarios[p%len(cfg.Scenarios)]
	pick := rand.New(rand.NewSource(SeedFor(cfg.Seed, p, 1<<30)))
	m := cfg.Ms[pick.Intn(len(cfg.Ms))]
	frac := cfg.UFracMin + pick.Float64()*(cfg.UFracMax-cfg.UFracMin)
	return soundnessPoint{
		scenario: sc,
		m:        m,
		u:        frac * float64(m),
		seed:     SeedFor(cfg.Seed, p, 0),
	}
}

// boundCheckSet holds the analyses of one task set: the paper-exact
// variants (for the static dominance checks and the fully-preemptive
// FP-ideal oracle) and the donation-safe variants (for the eager
// limited-preemptive simulator).
type boundCheckSet struct {
	fp, lpMax, lpILP, refined         *rta.Result
	lpMaxSafe, lpILPSafe, refinedSafe *rta.Result
}

// soundnessAnalyses is the number of rta.Analyze calls per point.
const soundnessAnalyses = 7

func analyzeAll(ts *model.TaskSet, m int, be core.Backend) (boundCheckSet, error) {
	var out boundCheckSet
	for _, step := range []struct {
		dst **rta.Result
		cfg rta.Config
	}{
		{&out.fp, rta.Config{M: m, Method: rta.FPIdeal, Backend: be}},
		{&out.lpMax, rta.Config{M: m, Method: rta.LPMax, Backend: be}},
		{&out.lpILP, rta.Config{M: m, Method: rta.LPILP, Backend: be}},
		{&out.refined, rta.Config{M: m, Method: rta.LPILP, Backend: be, FinalNPRRefinement: true}},
		{&out.lpMaxSafe, rta.Config{M: m, Method: rta.LPMax, Backend: be, DonationSafeBlocking: true}},
		{&out.lpILPSafe, rta.Config{M: m, Method: rta.LPILP, Backend: be, DonationSafeBlocking: true}},
		{&out.refinedSafe, rta.Config{M: m, Method: rta.LPILP, Backend: be, FinalNPRRefinement: true, DonationSafeBlocking: true}},
	} {
		res, err := rta.Analyze(context.Background(), ts, step.cfg)
		if err != nil {
			return out, err
		}
		*step.dst = res
	}
	return out, nil
}

// unitSplit cuts every NPR to length 1, preserving volume, longest path,
// deadlines and periods: the fully-preemptive oracle's task system.
func unitSplit(ts *model.TaskSet) *model.TaskSet {
	tasks := make([]*model.Task, len(ts.Tasks))
	for i, t := range ts.Tasks {
		tasks[i] = &model.Task{Name: t.Name, G: dag.Split(t.G, 1), Deadline: t.Deadline, Period: t.Period}
	}
	return &model.TaskSet{Tasks: tasks}
}

func maxPeriod(ts *model.TaskSet) int64 {
	var max int64
	for _, t := range ts.Tasks {
		if t.Period > max {
			max = t.Period
		}
	}
	return max
}

// checkSoundness runs every differential check on one task set and
// returns the violations (without reproducer JSON attached — the caller
// minimizes first). analyses/sims report the work done.
func checkSoundness(ts *model.TaskSet, m int, be core.Backend, simPeriods int, unitSplitCheck bool) (viols []SoundnessViolation, analyses, sims int, err error) {
	bounds, err := analyzeAll(ts, m, be)
	if err != nil {
		return nil, 0, 0, err
	}
	analyses = soundnessAnalyses

	add := func(kind, method string, k int, bound, observed int64) {
		viols = append(viols, SoundnessViolation{
			Kind: kind, Method: method, Task: ts.Tasks[k].Name, TaskIndex: k,
			M: m, Bound: bound, Observed: observed,
		})
	}

	// Static dominance checks: tighter analyses must never report larger
	// bounds (exact comparison in m-scaled units).
	for k := range ts.Tasks {
		ilp, max := bounds.lpILP.Tasks[k], bounds.lpMax.Tasks[k]
		if ilp.Analyzed && max.Analyzed {
			if max.Schedulable && !ilp.Schedulable {
				add("lp-ilp-rejects-lp-max-accepts", "LP-ILP", k, max.ResponseTimeM, ilp.ResponseTimeM)
			}
			if max.Schedulable && ilp.Schedulable && ilp.ResponseTimeM > max.ResponseTimeM {
				add("lp-ilp-exceeds-lp-max", "LP-ILP", k, max.ResponseTimeM, ilp.ResponseTimeM)
			}
		}
		ref, plain := bounds.refined.Tasks[k], bounds.lpILP.Tasks[k]
		if ref.Analyzed && plain.Analyzed {
			if plain.Schedulable && !ref.Schedulable {
				add("refined-rejects-plain-accepts", "LP-ILP+finalNPR", k, plain.ResponseTimeM, ref.ResponseTimeM)
			}
			if plain.Schedulable && ref.Schedulable && ref.ResponseTimeM > plain.ResponseTimeM {
				add("refined-exceeds-plain", "LP-ILP+finalNPR", k, plain.ResponseTimeM, ref.ResponseTimeM)
			}
		}
		// Donation-safe is pure extra pessimism: it must never beat the
		// paper-exact bound.
		safe, exact := bounds.lpILPSafe.Tasks[k], bounds.lpILP.Tasks[k]
		if safe.Analyzed && exact.Analyzed && safe.Schedulable && exact.Schedulable &&
			safe.ResponseTimeM < exact.ResponseTimeM {
			add("donation-safe-below-exact", "LP-ILP", k, exact.ResponseTimeM, safe.ResponseTimeM)
		}
	}

	// Limited-preemptive oracle vs the donation-safe LP bounds (the
	// paper-exact bounds are provably escapable by eager donation — see
	// the pinned reproducer test).
	horizon := int64(simPeriods) * maxPeriod(ts)
	if horizon < 1 {
		horizon = 1
	}
	sr, err := sim.Run(ts, sim.Config{M: m, Duration: horizon})
	if err != nil {
		return nil, analyses, 0, err
	}
	sims = 1
	for _, chk := range []struct {
		name string
		res  *rta.Result
	}{
		{"LP-max", bounds.lpMaxSafe},
		{"LP-ILP", bounds.lpILPSafe},
		{"LP-ILP+finalNPR", bounds.refinedSafe},
	} {
		for k, tr := range chk.res.Tasks {
			if tr.Analyzed && tr.Schedulable && sr.MaxResponse[k] > tr.ResponseTimeCeil(m) {
				add("sim-exceeds-bound", chk.name, k, tr.ResponseTimeCeil(m), sr.MaxResponse[k])
			}
		}
	}

	// Fully-preemptive oracle (unit-split) vs the FP-ideal bound.
	if unitSplitCheck {
		sru, err := sim.Run(unitSplit(ts), sim.Config{M: m, Duration: horizon})
		if err != nil {
			return nil, analyses, sims, err
		}
		sims++
		for k, tr := range bounds.fp.Tasks {
			if tr.Analyzed && tr.Schedulable && sru.MaxResponse[k] > tr.ResponseTimeCeil(m) {
				add("preemptive-sim-exceeds-fp-bound", "FP-ideal", k, tr.ResponseTimeCeil(m), sru.MaxResponse[k])
			}
		}
	}
	return viols, analyses, sims, nil
}

// minimizeSoundness greedily removes tasks while any violation remains,
// returning the smallest reproducer found and its violations. viols is
// the caller's (already computed) check result for ts — when empty the
// check is (re)run, so passing nil gives standalone behaviour.
func minimizeSoundness(ts *model.TaskSet, m int, be core.Backend, simPeriods int, unitSplitCheck bool, viols []SoundnessViolation) (*model.TaskSet, []SoundnessViolation) {
	cur, curViols := ts, viols
	if len(curViols) == 0 {
		var err error
		curViols, _, _, err = checkSoundness(cur, m, be, simPeriods, unitSplitCheck)
		if err != nil || len(curViols) == 0 {
			return cur, curViols
		}
	}
	for {
		shrunk := false
		for i := 0; i < len(cur.Tasks) && len(cur.Tasks) > 1; i++ {
			cand := &model.TaskSet{Tasks: make([]*model.Task, 0, len(cur.Tasks)-1)}
			cand.Tasks = append(cand.Tasks, cur.Tasks[:i]...)
			cand.Tasks = append(cand.Tasks, cur.Tasks[i+1:]...)
			v, _, _, err := checkSoundness(cand, m, be, simPeriods, unitSplitCheck)
			if err == nil && len(v) > 0 {
				cur, curViols = cand, v
				shrunk = true
				break
			}
		}
		if !shrunk {
			return cur, curViols
		}
	}
}

// RunSoundness sweeps cfg.Points generated points on the experiment
// runner and returns the aggregated report. Points, analyses and
// verdicts are deterministic in cfg; only scheduling order varies with
// workers.
func RunSoundness(cfg SoundnessConfig) (*SoundnessReport, error) {
	cfg = cfg.normalized()
	eng := engine.New(engine.Config{Workers: cfg.Workers})
	defer eng.Close()

	type pointOut struct {
		analyses, sims int
		viols          []SoundnessViolation
	}
	outs, err := sweep(eng, cfg.Points, func(_ context.Context, p int) (pointOut, error) {
		pt := derivePoint(cfg, p)
		ts := pt.scenario.TaskSet(pt.seed, pt.u)
		unit := p%cfg.UnitSplitEvery == 0
		viols, analyses, sims, err := checkSoundness(ts, pt.m, cfg.Backend, cfg.SimPeriods, unit)
		po := pointOut{analyses: analyses, sims: sims}
		if err != nil || len(viols) == 0 {
			return po, err
		}
		// Shrink and attach the reproducer.
		minTS, minViols := minimizeSoundness(ts, pt.m, cfg.Backend, cfg.SimPeriods, unit, viols)
		if len(minViols) == 0 { // flaky shrink guard: keep the original
			minTS, minViols = ts, viols
		}
		raw, err := minTS.MarshalJSON()
		if err != nil {
			return po, err
		}
		for i := range minViols {
			minViols[i].Point = p
			minViols[i].U = pt.u
			minViols[i].Seed = pt.seed
			minViols[i].Scenario = pt.scenario.Name
			minViols[i].TaskSet = raw
		}
		po.viols = minViols
		return po, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &SoundnessReport{Points: cfg.Points}
	for _, po := range outs {
		rep.Analyses += po.analyses
		rep.Sims += po.sims
		rep.TotalViolations += len(po.viols)
		rep.Violations = append(rep.Violations, po.viols...)
	}
	// Deterministic report order within each point too, then apply the
	// reproducer cap.
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.TaskIndex < b.TaskIndex
	})
	if len(rep.Violations) > cfg.MaxViolations {
		rep.Violations = rep.Violations[:cfg.MaxViolations]
	}
	return rep, nil
}

// WriteReproducer dumps one minimized violation as an indented JSON file
// under dir (created if needed) and returns the file path.
func WriteReproducer(dir string, v SoundnessViolation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("soundness-repro-p%d-t%d-%s.json", v.Point, v.TaskIndex, v.Kind))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
