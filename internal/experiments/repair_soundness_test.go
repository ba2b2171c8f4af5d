package experiments

// Repair soundness quickcheck: a set the repair engine declares fixed
// must really be schedulable — confirmed by the same differential
// harness (LP simulator + unit-split oracle) that gates the analytical
// bounds. Random overloaded sets are drawn from the soundness scenario
// families, filtered to unschedulable ones, repaired under both
// strategies, and every claimed fix is re-checked from scratch.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/rta"
)

// repairSoundnessEval analyzes candidates the way the soundness harness
// simulates them: donation-safe blocking, so a "fixed" verdict is a
// claim the eager LP simulator cannot escape.
func repairSoundnessEval(m int) repair.Eval {
	return func(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
		ts := &model.TaskSet{Tasks: tasks}
		res, err := rta.Analyze(ctx, ts, rta.Config{
			M: m, Method: rta.LPILP, DonationSafeBlocking: true,
		})
		if err != nil {
			return nil, err
		}
		return core.ReportOf(res, ts), nil
	}
}

func TestRepairSoundnessQuickcheck(t *testing.T) {
	wantFixes := 6
	maxPoints := 400
	if testing.Short() {
		wantFixes = 2
		maxPoints = 120
	}
	scenarios := SoundnessScenarios()
	ms := []int{2, 3, 4}
	ctx := context.Background()

	fixes, unsched := 0, 0
	for point := 0; point < maxPoints && fixes < wantFixes; point++ {
		sc := scenarios[point%len(scenarios)]
		m := ms[point%len(ms)]
		// Load the set to just past the blocking-sensitive region: high
		// enough that points fail, low enough that the failures are
		// placement-induced (a genuinely overloaded set has no fix any
		// transform sequence can reach).
		u := float64(m) * (0.45 + 0.1*float64(point%3))
		seed := SeedFor(20160804, point, 0)
		ts := sc.TaskSet(seed, u)

		eval := repairSoundnessEval(m)
		base, err := eval(ctx, ts.Tasks)
		if err != nil {
			t.Fatalf("point %d: base analysis: %v", point, err)
		}
		if base.Schedulable {
			continue
		}
		unsched++

		for _, strat := range []repair.Strategy{repair.Greedy, repair.Exhaustive} {
			cfg := repair.Config{
				Strategy: strat, Coarsen: true, Reprioritize: true,
				MaxCandidates: 512, Seed: seed,
			}
			res, err := repair.Search(ctx, ts.Tasks, cfg, eval)
			if err != nil {
				t.Fatalf("point %d %v: Search: %v", point, strat, err)
			}
			if !res.Fixed {
				continue
			}
			fixes++

			// Replaying the transform sequence on the original tasks
			// must reproduce the repaired set.
			replayed, err := repair.Apply(ts.Tasks, res.Transforms)
			if err != nil {
				t.Fatalf("point %d %v: Apply: %v", point, strat, err)
			}
			fixed, err := model.NewTaskSet(replayed...)
			if err != nil {
				t.Fatalf("point %d %v: repaired set invalid: %v", point, strat, err)
			}
			rep, err := eval(ctx, fixed.Tasks)
			if err != nil {
				t.Fatalf("point %d %v: re-analysis: %v", point, strat, err)
			}
			if !rep.Schedulable {
				t.Errorf("point %d %v: repair claims fixed but replay is unschedulable", point, strat)
				continue
			}

			// The differential harness must stay quiet on the repaired
			// set: bounds vs LP simulator, FP-ideal vs unit-split
			// oracle, static dominance — no violation of any kind.
			viols, _, _, err := checkSoundness(fixed, m, 4, true)
			if err != nil {
				t.Fatalf("point %d %v: checkSoundness: %v", point, strat, err)
			}
			for _, v := range viols {
				t.Errorf("point %d %v: repaired set violates soundness: %s", point, strat, v)
			}
		}
	}
	if unsched == 0 {
		t.Fatal("no unschedulable points generated; quickcheck exercised nothing")
	}
	if fixes < wantFixes {
		t.Fatalf("only %d repairs confirmed (want %d) over %d unschedulable points",
			fixes, wantFixes, unsched)
	}
}
