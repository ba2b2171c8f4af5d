package rta_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/rta"
)

// TestVerdictMatchesFullPass is the property behind Schedulable's
// bracket: on generated sets of every standard scenario, on 1 to 16
// cores, at five utilizations and under all eight combinations of the
// three analysis flags, its verdict and error equal AnalyzeInPlace's
// for every method. The verdict call gets a fresh copy of each set, so
// the bracket runs wherever it may; the test counts the LP-ILP sets
// each side decided, which solve no µ table, and requires both sides
// to decide some.
func TestVerdictMatchesFullPass(t *testing.T) {
	sets := 10
	if testing.Short() {
		sets = 2
	}
	var compared, upper, lower, ilpSets int
	for _, sc := range experiments.StandardScenarios() {
		for _, m := range []int{1, 2, 3, 4, 8, 16} {
			for ui, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				for si := range sets {
					ts := sc.TaskSet(experiments.SeedFor(int64(m), ui, si), frac*float64(m))
					for flags := range 8 {
						for _, method := range []rta.Method{rta.FPIdeal, rta.LPMax, rta.LPILP} {
							cfg := rta.Config{
								M: m, Method: method, FinalNPRRefinement: flags&1 != 0,
								AblateRepeatedBlocking: flags&2 != 0, DonationSafeBlocking: flags&4 != 0,
							}
							want, wantErr := rta.FullVerdict(t, ts, cfg)
							fresh := ts.Clone()
							got, err := rta.VerdictOf(t, fresh, cfg)
							if !rta.SameOutcome(got, err, want, wantErr) {
								t.Fatalf("%s m=%d u=%.1f set %d %+v: Schedulable = %v, %v; AnalyzeInPlace %v, %v",
									sc.Name, m, frac, si, cfg, got, err, want, wantErr)
							}
							compared++
							if method != rta.LPILP {
								continue
							}
							ilpSets++
							if rta.HoldsNoMu(fresh) {
								if got {
									upper++
								} else {
									lower++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d comparisons; of %d LP-ILP verdicts, LP-max decided %d and the lower bound %d without a µ table",
		compared, ilpSets, upper, lower)
	if upper == 0 || lower == 0 {
		t.Fatalf("the bracket decided %d sets above and %d below; want both sides used", upper, lower)
	}
}
