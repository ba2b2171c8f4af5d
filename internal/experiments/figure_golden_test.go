package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFigureGoldenFixtures pins the exact numbers of the paper-figure
// experiments — Figure 2 at m = 4 and 8, the group-2 comparison, the
// task-count sweep, the variant ablation and the pessimism study — to
// committed CSV fixtures under testdata/. The shape tests only check
// qualitative properties, so a seed-chain, grid or reducer drift would
// otherwise go unnoticed.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestFigureGoldenFixtures
//
// and justify the diff in the commit that carries it.
func TestFigureGoldenFixtures(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	golden := func(t *testing.T, name string, got string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join("testdata", "figure_"+name+".csv"), []byte(got), update)
	}
	t.Run("fig2-m4", func(t *testing.T) {
		points, err := Figure2(smallFig2(4))
		golden(t, "fig2_m4", CurveCSV(points), err)
	})
	t.Run("fig2-m8", func(t *testing.T) {
		points, err := Figure2(smallFig2(8))
		golden(t, "fig2_m8", CurveCSV(points), err)
	})
	t.Run("group2", func(t *testing.T) {
		res, err := Group2(smallFig2(4))
		golden(t, "group2", CurveCSV(res.Points), err)
	})
	t.Run("tasks-sweep", func(t *testing.T) {
		points, err := TasksSweep(TasksSweepConfig{
			M: 4, U: 1.5, NStart: 2, NEnd: 5, SetsPerPoint: 15, Seed: 21,
		})
		golden(t, "tasks_sweep", TasksSweepCSV(points), err)
	})
	t.Run("variants", func(t *testing.T) {
		cfg := smallFig2(4)
		cfg.SetsPerPoint = 30
		points, err := Variants(cfg)
		golden(t, "variants", VariantsCSV(points), err)
	})
	t.Run("pessimism", func(t *testing.T) {
		res, err := Pessimism(PessimismConfig{M: 4, U: 2.0, Sets: 25, Seed: 31})
		golden(t, "pessimism", fmt.Sprintf("sets,accepted,rejected,rejected_alive,upper_bound_pct\n%d,%d,%d,%d,%.2f\n",
			res.Sets, res.Accepted, res.Rejected, res.RejectedAlive, res.UpperBoundPct), err)
	})
}
