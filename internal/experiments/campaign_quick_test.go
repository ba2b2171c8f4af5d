package experiments

// Property-based tests (testing/quick) for the orchestrator
// determinism contract.

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// TestCampaignIndependentOfShardAndWorkerCount is the orchestrator's
// core property under random execution geometry: for a random seed and
// worker count the JSONL bytes equal the serial reference run. (The
// shard knob it also varied is gone; the name stays so the test's
// identity does.)
func TestCampaignIndependentOfShardAndWorkerCount(t *testing.T) {
	base := CampaignConfig{
		Ms:           []int{2},
		UFracs:       []float64{0.4, 0.8},
		SetsPerPoint: 2,
		Scenarios:    []Scenario{{Name: "mixed", Group: gen.GroupMixed}},
	}
	f := func(seed int64, workersRaw uint8) bool {
		cfg := base
		cfg.Seed = seed
		cfg.Workers = 1
		var ref strings.Builder
		if _, err := RunCampaign(cfg, RunOptions{JSONL: &ref}); err != nil {
			t.Log(err)
			return false
		}
		cfg.Workers = []int{1, 2, 3, 4, 8}[workersRaw%5]
		var got strings.Builder
		if _, err := RunCampaign(cfg, RunOptions{JSONL: &got}); err != nil {
			t.Log(err)
			return false
		}
		return got.String() == ref.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
