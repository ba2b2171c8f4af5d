package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCampaignGoldenFixtures pins the exact JSONL and CSV byte streams
// of a small campaign per scenario family to committed fixtures under
// testdata/. The campaign codecs are the substrate of -resume and of
// the /v1/campaign stream: any codec, seed-chain, grid-ordering, or
// generator drift silently breaks both, so it must fail loudly here
// instead.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestCampaignGoldenFixtures
//
// and justify the diff in the commit that carries it.
func TestCampaignGoldenFixtures(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, sc := range StandardScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			cfg := CampaignConfig{
				Seed:         7,
				Ms:           []int{2},
				UFracs:       []float64{0.3, 0.7},
				SetsPerPoint: 2,
				Scenarios:    []Scenario{sc},
				Workers:      2,
			}
			var jsonl, csv bytes.Buffer
			if _, err := RunCampaign(cfg, RunOptions{JSONL: &jsonl, CSV: &csv}); err != nil {
				t.Fatalf("campaign: %v", err)
			}
			compareGolden(t, filepath.Join("testdata", "campaign_"+sc.Name+".jsonl"), jsonl.Bytes(), update)
			compareGolden(t, filepath.Join("testdata", "campaign_"+sc.Name+".csv"), csv.Bytes(), update)
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("updating %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden fixture.\ngot:\n%s\nwant:\n%s\n"+
			"If this change is intentional it breaks -resume "+
			"against existing result files; regenerate with UPDATE_GOLDEN=1 and say why.",
			path, got, want)
	}
}
