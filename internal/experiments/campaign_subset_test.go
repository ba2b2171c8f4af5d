package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunCampaignSubsetByteSlice checks that the subset runner emits
// exactly the corresponding lines of a full run — the byte-level
// contract the cluster shard protocol merges on.
func TestRunCampaignSubsetByteSlice(t *testing.T) {
	cfg := CampaignConfig{
		Seed: 11, Ms: []int{2}, UFracs: []float64{0.2, 0.5, 0.8},
		SetsPerPoint: 2, Workers: 2,
	}
	var full bytes.Buffer
	if _, err := RunCampaign(cfg, RunOptions{JSONL: &full}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")

	var sub bytes.Buffer
	if _, err := RunCampaignSubset(cfg, []int{0, 2}, RunOptions{JSONL: &sub}); err != nil {
		t.Fatal(err)
	}
	if want := lines[0] + lines[2]; sub.String() != want {
		t.Errorf("subset stream:\n%swant:\n%s", sub.String(), want)
	}
}

func TestRunCampaignSubsetValidation(t *testing.T) {
	cfg := CampaignConfig{Seed: 1, Ms: []int{2}, UFracs: []float64{0.5}, SetsPerPoint: 1}
	if _, err := RunCampaignSubset(cfg, []int{5}, RunOptions{}); err == nil {
		t.Error("out-of-grid index should fail")
	}
	if _, err := RunCampaignSubset(cfg, []int{0, 0}, RunOptions{}); err == nil {
		t.Error("duplicate indices should fail")
	}
	if res, err := RunCampaignSubset(cfg, nil, RunOptions{}); err != nil || len(res) != 0 {
		t.Errorf("empty subset: %v, %v", res, err)
	}
}

// TestWireRequestRoundTrip checks CampaignConfig → wire → Config
// produces the same grid, and that non-registry scenarios are rejected
// (a cluster must never silently compute a different campaign).
func TestWireRequestRoundTrip(t *testing.T) {
	sc, err := ScenarioByName("wide")
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Seed: 3, Ms: []int{2, 4}, UFracs: []float64{0.25, 0.75},
		SetsPerPoint: 3, Scenarios: []Scenario{sc},
		Methods: []core.Method{core.LPILP, core.FPIdeal},
	}
	wire, err := cfg.WireRequest()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.Config()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := cfg.Points()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("grid size drifted over the wire: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if !reflect.DeepEqual(p1[i], p2[i]) {
			t.Errorf("point %d drifted over the wire: %+v vs %+v", i, p1[i], p2[i])
		}
	}

	tampered := sc
	tampered.Beta = 0.9 // same name, different physics
	if _, err := (CampaignConfig{Scenarios: []Scenario{tampered}}).WireRequest(); err == nil {
		t.Error("modified scenario under a registry name must not be wire-encodable")
	}
	if _, err := (CampaignConfig{Scenarios: []Scenario{{Name: "bespoke"}}}).WireRequest(); err == nil {
		t.Error("non-registry scenario must not be wire-encodable")
	}
}

// TestPrepareResumeValidation pins the foreign-file rejection shared by
// -resume and the cluster merger (both go through NewMerger).
func TestPrepareResumeValidation(t *testing.T) {
	cfg := CampaignConfig{Seed: 1, Ms: []int{2}, UFracs: []float64{0.5}, SetsPerPoint: 1}
	points, err := cfg.Points()
	if err != nil {
		t.Fatal(err)
	}
	good := PointResult{Index: 0, Scenario: "mixed", M: 2, U: 1, Sets: 1, Sched: map[string]int{}}
	if _, missing, err := NewMerger(cfg, points, RunOptions{Completed: []PointResult{good}}); err != nil || len(missing) != 0 {
		t.Fatalf("valid carried point rejected: %v (missing %v)", err, missing)
	}
	for _, bad := range []PointResult{
		{Index: 9, Scenario: "mixed", M: 2, U: 1, Sets: 1},
		{Index: 0, Scenario: "wide", M: 2, U: 1, Sets: 1},
		{Index: 0, Scenario: "mixed", M: 4, U: 1, Sets: 1},
		{Index: 0, Scenario: "mixed", M: 2, U: 2, Sets: 1},
		{Index: 0, Scenario: "mixed", M: 2, U: 1, Sets: 7},
	} {
		if _, _, err := NewMerger(cfg, points, RunOptions{Completed: []PointResult{bad}}); err == nil {
			t.Errorf("foreign point %+v accepted", bad)
		}
	}
}
