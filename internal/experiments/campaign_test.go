package experiments

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/cache"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
)

// tinyCampaign is a campaign small enough for unit tests but with a
// multi-scenario, multi-m grid.
func tinyCampaign() CampaignConfig {
	return CampaignConfig{
		Seed:         2016,
		Ms:           []int{2, 4},
		UFracs:       []float64{0.3, 0.6},
		SetsPerPoint: 3,
		Scenarios: []Scenario{
			{Name: "mixed", Group: gen.GroupMixed},
			{Name: "wide", Group: gen.GroupParallel, Shape: gen.ShapeWide},
		},
		Workers: 2,
	}
}

func TestCampaignPointsGrid(t *testing.T) {
	pts, err := tinyCampaign().Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2 {
		t.Fatalf("grid size %d, want 8", len(pts))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}
	// Scenarios outermost, then m, then u.
	if pts[0].Scenario.Name != "mixed" || pts[4].Scenario.Name != "wide" {
		t.Error("scenario enumeration order wrong")
	}
	if pts[0].M != 2 || pts[2].M != 4 {
		t.Error("core-count enumeration order wrong")
	}
	if pts[0].U != 0.6 || pts[1].U != 1.2 {
		t.Errorf("utilization grid wrong: %v, %v", pts[0].U, pts[1].U)
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	bad := tinyCampaign()
	bad.Scenarios[0].Name = "has,comma"
	if _, err := RunCampaign(bad, RunOptions{}); err == nil {
		t.Error("comma scenario name accepted")
	}
	bad2 := tinyCampaign()
	bad2.Ms = []int{0}
	if _, err := RunCampaign(bad2, RunOptions{}); err == nil {
		t.Error("zero core count accepted")
	}
	bad3 := tinyCampaign()
	bad3.UFracs = []float64{-1}
	if _, err := RunCampaign(bad3, RunOptions{}); err == nil {
		t.Error("negative utilization fraction accepted")
	}
}

func TestRunCampaignStreamsAndResults(t *testing.T) {
	var jsonl, csv strings.Builder
	var progress []Progress
	results, err := RunCampaign(tinyCampaign(), RunOptions{
		JSONL:      &jsonl,
		CSV:        &csv,
		OnProgress: func(p Progress) { progress = append(progress, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("%d results, want 8", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Sets != 3 {
			t.Fatalf("result %d: sets %d, want 3", i, r.Sets)
		}
		if len(r.Sched) != 3 {
			t.Fatalf("result %d: %d method entries, want 3", i, len(r.Sched))
		}
		for m, c := range r.Sched {
			if c < 0 || c > r.Sets {
				t.Fatalf("result %d: count %s=%d outside [0,%d]", i, m, c, r.Sets)
			}
		}
		// Method dominance must hold pointwise on identical sets.
		if r.Sched[core.LPILP.String()] > r.Sched[core.FPIdeal.String()] ||
			r.Sched[core.LPMax.String()] > r.Sched[core.LPILP.String()] {
			t.Fatalf("result %d: method ordering violated: %+v", i, r.Sched)
		}
	}

	// The JSONL stream decodes back to exactly the returned results.
	decoded, err := ReadCampaignJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(results) {
		t.Fatalf("jsonl has %d results, want %d", len(decoded), len(results))
	}
	for i := range decoded {
		if decoded[i].Index != results[i].Index || decoded[i].U != results[i].U ||
			decoded[i].Scenario != results[i].Scenario {
			t.Fatalf("jsonl result %d differs: %+v vs %+v", i, decoded[i], results[i])
		}
		for m, c := range results[i].Sched {
			if decoded[i].Sched[m] != c {
				t.Fatalf("jsonl result %d method %s: %d vs %d", i, m, decoded[i].Sched[m], c)
			}
		}
	}

	// The CSV stream parses back too.
	rows, methods, err := ParseCampaignCSV(csv.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(results) || len(methods) != 3 {
		t.Fatalf("csv: %d rows, %d methods", len(rows), len(methods))
	}

	// Progress is monotone and complete.
	if len(progress) != 8 {
		t.Fatalf("%d progress callbacks, want 8", len(progress))
	}
	for i, p := range progress {
		if p.Done != i+1 || p.Total != 8 {
			t.Fatalf("progress %d: %+v", i, p)
		}
	}
}

// TestCampaignByteIdenticalAcrossWorkersAndShards is the core
// determinism contract: same campaign seed ⇒ byte-identical JSONL and
// CSV regardless of worker count. (The shard knob it also varied is
// gone; the name stays so the test's identity does.)
func TestCampaignByteIdenticalAcrossWorkersAndShards(t *testing.T) {
	var refJSONL, refCSV string
	for i, workers := range []int{1, 2, 3, 4, 8} {
		cfg := tinyCampaign()
		cfg.Workers = workers
		var jsonl, csv strings.Builder
		if _, err := RunCampaign(cfg, RunOptions{JSONL: &jsonl, CSV: &csv}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refJSONL, refCSV = jsonl.String(), csv.String()
			continue
		}
		if jsonl.String() != refJSONL {
			t.Fatalf("workers=%d: JSONL differs from workers=1", workers)
		}
		if csv.String() != refCSV {
			t.Fatalf("workers=%d: CSV differs from workers=1", workers)
		}
	}
}

// TestCampaignReuseMatchesFresh runs two campaigns back to back on one
// two-worker engine, so that points draw scratch earlier points
// recycled, and pins each JSONL stream to one written point by point on
// a single goroutine from fresh graphs: recycling graphs, splits and
// generators changes no byte.
func TestCampaignReuseMatchesFresh(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	var scenarios []Scenario
	for _, name := range []string{"mixed", "parallel", "wide", "npr-fine"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	for _, seed := range []int64{3, 4} {
		cfg, err := CampaignConfig{Seed: seed, Ms: []int{2, 4}, UFracs: []float64{0.3, 0.6, 0.9},
			SetsPerPoint: 3, Scenarios: scenarios}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		var got, want strings.Builder
		if _, err := RunCampaign(cfg, RunOptions{Engine: eng, JSONL: &got}); err != nil {
			t.Fatal(err)
		}
		em := NewStreamEmitter(&want, nil, methodNames(cfg.Methods))
		for i := range cfg.gridSize() {
			pt := cfg.point(i)
			sets := make([]*model.TaskSet, cfg.SetsPerPoint)
			for si := range sets {
				sets[si] = pt.Scenario.TaskSet(SeedFor(seed, i, si), pt.U)
			}
			pr := PointResult{Index: i, Scenario: pt.Scenario.Name, M: pt.M, U: pt.U, Sets: len(sets), Sched: map[string]int{}}
			for _, method := range cfg.Methods {
				n, err := countSchedulable(context.Background(), sets, core.Options{Cores: pt.M, Method: method})
				if err != nil {
					t.Fatal(err)
				}
				pr.Sched[method.String()] = n
			}
			em.Emit(pr)
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: recycled campaign JSONL\n%s\ndiffers from the fresh one\n%s", seed, got.String(), want.String())
		}
	}
}

// TestCampaignCancelStopsSubmitting cancels a 20-point campaign from
// its first progress report: the run fails with an error wrapping
// context.Canceled, the JSONL it wrote is a contiguous prefix of the
// grid, and the runner stops handing out points instead of submitting
// every one left, so at most one point per slot ends up counted in
// lpdag_engine_jobs_abandoned_total.
func TestCampaignCancelStopsSubmitting(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		eng := engine.New(engine.Config{Workers: workers, Obs: reg})
		cfg := CampaignConfig{
			Seed:         5,
			Ms:           []int{2, 4},
			UFracs:       []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
			SetsPerPoint: 1,
			Workers:      workers,
		}
		ctx, cancel := context.WithCancel(context.Background())
		var jsonl strings.Builder
		_, err := RunCampaign(cfg, RunOptions{
			Context:    ctx,
			Engine:     eng,
			JSONL:      &jsonl,
			OnProgress: func(Progress) { cancel() },
		})
		cancel()
		eng.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled campaign returned %v, want an error wrapping %v", workers, err, context.Canceled)
		}
		prefix, err := ReadCampaignJSONL(strings.NewReader(jsonl.String()))
		if err != nil {
			t.Fatalf("workers=%d: written JSONL: %v", workers, err)
		}
		for i, pr := range prefix {
			if pr.Index != i {
				t.Fatalf("workers=%d: JSONL line %d holds point %d, want a contiguous prefix", workers, i, pr.Index)
			}
		}
		if len(prefix) == 20 {
			t.Errorf("workers=%d: all 20 points written although the run was cancelled", workers)
		}
		if got := scrapeCounter(t, reg, "lpdag_engine_jobs_abandoned_total"); got > float64(workers) {
			t.Errorf("workers=%d: %v jobs abandoned, want at most %d", workers, got, workers)
		}
	}
}

// scrapeCounter reads an unlabelled series from reg's text exposition.
func scrapeCounter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s not exposed", name)
	return 0
}

// TestCampaignResume: feeding a prefix of a previous run's JSONL back as
// Completed skips recomputation and still emits byte-identical output.
func TestCampaignResume(t *testing.T) {
	cfg := tinyCampaign()
	var full strings.Builder
	if _, err := RunCampaign(cfg, RunOptions{JSONL: &full}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	partial := strings.Join(lines[:5], "") // first 5 points "already done"
	prior, err := ReadCampaignJSONL(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	var resumed strings.Builder
	if _, err := RunCampaign(cfg, RunOptions{JSONL: &resumed, Engine: eng, Completed: prior}); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Error("resumed campaign output differs from uninterrupted run")
	}
	if got := eng.Stats().Sweeps; got != uint64(8-len(prior)) {
		t.Errorf("resume executed %d sweep jobs, want %d", got, 8-len(prior))
	}
}

// TestCampaignResumeRejectsForeignFile: carrying another campaign's
// results in must fail loudly, not silently emit stale points.
func TestCampaignResumeRejectsForeignFile(t *testing.T) {
	other := CampaignConfig{
		Seed: 1, Ms: []int{8}, UFracs: []float64{0.9}, SetsPerPoint: 5,
		Scenarios: []Scenario{{Name: "parallel", Group: gen.GroupParallel}},
	}
	var foreign strings.Builder
	if _, err := RunCampaign(other, RunOptions{JSONL: &foreign}); err != nil {
		t.Fatal(err)
	}
	prior, err := ReadCampaignJSONL(strings.NewReader(foreign.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(tinyCampaign(), RunOptions{Completed: prior}); err == nil {
		t.Error("foreign resume file accepted")
	} else if !strings.Contains(err.Error(), "wrong file or changed config") {
		t.Errorf("unhelpful resume error: %v", err)
	}
	// Out-of-grid indices are rejected too.
	if _, err := RunCampaign(tinyCampaign(), RunOptions{Completed: []PointResult{{Index: 99}}}); err == nil {
		t.Error("out-of-grid resume index accepted")
	}
}

// TestCampaignSharedEngineCache runs a campaign on an engine that
// serves other traffic: its freshly generated sets are analyzed once,
// so the campaign must leave the engine's µ-table cache as it found it
// (no lookup, no entry, no eviction) and stream the same bytes as a
// campaign on a private engine.
func TestCampaignSharedEngineCache(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	defer eng.Close()
	cfg := tinyCampaign()
	var shared, private bytes.Buffer
	if _, err := RunCampaign(cfg, RunOptions{Engine: eng, JSONL: &shared}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Sweeps != 8 {
		t.Errorf("%d sweep jobs, want 8", st.Sweeps)
	}
	if st.Cache != (cache.Stats{}) {
		t.Errorf("campaign touched the shared µ-table cache: %+v", st.Cache)
	}
	if _, err := RunCampaign(cfg, RunOptions{JSONL: &private}); err != nil {
		t.Fatal(err)
	}
	if shared.Len() == 0 || !bytes.Equal(shared.Bytes(), private.Bytes()) {
		t.Errorf("campaign on a shared engine wrote %d bytes that differ from a private engine's %d", shared.Len(), private.Len())
	}
}

func TestStandardScenarios(t *testing.T) {
	for _, s := range StandardScenarios() {
		if !validName(s.Name) {
			t.Errorf("registry scenario %q has invalid name", s.Name)
		}
		got, err := ScenarioByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Errorf("ScenarioByName(%q) = %+v, %v", s.Name, got, err)
		}
		// Every scenario must generate valid task sets.
		ts := s.TaskSet(99, 1.5)
		if err := ts.Validate(); err != nil {
			t.Errorf("scenario %q produced invalid set: %v", s.Name, err)
		}
	}
	if _, err := ScenarioByName("bogus"); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

// TestScenarioByNameReturnsCopy pins that a resolved scenario is the
// caller's own: editing its DAG parameters leaves the registry, and so
// every later request naming it, untouched.
func TestScenarioByNameReturnsCopy(t *testing.T) {
	sc, err := ScenarioByName("wide")
	if err != nil {
		t.Fatal(err)
	}
	sc.DAG.MaxNodes = 1
	again, err := ScenarioByName("wide")
	if err != nil {
		t.Fatal(err)
	}
	if again.DAG.MaxNodes == 1 {
		t.Fatal("editing a resolved scenario changed the registry")
	}
}

func TestScenarioNPRTransforms(t *testing.T) {
	fine := Scenario{Name: "npr-fine", Group: gen.GroupMixed, NPRSplit: 10}
	ts := fine.TaskSet(7, 2.0)
	for _, task := range ts.Tasks {
		for v := 0; v < task.G.N(); v++ {
			if c := task.G.WCET(v); c > 10 {
				t.Fatalf("npr-fine left an NPR of length %d > 10", c)
			}
		}
	}
	// Volume and longest path are preserved by the transform, so the
	// split set must equal the unsplit set in both.
	plain := Scenario{Name: "mixed", Group: gen.GroupMixed}
	base := plain.TaskSet(7, 2.0)
	if len(base.Tasks) != len(ts.Tasks) {
		t.Fatal("transform changed task count")
	}
	for i := range base.Tasks {
		if base.Tasks[i].G.Volume() != ts.Tasks[i].G.Volume() {
			t.Fatalf("task %d volume changed by split", i)
		}
		if base.Tasks[i].G.LongestPath() != ts.Tasks[i].G.LongestPath() {
			t.Fatalf("task %d longest path changed by split", i)
		}
	}

	coarse := Scenario{Name: "npr-coarse", Group: gen.GroupMixed, NPRCoarsen: 200}
	cts := coarse.TaskSet(7, 2.0)
	coarseNodes, baseNodes := 0, 0
	for i := range base.Tasks {
		baseNodes += base.Tasks[i].G.N()
		coarseNodes += cts.Tasks[i].G.N()
		if base.Tasks[i].G.Volume() != cts.Tasks[i].G.Volume() {
			t.Fatalf("task %d volume changed by coarsening", i)
		}
	}
	if coarseNodes > baseNodes {
		t.Errorf("coarsening grew the node count: %d > %d", coarseNodes, baseNodes)
	}
}

func TestPointResultPct(t *testing.T) {
	r := PointResult{Sets: 4, Sched: map[string]int{"LP-ILP": 3}}
	if got := r.Pct("LP-ILP"); got != 75 {
		t.Errorf("Pct = %v, want 75", got)
	}
	if got := (PointResult{}).Pct("LP-ILP"); got != 0 {
		t.Errorf("empty Pct = %v, want 0", got)
	}
}
