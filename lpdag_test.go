package lpdag

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	var b GraphBuilder
	src := b.AddNode(2)
	x := b.AddNode(4)
	y := b.AddNode(3)
	sink := b.AddNode(1)
	b.AddEdge(src, x)
	b.AddEdge(src, y)
	b.AddEdge(x, sink)
	b.AddEdge(y, sink)
	task := &Task{Name: "dag", G: b.MustBuild(), Deadline: 20, Period: 20}
	ts, err := NewTaskSet(task)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(ts, 4, LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatalf("quickstart set unschedulable:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "LP-ILP") {
		t.Error("report missing method name")
	}
}

func TestFacadePaperExample(t *testing.T) {
	ts := PaperExample()
	if ts.N() != 5 {
		t.Fatalf("paper example has %d tasks", ts.N())
	}
	graphs := PaperExampleGraphs()
	if len(graphs) != 4 {
		t.Fatalf("got %d graphs", len(graphs))
	}
	ilp := BlockingLPILP(graphs, 4, Combinatorial)
	if ilp.DeltaM != 19 || ilp.DeltaM1 != 15 {
		t.Errorf("LP-ILP Δ = %+v, want 19/15", ilp)
	}
	lmax := BlockingLPMax(graphs, 4)
	if lmax.DeltaM != 20 || lmax.DeltaM1 != 16 {
		t.Errorf("LP-max Δ = %+v, want 20/16", lmax)
	}
}

func TestFacadeGeneratorAndJSONRoundTrip(t *testing.T) {
	g := NewGenerator(7, PaperGenParams(GroupMixed))
	ts := g.TaskSet(2.0)
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTaskSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ts.N() {
		t.Fatalf("round trip lost tasks: %d vs %d", back.N(), ts.N())
	}
	a, err := NewAnalyzer(Options{Cores: 4, Method: LPMax})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Schedulable != r2.Schedulable {
		t.Error("verdict changed across JSON round trip")
	}
}

func TestFacadeSimulate(t *testing.T) {
	ts := PaperExample()
	res, err := Simulate(ts, SimConfig{M: 4, Duration: 1000, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs simulated")
	}
	gantt := res.Gantt(ts, 60, 1)
	if !strings.Contains(gantt, "core0") {
		t.Error("gantt malformed")
	}
}

func TestFacadePlacement(t *testing.T) {
	ts := PaperExample()
	pts, err := ExplorePlacement(ts, 4, []int64{1, 3, 6}, LPILP)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	g := PaperExampleGraphs()[2] // τ3, max WCET 6
	if SplitNodes(g, 3).MaxWCET() > 3 {
		t.Error("SplitNodes did not cap NPR length")
	}
	if CoarsenChains(g, 100).N() > g.N() {
		t.Error("CoarsenChains grew the graph")
	}
}

func TestFacadeMethods(t *testing.T) {
	ms := Methods()
	if len(ms) != 3 {
		t.Fatalf("got %d methods", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.String()] = true
	}
	for _, want := range []string{"FP-ideal", "LP-ILP", "LP-max"} {
		if !seen[want] {
			t.Errorf("method %q missing", want)
		}
	}
}

func TestFacadeRefinedAnalysis(t *testing.T) {
	ts := PaperExample()
	plain, err := Analyze(ts, 4, LPILP)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(Options{Cores: 4, Method: LPILP, FinalNPRRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Tasks {
		if !plain.Tasks[i].Analyzed || !refined.Tasks[i].Analyzed {
			continue
		}
		if refined.Tasks[i].ResponseTimeM > plain.Tasks[i].ResponseTimeM {
			t.Fatalf("task %d: refined bound looser than plain", i)
		}
	}
}

func TestFacadeSequential(t *testing.T) {
	tasks := []*SeqTask{
		{Name: "hi", NPRs: []int64{2}, Deadline: 10, Period: 10},
		{Name: "lo", NPRs: []int64{4}, Deadline: 20, Period: 20},
	}
	res, err := AnalyzeSequential(tasks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("classic two-task set must be schedulable")
	}
}

func TestFacadeCriticalScaling(t *testing.T) {
	ts := PaperExample()
	a, err := NewAnalyzer(Options{Cores: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := a.CriticalScaling(context.Background(), ts, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if alpha <= 1000 {
		t.Fatalf("paper example should have WCET headroom, got %d permille", alpha)
	}
}

func TestFacadeEngine(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	ts := PaperExample()
	rep, err := e.Analyze(context.Background(), ts, AnalyzeSpec{Cores: 4, Method: LPILP})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Analyze(ts.Clone(), 4, LPILP) // a clone solves its own µ tables
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != direct.String() {
		t.Errorf("engine and direct analysis disagree:\n%s\nvs\n%s", rep, direct)
	}
	// A structurally identical request arriving as fresh objects — the
	// deserialized-from-JSON server shape — must be served from the
	// content-addressed cache: the µ tables computed for the first
	// request are keyed by graph content, not identity.
	if _, err := e.Analyze(context.Background(), PaperExample(), AnalyzeSpec{Cores: 4, Method: LPILP}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Analyses != 2 || st.Cache.Hits == 0 {
		t.Errorf("stats after repeat: %+v", st)
	}
}

func TestFacadeCampaignAndSoundness(t *testing.T) {
	cfg := CampaignConfig{
		Seed: 11, Ms: []int{2}, UFracs: []float64{0.5}, SetsPerPoint: 2,
		Scenarios: []CampaignScenario{{Name: "wide", Group: GroupParallel, Shape: ShapeWide}},
	}
	var jsonl strings.Builder
	results, err := RunCampaign(cfg, CampaignRunOptions{JSONL: &jsonl})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Sets != 2 {
		t.Fatalf("unexpected results: %+v", results)
	}
	back, err := ReadCampaignJSONL(strings.NewReader(jsonl.String()))
	if err != nil || len(back) != 1 {
		t.Fatalf("jsonl round trip: %v (%d results)", err, len(back))
	}
	if len(CampaignScenarios()) < 6 {
		t.Error("scenario registry too small")
	}
	if _, err := CampaignScenarioByName("deep"); err != nil {
		t.Error(err)
	}
	rep, err := RunSoundness(SoundnessConfig{Seed: 5, Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalViolations != 0 {
		t.Errorf("soundness violations on facade smoke run: %+v", rep.Violations)
	}
}

// TestFacadeCampaignRoute serves a campaign through the facade's server
// and route mount, wired as cmd/lpdag-serve wires them: the ndjson
// stream is RunCampaign's JSONL of the same registry campaign.
func TestFacadeCampaignRoute(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	srv := NewEngineServer(e, ServerConfig{})
	MountCampaignRoutes(srv)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/campaign", strings.NewReader(
		`{"seed":3,"ms":[2],"u_fracs":[0.4,0.8],"sets_per_point":2,"scenarios":["light"]}`)))
	light, err := CampaignScenarioByName("light")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := RunCampaign(CampaignConfig{
		Seed: 3, Ms: []int{2}, UFracs: []float64{0.4, 0.8}, SetsPerPoint: 2,
		Scenarios: []CampaignScenario{light},
	}, CampaignRunOptions{JSONL: &want}); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || w.Body.String() != want.String() {
		t.Errorf("/v1/campaign: status %d\n%s\nwant RunCampaign's JSONL:\n%s", w.Code, w.Body, want.String())
	}
}

func TestFacadeSharedCache(t *testing.T) {
	memo := NewCache(128)
	ts := PaperExample()
	for _, method := range []Method{LPILP, LPMax} {
		a, err := NewAnalyzer(Options{Cores: 4, Method: method, Cache: memo})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := a.Analyze(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Analyze(ts.Clone(), 4, method) // a clone solves its own µ tables
		if err != nil {
			t.Fatal(err)
		}
		if cached.String() != plain.String() {
			t.Errorf("%v: cached analysis drifted:\n%s\nvs\n%s", method, cached, plain)
		}
	}
	if s := memo.Stats(); s.Misses == 0 {
		t.Errorf("cache never populated: %+v", s)
	}
}
