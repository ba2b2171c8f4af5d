// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Benchmark sample counts are deliberately small so that
// `go test -bench=.` completes in minutes; `cmd/lpdag-experiments` runs
// the full-scale (300 sets/point) version and writes CSVs.
package lpdag

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/blocking"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fixture"
	"repro/internal/ilp"
	"repro/internal/partition"
	"repro/internal/rta"
)

// figure1Graphs rebuilds the four Figure 1 graphs with the timer
// stopped, so an iteration times the µ solves: µ tables memoize on
// their graph, and reused graphs would time memo hits instead.
func figure1Graphs(b *testing.B) []*Graph {
	b.StopTimer()
	defer b.StartTimer()
	return fixture.LowerPriorityGraphs()
}

// BenchmarkTableI regenerates Table I: the µ_i[c] worst-case workload
// tables of the four Figure 1 tasks.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mus := blocking.MuTables(figure1Graphs(b), fixture.M, blocking.Combinatorial)
		if mus[3][2] != 12 {
			b.Fatal("Table I value drifted")
		}
	}
}

// BenchmarkTableII regenerates Table II: the execution scenarios e_4.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := partition.All(fixture.M); len(s) != int(partition.Count(fixture.M)) {
			b.Fatal("p(4) mismatch")
		}
	}
}

// BenchmarkTableIII regenerates Table III: ρ_k[s_l] for every scenario
// plus the Δ⁴/Δ³ aggregation of Section IV-B3.
func BenchmarkTableIII(b *testing.B) {
	graphs := fixture.LowerPriorityGraphs()
	mus := blocking.MuTables(graphs, fixture.M, blocking.Combinatorial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var max int64
		for _, s := range partition.All(fixture.M) {
			if v := blocking.ScenarioWorkload(mus, fixture.M, s, blocking.Combinatorial); v > max {
				max = v
			}
		}
		if max != fixture.DeltaILP4 {
			b.Fatalf("Δ⁴ = %d, want %d", max, fixture.DeltaILP4)
		}
	}
}

// benchFigure2 runs a reduced-size Figure 2 sweep at the given core
// count (the full version is cmd/lpdag-experiments -fig2).
func benchFigure2(b *testing.B, m int) {
	b.Helper()
	cfg := experiments.PaperFig2Config(m, 4, 42)
	cfg.UStep = float64(m) / 4
	for i := 0; i < b.N; i++ {
		if points, err := experiments.Figure2(cfg); err != nil || len(points) == 0 {
			b.Fatalf("no points: %v", err)
		}
	}
}

// BenchmarkFigure2a regenerates Figure 2(a): m = 4.
func BenchmarkFigure2a(b *testing.B) { benchFigure2(b, 4) }

// BenchmarkFigure2b regenerates Figure 2(b): m = 8.
func BenchmarkFigure2b(b *testing.B) { benchFigure2(b, 8) }

// BenchmarkFigure2c regenerates Figure 2(c): m = 16.
func BenchmarkFigure2c(b *testing.B) { benchFigure2(b, 16) }

// BenchmarkFigure2cTasksSweep regenerates the alternative reading of
// Figure 2(c) (x-axis "Number of tasks", m = 16).
func BenchmarkFigure2cTasksSweep(b *testing.B) {
	cfg := experiments.TasksSweepConfig{
		M: 16, U: 4, NStart: 2, NEnd: 16, SetsPerPoint: 2, Seed: 42,
	}
	for i := 0; i < b.N; i++ {
		if points, err := experiments.TasksSweep(cfg); err != nil || len(points) != 15 {
			b.Fatalf("wrong point count: %v", err)
		}
	}
}

// BenchmarkGroup2 regenerates the Section VI-B second-group experiment
// (uniformly parallel task sets; LP-max ≈ LP-ILP).
func BenchmarkGroup2(b *testing.B) {
	cfg := experiments.PaperFig2Config(4, 4, 42)
	cfg.UStep = 1
	for i := 0; i < b.N; i++ {
		if res, err := experiments.Group2(cfg); err != nil || len(res.Points) == 0 {
			b.Fatalf("no points: %v", err)
		}
	}
}

// benchAnalysisRuntime measures the LP-ILP schedulability test on one
// random task set, mirroring the Section VI-B timing discussion
// (0.45 s / 4.75 s / 43 min in MATLAB+CPLEX for m = 4/8/16; absolute Go
// numbers differ, the growth trend with m is the reproduced quantity).
func benchAnalysisRuntime(b *testing.B, m int) {
	b.Helper()
	g := NewGenerator(int64(m)*17, PaperGenParams(GroupMixed))
	ts := g.TaskSet(0.4 * float64(m))
	a, err := NewAnalyzer(Options{Cores: m, Method: LPILP})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(context.Background(), ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisRuntimeM4 is the m = 4 timing measurement.
func BenchmarkAnalysisRuntimeM4(b *testing.B) { benchAnalysisRuntime(b, 4) }

// BenchmarkAnalysisRuntimeM8 is the m = 8 timing measurement.
func BenchmarkAnalysisRuntimeM8(b *testing.B) { benchAnalysisRuntime(b, 8) }

// BenchmarkAnalysisRuntimeM16 is the m = 16 timing measurement.
func BenchmarkAnalysisRuntimeM16(b *testing.B) { benchAnalysisRuntime(b, 16) }

// BenchmarkAblationBackendCombinatorial vs ...PaperILP compare the two
// LP-ILP solver backends on the Figure 1 example (DESIGN.md ablation).
func BenchmarkAblationBackendCombinatorial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blocking.Compute(figure1Graphs(b), fixture.M, blocking.LPILP, blocking.Combinatorial)
	}
}

// BenchmarkAblationBackendPaperILP is the ILP-encoding side of the
// backend ablation.
func BenchmarkAblationBackendPaperILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blocking.Compute(figure1Graphs(b), fixture.M, blocking.LPILP, blocking.PaperILP)
	}
}

// BenchmarkAblationLPMaxVsLPILP measures the cheap bound for the method
// cost comparison.
func BenchmarkAblationLPMaxVsLPILP(b *testing.B) {
	graphs := fixture.LowerPriorityGraphs()
	for i := 0; i < b.N; i++ {
		blocking.Compute(graphs, fixture.M, blocking.LPMax, blocking.Combinatorial)
	}
}

// BenchmarkAblationScenarioCount tracks how the p(m) scenario
// enumeration of the paper grows with the core count (the complexity
// discussion of Section V-C).
func BenchmarkAblationScenarioCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 32; m++ {
			partition.Count(m)
		}
	}
}

// BenchmarkAblationMuILPEncoding measures the corrected Section V-A2
// encoding in isolation.
func BenchmarkAblationMuILPEncoding(b *testing.B) {
	g := fixture.Tau1()
	isPar := g.IsParallelMatrix()
	w := g.WCETs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 1; c <= fixture.M; c++ {
			ilp.SolveMu(w, isPar, c)
		}
	}
}

// BenchmarkEndToEndLPILP is the full pipeline on the paper's example.
func BenchmarkEndToEndLPILP(b *testing.B) {
	ts := PaperExample()
	a, err := NewAnalyzer(Options{Cores: fixture.M, Method: LPILP})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(context.Background(), ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorPaperExample measures the validation simulator.
func BenchmarkSimulatorPaperExample(b *testing.B) {
	ts := PaperExample()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(ts, SimConfig{M: fixture.M, Duration: 5000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariants runs the analysis-variant ablation sweep (final-NPR
// refinement and repeated-blocking term) at reduced size.
func BenchmarkVariants(b *testing.B) {
	cfg := experiments.PaperFig2Config(4, 3, 42)
	cfg.UStep = 1
	for i := 0; i < b.N; i++ {
		if points, err := experiments.Variants(cfg); err != nil || len(points) == 0 {
			b.Fatalf("no points: %v", err)
		}
	}
}

// BenchmarkPessimism runs the analysis-vs-simulation gap study at one
// grid point, reduced size.
func BenchmarkPessimism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Pessimism(experiments.PessimismConfig{
			M: 4, U: 2, Sets: 3, Seed: 42,
		})
		if err != nil || res.Sets != 3 {
			b.Fatalf("wrong set count: %v", err)
		}
	}
}

// BenchmarkSequentialSubstrate measures the RTNS'15 sequential analysis
// (internal/seqlp) that the paper generalises.
func BenchmarkSequentialSubstrate(b *testing.B) {
	tasks := []*SeqTask{
		{Name: "a", NPRs: []int64{2, 3}, Deadline: 20, Period: 20},
		{Name: "b", NPRs: []int64{4, 1, 2}, Deadline: 40, Period: 40},
		{Name: "c", NPRs: []int64{6, 5}, Deadline: 80, Period: 80},
		{Name: "d", NPRs: []int64{9}, Deadline: 100, Period: 100},
	}
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSequential(tasks, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalScaling measures the sensitivity bisection on the
// paper's example.
func BenchmarkCriticalScaling(b *testing.B) {
	ts := PaperExample()
	a, err := NewAnalyzer(Options{Cores: fixture.M, Method: LPILP})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.CriticalScaling(context.Background(), ts, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzePoint measures the steady-state cost of ONE
// single-point LP-ILP analysis on a reusable rta.Analyzer — the
// innermost unit of every campaign, sweep, and server request. This is
// the headline number of BENCH_analyze.json: after the suffix-
// incremental rewrite it must run the fixed-point loop at 0 allocs/op
// (the -benchmem columns are part of the regression gate, and
// TestAnalyzerSteadyStateZeroAlloc pins the zero).
func BenchmarkAnalyzePoint(b *testing.B) {
	g := NewGenerator(8*17, PaperGenParams(GroupMixed))
	ts := g.TaskSet(0.4 * 8)
	a, err := rta.NewAnalyzer(rta.Config{M: 8, Method: rta.LPILP})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil { // warm the µ memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignThroughput runs one fixed multi-scenario campaign
// end to end — generation, all three methods, streaming — per
// iteration, with a fresh engine each time so iterations are honest.
// This is the fleet-facing number of BENCH_analyze.json: what one
// campaign worker node sustains.
func BenchmarkCampaignThroughput(b *testing.B) {
	cfg := experiments.CampaignConfig{
		Seed:         42,
		Ms:           []int{4, 8},
		UFracs:       []float64{0.2, 0.4, 0.6, 0.8},
		SetsPerPoint: 8,
		Scenarios: []experiments.Scenario{
			{Name: "mixed", Group: GroupMixed},
			{Name: "parallel", Group: GroupParallel},
		},
		Workers: 4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunCampaign(cfg, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 16 {
			b.Fatalf("%d points, want 16", len(results))
		}
	}
}

// benchEngineSweep analyzes a fixed pool of task sets through the
// engine, modeling a Figure-2-style serving workload in which the same
// task graphs recur request after request, each time freshly decoded.
// Every op analyzes fresh Clone()s of the pool, made with the timer
// stopped, so no graph brings a µ table memoized by an earlier op: the
// cached engine fetches each table from its content-addressed cache by
// the clone's fingerprint, and the uncached one solves it. The pair is
// the standing no-inversion gate (enforced by lpdag-bench): the cached
// run must never be slower or more allocation-heavy than the uncached
// one. It was, for three PRs — the old cache keyed every suffix's Δ
// terms with per-request hashing and boxing, costing 2× what it saved.
func benchEngineSweep(b *testing.B, cacheEntries int) {
	b.Helper()
	g := NewGenerator(99, PaperGenParams(GroupMixed))
	pool := make([]*TaskSet, 16)
	for i := range pool {
		pool[i] = g.TaskSet(2.0)
	}
	e := NewEngine(EngineConfig{Workers: 4, CacheEntries: cacheEntries})
	defer e.Close()
	ctx := context.Background()
	spec := AnalyzeSpec{Cores: 8, Method: LPILP}
	sets := make([]*TaskSet, len(pool))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, ts := range pool {
			sets[j] = ts.Clone()
		}
		b.StartTimer()
		for _, ts := range sets {
			if _, err := e.Analyze(ctx, ts, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineCachedSweep is the engine with its content-addressed
// µ-table cache enabled: after the first op every table is a cache hit.
// Compare against BenchmarkEngineUncachedSweep, which solves the same
// tables on every op: the cache must pay for its fingerprints and
// lookups on this recurring workload.
func BenchmarkEngineCachedSweep(b *testing.B) { benchEngineSweep(b, 0) }

// BenchmarkEngineUncachedSweep is the same workload with caching
// disabled — the recompute baseline of the no-inversion gate.
func BenchmarkEngineUncachedSweep(b *testing.B) { benchEngineSweep(b, -1) }

// benchCampaignSweep runs one fixed multi-scenario campaign through the
// orchestrator at a given worker count. Each iteration builds a
// fresh engine (and µ-table cache), so iterations do not feed each
// other and the serial/parallel comparison is honest.
func benchCampaignSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := experiments.CampaignConfig{
		Seed:         42,
		Ms:           []int{4, 8},
		UFracs:       []float64{0.2, 0.4, 0.6, 0.8},
		SetsPerPoint: 6,
		Scenarios: []experiments.Scenario{
			{Name: "mixed", Group: GroupMixed},
			{Name: "parallel", Group: GroupParallel},
		},
		Workers: workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunCampaign(cfg, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 16 {
			b.Fatalf("%d points, want 16", len(results))
		}
	}
}

// BenchmarkSweepSerial is the orchestrator pinned to one worker — the
// serial baseline for the parallel-speedup acceptance check.
func BenchmarkSweepSerial(b *testing.B) { benchCampaignSweep(b, 1) }

// BenchmarkSweepParallel runs the same campaign on 8 workers; compare
// ns/op against BenchmarkSweepSerial for the sweep speedup (the
// campaign's points are independent, so it should approach 8× on ≥ 8
// free cores).
func BenchmarkSweepParallel(b *testing.B) { benchCampaignSweep(b, 8) }

// sessionBenchTasks builds the 16-task what-if workload of
// BenchmarkSessionEdit: a generated mixed-population set at low
// utilization (so every task is analyzed — no early-failure
// short-circuit flatters the numbers), with the tasks at priorities 2
// and 3 being two instances of the same program (same graph, deadline
// and period — the common real-system shape of replicated components),
// the pair the edit benchmark flips.
func sessionBenchTasks(b *testing.B) []*Task {
	b.Helper()
	g := NewGenerator(1234, PaperGenParams(GroupMixed))
	ts := g.TaskSetN(16, 2.0)
	if len(ts.Tasks) != 16 {
		b.Fatalf("generator produced %d tasks", len(ts.Tasks))
	}
	twin := ts.Tasks[2]
	ts.Tasks[3] = &Task{Name: twin.Name + "-b", G: twin.G,
		Deadline: twin.Deadline, Period: twin.Period}
	return ts.Tasks
}

// BenchmarkSessionEdit measures the session's per-edit cost: one
// SetPriority edit (flipping the order of the two same-program
// instances at priorities 2 and 3) followed by Report on a 16-task
// LP-ILP session. The report is a full analysis on a warm pooled
// analyzer: the flipped tasks share one graph, so every µ table comes
// from the graph memo, and the op is the suffix pushes, the 16 fixed
// points and the Report conversion.
func BenchmarkSessionEdit(b *testing.B) {
	tasks := sessionBenchTasks(b)
	s, err := NewSession(Options{Cores: 8, Method: LPILP}, tasks...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Report(ctx); err != nil { // warm the µ memos
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SetPriority(2, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Report(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEditDurable is BenchmarkSessionEdit plus the
// durability tax lpdag-serve pays per committed edit batch when
// -session-dir is set: snapshot encode + append + fsync on the session
// store. The op is dominated by the fsync, so the absolute number is a
// property of the disk, not the code; lpdag-bench gates it with a
// standing budget-table row (25ms — an order of magnitude above a
// worst-case rotational fsync) rather than the relative
// baseline comparison, and the allocs/op leg keeps the encode path
// honest.
func BenchmarkSessionEditDurable(b *testing.B) {
	tasks := sessionBenchTasks(b)
	s, err := NewSession(Options{Cores: 8, Method: LPILP}, tasks...)
	if err != nil {
		b.Fatal(err)
	}
	st, err := OpenSessionStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if _, err := s.Report(ctx); err != nil { // warm the µ memos
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SetPriority(2, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Report(ctx); err != nil {
			b.Fatal(err)
		}
		if err := st.Append(s.Snapshot("bench", int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAdmitProbe measures the admission-control hot path:
// TryAdmit of a fresh task at the lowest priority on the same 16-task
// session (analyze-without-commit).
func BenchmarkSessionAdmitProbe(b *testing.B) {
	tasks := sessionBenchTasks(b)
	s, err := NewSession(Options{Cores: 8, Method: LPILP}, tasks...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Report(ctx); err != nil {
		b.Fatal(err)
	}
	probe := &Task{Name: "probe", G: tasks[5].G, Deadline: tasks[5].Deadline, Period: tasks[5].Period}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TryAdmit(ctx, probe, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// serveBenchSets returns the 16 task-set documents of the serving
// benchmarks, generated and encoded as lpdag-gen writes them.
func serveBenchSets(b *testing.B) [][]byte {
	b.Helper()
	g := NewGenerator(77, PaperGenParams(GroupMixed))
	sets := make([][]byte, 16)
	for i := range sets {
		raw, err := g.TaskSet(2.0).MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = raw
	}
	return sets
}

// BenchmarkServeAnalyze drives the full HTTP serving path — request
// decode, batch dispatch, pooled response encode — with one 16-item
// /v1/analyze batch per iteration. This is the serving-path number of
// BENCH_analyze.json and part of the lpdag-bench regression gate: the
// response side must stay on the pooled encoder, so allocs/op is
// effectively the per-batch serving overhead. BenchmarkServeDecode and
// BenchmarkServeBuild time its first layers alone on the same sets.
func BenchmarkServeAnalyze(b *testing.B) {
	var batch bytes.Buffer
	batch.WriteString(`{"cores": 8, "method": "lp-ilp", "requests": [`)
	for i, raw := range serveBenchSets(b) {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"taskset": %s}`, raw)
	}
	batch.WriteString(`]}`)
	body := batch.Bytes()

	e := engine.New(engine.Config{Workers: 4})
	defer e.Close()
	h := engine.NewServer(e, engine.ServerConfig{})
	run := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	run() // warm the engine's pooled analyzers and µ memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkServeSessionQuery drives the HTTP session query path: one
// GET …/report and one POST …/admit per op, through the server's
// handler, against the 16-task LP-ILP session of BenchmarkSessionEdit
// on m = 8, created over HTTP. Both answers carry the whole report, so
// beside the envelope decode and the admit probe's analysis (the report
// is memoized) the op times two report encodes.
func BenchmarkServeSessionQuery(b *testing.B) {
	tasks := sessionBenchTasks(b)
	set, err := (&TaskSet{Tasks: tasks}).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	probe, err := (&Task{Name: "probe", G: tasks[5].G, Deadline: tasks[5].Deadline, Period: tasks[5].Period}).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 4})
	defer e.Close()
	h := engine.NewServer(e, engine.ServerConfig{})
	serve := func(method, target string, body []byte, want int) *httptest.ResponseRecorder {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
		if w.Code != want {
			b.Fatalf("%s %s: status %d: %s", method, target, w.Code, w.Body)
		}
		return w
	}
	w := serve(http.MethodPost, "/v1/sessions",
		fmt.Appendf(nil, `{"cores": 8, "method": "lp-ilp", "taskset": %s}`, set), http.StatusCreated)
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		b.Fatal(err)
	}
	report, admit := "/v1/sessions/"+created.ID+"/report", "/v1/sessions/"+created.ID+"/admit"
	admitBody := fmt.Appendf(nil, `{"task": %s}`, probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(http.MethodGet, report, nil, http.StatusOK)
		serve(http.MethodPost, admit, admitBody, http.StatusOK)
	}
}

// BenchmarkServeDecode is the decode layer of BenchmarkServeAnalyze: the
// one-pass JSON decode of its 16 task sets, task graphs built.
func BenchmarkServeDecode(b *testing.B) {
	sets := serveBenchSets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, raw := range sets {
			if err := new(TaskSet).UnmarshalJSON(raw); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeBuild is the graph-building share of BenchmarkServeDecode:
// dag.Builder.Build over the same sets' node and edge lists.
func BenchmarkServeBuild(b *testing.B) {
	var tasks []*Task
	for _, raw := range serveBenchSets(b) {
		ts, err := ReadTaskSet(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, ts.Tasks...)
	}
	var bld GraphBuilder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tasks {
			bld.Reset()
			for v := 0; v < t.G.N(); v++ {
				bld.AddNode(t.G.WCET(v))
			}
			for u := 0; u < t.G.N(); u++ {
				for _, v := range t.G.Successors(u) {
					bld.AddEdge(u, v)
				}
			}
			if _, err := bld.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// muBenchGraphs is the fixed graph pool of BenchmarkMuTableCold: every
// task graph of one generated mixed, parallel and npr-fine task set
// (npr-fine graphs reach ~200 nodes, so their Par sets span words).
func muBenchGraphs(b *testing.B) []*Graph {
	b.Helper()
	var pool []*Graph
	for _, name := range []string{"mixed", "parallel", "npr-fine"} {
		s, err := experiments.ScenarioByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range s.TaskSet(19, 4).Tasks {
			pool = append(pool, t.G)
		}
	}
	return pool
}

// BenchmarkMuTableCold is the cold µ-table layer of the serving path: a
// freshly decoded graph pays once for its run classes and its Equation
// (6) table. One op solves the m = 16 combinatorial table
// of every graph of muBenchGraphs, each on a fresh Clone() made with the
// timer stopped, so no memo carries over between ops.
func BenchmarkMuTableCold(b *testing.B) {
	pool := muBenchGraphs(b)
	graphs := make([]*Graph, len(pool))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, g := range pool {
			graphs[j] = g.Clone()
		}
		b.StartTimer()
		for _, g := range graphs {
			blocking.Mu(g, 16, blocking.Combinatorial)
		}
	}
}

// sessionRepairBenchTasks is the 16-task session workload with a
// blocking-heavy 17th task at the lowest priority: its single long NPR
// inflates the Δ blocking term of every task above, pushing the set
// unschedulable, and splitting it is the repair. This is the
// representative repair workload — a big set where one placement is
// wrong — not a pathological search space.
func sessionRepairBenchTasks(b *testing.B) []*Task {
	tasks := sessionBenchTasks(b)
	var bld GraphBuilder
	bld.AddNode(5000)
	return append(tasks, &Task{Name: "blocker", G: bld.MustBuild(),
		Deadline: 100000, Period: 100000})
}

// BenchmarkSessionRepair measures the greedy repair search end to end
// on a 17-task LP-ILP session: candidate generation, a full analysis
// of each placement on the pooled analyzer, and result assembly, in
// query mode (apply=false) so every iteration searches from the same
// failing state. lpdag-bench gates this with a standing budget-table row —
// repair is an interactive verb (the REPL `fix` command), so
// it gets an absolute latency ceiling like the durable-edit path.
func BenchmarkSessionRepair(b *testing.B) {
	tasks := sessionRepairBenchTasks(b)
	s, err := NewSession(Options{Cores: 8, Method: LPILP}, tasks...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rep, err := s.Report(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Schedulable {
		b.Fatal("repair bench workload must start unschedulable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Repair(ctx, RepairConfig{}, false)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Fixed {
			b.Fatal("repair bench workload must be fixable")
		}
	}
}

// repairSearchBenchTasks has the shape of the repair searches of
// perfbench's session workload: a 16-task mixed set at total
// utilization 2.4 for m = 8, with a one-node blocker twice the shortest
// deadline long at the lowest priority. Generator seed 216 gives a set
// whose greedy search spends its whole 64-candidate budget without
// fixing it, so an op pays for every candidate, unlike
// BenchmarkSessionRepair, whose first candidate is the fix.
func repairSearchBenchTasks(b *testing.B) []*Task {
	b.Helper()
	tasks := NewGenerator(216, PaperGenParams(GroupMixed)).TaskSetN(16, 2.4).Tasks
	minD := tasks[0].Deadline
	var bld GraphBuilder
	bld.AddNode(2 * minD)
	return append(tasks, &Task{Name: "blocker", G: bld.MustBuild(),
		Deadline: 1000 * minD, Period: 1000 * minD})
}

// BenchmarkRepairSearch measures the per-candidate cost of repair: one
// query-mode greedy search of repairSearchBenchTasks on m = 8 under
// LP-ILP, 64 candidates, each a transformed graph, its µ table and a
// full analysis. Every op searches a session over fresh clones of the
// graphs, made with the timer stopped, so all memos start cold.
func BenchmarkRepairSearch(b *testing.B) {
	tasks := repairSearchBenchTasks(b)
	ctx := context.Background()
	cfg := RepairConfig{MaxCandidates: 64, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewSession(Options{Cores: 8, Method: LPILP}, (&TaskSet{Tasks: tasks}).Clone().Tasks...)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Repair(ctx, cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fixed || !res.Stopped || res.Candidates != cfg.MaxCandidates {
			b.Fatalf("repair bench search must spend its budget unfixed: fixed=%v stopped=%v candidates=%d",
				res.Fixed, res.Stopped, res.Candidates)
		}
	}
}
