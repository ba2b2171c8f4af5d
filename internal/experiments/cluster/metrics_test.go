package cluster

// Observability-plane tests that need the whole stack in one place:
// engine + server + sessions + campaign orchestrator + cluster lease
// tracker all publishing into one registry. They live here because this
// is the only package allowed to import everything above the engine.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// metricsCatalog is the golden metric catalog: every family the
// observability plane can register, as "name|type|labelKeys|help".
// A metric rename, a label change, or a reworded help string is an
// intentional, reviewed event — update this list when it happens.
var metricsCatalog = []string{
	"go_goroutines|gauge||Current number of goroutines.",
	"go_memstats_heap_inuse_bytes|gauge||Bytes in in-use heap spans.",
	"lpdag_analysis_cache_lookup_seconds|histogram||Time per shared-cache µ-table fetch (graph memo misses only).",
	"lpdag_analysis_fixed_point_iterations|histogram||Iterations per response-time fixed point.",
	"lpdag_analysis_fixed_point_seconds|histogram||Time per per-task response-time fixed point.",
	"lpdag_analysis_full_runs_total|counter||From-scratch analysis passes.",
	"lpdag_analysis_suffix_push_seconds|histogram||Time in full bottom-up blocking aggregator pushes.",
	"lpdag_build_info|gauge|go,version|Build metadata; the value is always 1.",
	"lpdag_cache_entries|gauge||Materialized analysis cache entries (in-flight computes excluded).",
	"lpdag_cache_evictions_total|counter||Analysis cache entries evicted by the second-chance size bound.",
	"lpdag_cache_hit_ratio|gauge||hits/(hits+misses+waits) since process start; 0 before any lookup.",
	"lpdag_cache_hits_total|counter||Analysis cache lookups served from a materialized entry.",
	"lpdag_cache_misses_total|counter||Analysis cache lookups that had to compute.",
	"lpdag_cache_waits_total|counter||Analysis cache lookups that blocked on another goroutine's in-flight compute.",
	"lpdag_campaign_eta_seconds|gauge||Linear-extrapolation ETA of the current campaign; 0 when done or unknown.",
	"lpdag_campaign_points_completed_total|counter||Campaign points computed by this process, cumulative across runs.",
	"lpdag_campaign_points_done|gauge||Points of the current campaign finished so far, including any resumed prefix.",
	"lpdag_campaign_points_planned|gauge||Grid points of the campaign (or shard) currently running.",
	"lpdag_cluster_active_shards|gauge||Shard leases currently executing on this worker.",
	"lpdag_cluster_lease_completions_total|counter||Shard leases fully streamed back and retired.",
	"lpdag_cluster_lease_failures_total|counter||Shard leases that died (worker failure, stall, protocol error).",
	"lpdag_cluster_lease_grants_total|counter||Shard leases granted to workers.",
	"lpdag_cluster_lease_handbacks_total|counter||Shard leases returned by draining workers (no retry consumed).",
	"lpdag_cluster_dial_retries_total|counter||Worker dispatch/health retries the coordinator backed off before.",
	"lpdag_cluster_lease_requeues_total|counter||Shard leases put back on the pending queue for another worker.",
	"lpdag_cluster_points_outstanding|gauge||Points of the current cluster campaign not yet streamed back.",
	"lpdag_cluster_shards_served_total|counter||Shard leases this worker finished (completed or failed).",
	"lpdag_engine_job_failures_total|counter||Jobs that completed with an error.",
	"lpdag_engine_job_duration_seconds|histogram|kind|Job execution time by kind (excludes queue wait).",
	"lpdag_engine_jobs_abandoned_total|counter||Queued jobs skipped because the submitter's context expired first.",
	"lpdag_engine_jobs_total|counter|kind|Completed jobs by kind.",
	"lpdag_engine_queue_capacity|gauge||Capacity of the pending-job queue (admission-control bound).",
	"lpdag_engine_queue_depth|gauge||Jobs submitted and not yet finished (running or queued).",
	"lpdag_engine_queue_wait_seconds|histogram||Time a job spent queued before a worker picked it up.",
	"lpdag_engine_workers|gauge||Configured worker goroutines of the engine pool.",
	"lpdag_http_in_flight|gauge||Requests currently inside the admission semaphore.",
	"lpdag_http_phase_seconds|histogram|phase,route|Serving time by route and phase: decode (body read, JSON decode, task graphs built), analyze (engine batch), encode (response encode and write).",
	"lpdag_http_request_duration_seconds|histogram|route|HTTP request latency by route pattern.",
	"lpdag_http_requests_shed_total|counter||Requests refused with 503 by the in-flight semaphore.",
	"lpdag_http_requests_total|counter|code,route|HTTP requests served, by route pattern and status code.",
	"lpdag_http_slow_requests_total|counter||Requests slower than the configured slow-request threshold.",
	"lpdag_http_write_errors_total|counter||Responses lost to encode or mid-body write failures.",
	"lpdag_repair_candidates_total|counter||Candidate placements evaluated by session repair searches.",
	"lpdag_repair_flips_total|counter||Repair searches that found a transform sequence flipping the set schedulable.",
	"lpdag_repair_search_seconds|histogram||End-to-end session repair search duration (gate and queue wait excluded).",
	"lpdag_server_draining|gauge||1 while SIGTERM drain is in progress, else 0.",
	"lpdag_session_fsync_errors_total|counter||Durable session store append/fsync failures (durability degraded, serving continues).",
	"lpdag_session_gate_wait_seconds|histogram||Time a session operation waited on its per-session serialization gate.",
	"lpdag_session_handoffs_total|counter||Session snapshots accepted over POST /v1/sessions/handoff.",
	"lpdag_session_redirects_total|counter||Session requests answered 307 to the owning ring member.",
	"lpdag_session_restores_total|counter||Sessions restored from the durable store at startup.",
	"lpdag_session_snapshots_total|counter||Session snapshots durably appended to the session store.",
	"lpdag_sessions_active|gauge||Live analysis sessions after sweeping expired ones.",
	"lpdag_sessions_created_total|counter||Analysis sessions created.",
	"lpdag_sessions_expired_total|counter||Analysis sessions evicted by the TTL sweep.",
	"lpdag_uptime_seconds|gauge||Seconds since the process registered its metrics.",
}

// scrapeCatalog parses a Prometheus text exposition into
// "name|type|labelKeys|help" lines, one per family, sorted.
func scrapeCatalog(t *testing.T, text string) []string {
	t.Helper()
	type fam struct {
		help, typ string
		labels    map[string]bool
	}
	fams := map[string]*fam{}
	get := func(name string) *fam {
		f, ok := fams[name]
		if !ok {
			f = &fam{labels: map[string]bool{}}
			fams[name] = f
		}
		return f
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ = typ
			continue
		}
		// Sample line: name{k="v",...} value — fold histogram suffixes
		// back onto the family and drop the synthetic le label.
		name := line
		var labelPart string
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			if line[i] == '{' {
				labelPart = line[i+1 : strings.LastIndex(line, "}")]
			}
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if _, ok := fams[base]; ok {
					name = base
					break
				}
			}
		}
		f, ok := fams[name]
		if !ok {
			t.Fatalf("sample for undeclared family: %q", line)
		}
		for _, kv := range strings.Split(labelPart, ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
				f.labels[k] = true
			}
		}
	}
	var out []string
	for name, f := range fams {
		var keys []string
		for k := range f.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%s|%s|%s|%s", name, f.typ, strings.Join(keys, ","), f.help))
	}
	sort.Strings(out)
	return out
}

// TestMetricsCatalogGolden registers the full observability plane —
// instrumented engine, HTTP server, sessions, a local campaign, a lease
// tracker — on one registry, drives every surface once, and pins the
// scraped catalog (metric names, types, label keys, help) against the
// golden list above.
func TestMetricsCatalogGolden(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 2, Obs: reg})
	defer eng.Close()
	srv := engine.NewServer(eng, engine.ServerConfig{})
	handler := engine.LogRequests(srv, nil, reg, 0)

	// One request through the logged mux materializes the per-route
	// lazily created lpdag_http_requests_total/duration series.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}

	mixed, err := experiments.ScenarioByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.RunCampaign(experiments.CampaignConfig{
		Seed: 7, Ms: []int{2}, UFracs: []float64{0.3}, SetsPerPoint: 1,
		Scenarios: []experiments.Scenario{mixed},
	}, experiments.RunOptions{Engine: eng, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	NewTracker([][]int{{0}}, 1).Instrument(reg)

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	got := scrapeCatalog(t, rec.Body.String())

	want := append([]string(nil), metricsCatalog...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("catalog has %d families, golden has %d", len(got), len(want))
	}
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("missing from scrape: %s", w)
		}
		delete(gotSet, w)
	}
	for g := range gotSet {
		t.Errorf("unexpected in scrape (add to golden?): %s", g)
	}
}

// TestClusterScrapeDuringCampaign runs a real coordinator + two
// instrumented workers and scrapes /metrics WHILE the campaign is
// active: the workers' scrapes must show campaign progress series (the
// shard runs publish them through the engine's registry) and the
// coordinator's registry must show the lease flow.
func TestClusterScrapeDuringCampaign(t *testing.T) {
	type obsWorker struct {
		url string
		reg *obs.Registry
	}
	var workers []obsWorker
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		eng := engine.New(engine.Config{Workers: 2, Obs: reg})
		t.Cleanup(eng.Close)
		srv := engine.NewServer(eng, engine.ServerConfig{})
		mux := http.NewServeMux()
		mux.Handle("/v1/shard", NewWorkerHandler(eng, WorkerConfig{
			Heartbeat: 100 * time.Millisecond, Load: srv,
		}))
		mux.Handle("/", srv)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		workers = append(workers, obsWorker{url: ts.URL, reg: reg})
	}

	coordReg := obs.NewRegistry()
	var (
		once        sync.Once
		workerBody  string
		scrapeErr   error
		midCampaign string
	)
	urls := []string{workers[0].url, workers[1].url}
	cfg := e2eCampaign(t)
	_, err := Run(Config{
		Campaign: cfg,
		Workers:  urls,
		Shards:   8,
	}, experiments.RunOptions{
		Context: context.Background(),
		Obs:     coordReg,
		OnProgress: func(p experiments.Progress) {
			if p.Done >= p.Total {
				return
			}
			once.Do(func() {
				// Mid-campaign: scrape every worker over HTTP and the
				// coordinator registry directly.
				for _, w := range urls {
					resp, err := http.Get(w + "/metrics")
					if err != nil {
						scrapeErr = err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						scrapeErr = fmt.Errorf("worker scrape: status %d", resp.StatusCode)
						return
					}
					workerBody += string(body)
				}
				var buf bytes.Buffer
				if err := coordReg.WriteText(&buf); err != nil {
					scrapeErr = err
					return
				}
				midCampaign = buf.String()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	for _, series := range []string{
		"lpdag_campaign_points_planned",
		"lpdag_campaign_points_done",
		"lpdag_engine_jobs_total",
		"lpdag_cluster_active_shards",
	} {
		if !strings.Contains(workerBody, series) {
			t.Errorf("mid-campaign worker scrape is missing %s", series)
		}
	}
	for _, series := range []string{
		"lpdag_cluster_lease_grants_total",
		"lpdag_cluster_points_outstanding",
		"lpdag_campaign_points_done",
	} {
		if !strings.Contains(midCampaign, series) {
			t.Errorf("mid-campaign coordinator scrape is missing %s", series)
		}
	}
	// The campaign ran: at least one lease was granted and completed.
	var buf bytes.Buffer
	if err := coordReg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	final := buf.String()
	for _, line := range []string{"lpdag_cluster_lease_grants_total 0", "lpdag_cluster_lease_completions_total 0"} {
		if strings.Contains(final, line) {
			t.Errorf("final coordinator scrape still reports %q", line)
		}
	}
}
