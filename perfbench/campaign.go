package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/rta"
)

// The campaign workload: repeated POST /v1/campaign ndjson streams, each
// over the full grid of four families × m ∈ {4, 8, 16} × three
// utilization fractions with all three methods and a fresh campaign
// seed. Generation, clique µ solves (dominated by npr-fine), suffix Δ
// aggregation and the fixed point do the work; request decode does none
// and the µ cache little, so decode or cache changes should not move it.
var (
	campaignFamilies = []string{"mixed", "parallel", "wide", "npr-fine"}
	campaignMs       = []int{4, 8, 16}
	campaignUFracs   = []float64{0.2, 0.4, 0.6}
	campaignMethods  = []string{"fp-ideal", "lp-ilp", "lp-max"}
)

const campaignSetsPerPoint = 1

// campaignRequest is the i-th request of a run.
func campaignRequest(seed int64, i int) experiments.CampaignRequest {
	return experiments.CampaignRequest{
		Seed:         subSeed(seed, streamCampaign, i),
		Ms:           campaignMs,
		UFracs:       campaignUFracs,
		SetsPerPoint: campaignSetsPerPoint,
		Scenarios:    campaignFamilies,
		Methods:      campaignMethods,
	}
}

func campaignSets() int {
	return len(campaignFamilies) * len(campaignMs) * len(campaignUFracs) * campaignSetsPerPoint
}

// campaignReference computes the byte stream an in-process single-worker
// RunCampaign produces for a request.
func campaignReference(req experiments.CampaignRequest) ([]byte, error) {
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	var buf bytes.Buffer
	if _, err := experiments.RunCampaign(cfg, experiments.RunOptions{JSONL: &buf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// campaignLoad is the outcome of the closed-loop HTTP phase; rates,
// latencies and CPU are medians over time windows.
type campaignLoad struct {
	setsPerS float64
	rateQ    [3]float64 // quartiles of the per-window rates
	p50, p90 float64    // ms per stream
	cpuUS    float64    // server CPU µs per set
	latency  []float64  // ms per completed stream, all windows
	queueMS  float64
	queueN   float64
	rssMB    float64
	setupS   float64
	nprShare float64
}

// campaignHTTP streams campaigns on maxConns closed-loop connections for
// d, then checks every stream byte for byte against the reference.
func campaignHTTP(r *run, d time.Duration) (*campaignLoad, error) {
	srv, setup, err := launch(r.serve, nil)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := scrape(r.client, srv.base+"/metrics")
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		streams = make(map[int][]byte)
	)
	w := newWindows(e2eRounds, d/e2eRounds, srv.cpuSeconds)
	closedLoop(maxConns, d, func(i int) {
		body, err := json.Marshal(campaignRequest(r.seed, i))
		if err == nil {
			t0 := time.Now()
			var resp *response
			if resp, err = call(r.client, http.MethodPost, srv.base+"/v1/campaign", body); err == nil {
				err = resp.expect(http.StatusOK)
			}
			if err == nil {
				w.add(time.Since(t0), float64(campaignSets()))
				mu.Lock()
				streams[i] = resp.body
				mu.Unlock()
			}
		}
		r.tally.add("closed", "campaign", err)
	})
	after, err := scrape(r.client, srv.base+"/metrics")
	if err != nil {
		return nil, err
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	load := &campaignLoad{
		setsPerS: median(w.rates()),
		rateQ:    quartiles(w.rates()),
		p50:      median(w.latencies(50)),
		p90:      median(w.latencies(90)),
		cpuUS:    median(w.cpuPerWork()),
		latency:  w.pooled(),
		setupS:   setup,
	}
	load.queueMS, load.queueN = histMeanMS(before, after, "lpdag_engine_queue_wait_seconds")
	if load.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(streams))
	for i := range streams {
		ids = append(ids, i)
	}
	want := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	parallel(len(ids), func(k int) { want[k], errs[k] = campaignReference(campaignRequest(r.seed, ids[k])) })
	nprSets, allSets := 0, 0
	for k, i := range ids {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if !bytes.Equal(streams[i], want[k]) {
			r.mismatch("campaign stream %d differs from the single-worker reference (%d vs %d bytes)", i, len(streams[i]), len(want[k]))
		}
		for _, line := range bytes.Split(bytes.TrimSpace(streams[i]), []byte("\n")) {
			var pr experiments.PointResult
			if json.Unmarshal(line, &pr) == nil {
				allSets += pr.Sets
				if pr.Scenario == "npr-fine" {
					nprSets += pr.Sets
				}
			}
		}
	}
	load.nprShare = float64(nprSets) / float64(max(1, allSets))
	return load, nil
}

func campaignE2E(r *run) error {
	load, err := campaignHTTP(r, r.duration)
	if err != nil {
		return err
	}
	p99 := percentile(load.latency, 99)
	r.metric("setup_s", load.setupS, "s")
	r.metric("cpu_us_per_op", load.cpuUS, "us")
	r.metric("peak_rss_mb", load.rssMB, "MB")
	attempted, failed := r.tally.totals()
	r.note("campaign setup_s %.4f s (median of %d launches)", load.setupS, setupLaunches)
	r.note("campaign sets_per_s %.1f sets/s (%d sets per stream, closed loop, %d connections, median of %d windows, quartiles %.1f-%.1f)",
		load.setsPerS, campaignSets(), maxConns, e2eRounds, load.rateQ[0], load.rateQ[2])
	r.note("campaign stream_p50_ms %.3f ms, stream_p90_ms %.3f ms (medians of %d windows); stream_p99_ms %.3f ms (pooled, n=%d, %d samples beyond)",
		load.p50, load.p90, e2eRounds, p99, len(load.latency), beyond(len(load.latency), 99))
	r.note("campaign cpu_us_per_set %.1f us (server CPU, median of %d windows)", load.cpuUS, e2eRounds)
	r.note("campaign fail_frac %.6f ratio (%d of %d)", float64(failed)/float64(max(1, attempted)), failed, attempted)
	r.note("campaign peak_rss_mb %.1f MB", load.rssMB)
	r.note("campaign npr_fine_share %.3f (of completed sets)", load.nprShare)
	return nil
}

// campaignTraced runs a short HTTP phase for the scraped queue wait,
// then replays campaign points in-process through the layers a point
// job calls: generation, µ solves, suffix aggregation, the fixed point
// with µ memoized, and the stream emitter.
func campaignTraced(r *run, t *tracer, budget time.Duration) error {
	load, err := campaignHTTP(r, budget*3/10)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(budget * 7 / 10)
	ctx := context.Background()
	emitter := experiments.NewStreamEmitter(io.Discard, nil, []string{"FP-ideal", "LP-ILP", "LP-max"})
	methods := []rta.Method{rta.FPIdeal, rta.LPILP, rta.LPMax}
	var group int64
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		req := campaignRequest(r.seed, i)
		cfg, err := req.Config()
		if err != nil {
			return err
		}
		points, err := cfg.Points()
		if err != nil {
			return err
		}
		for _, pt := range points {
			group++
			sched := make(map[string]int)
			for si := 0; si < cfg.SetsPerPoint; si++ {
				var ts *model.TaskSet
				t.do("campaign.gen.set", group, -1, func() {
					ts = pt.Scenario.TaskSet(experiments.SeedFor(cfg.Seed, pt.Index, si), pt.U)
				})
				t.count("campaign.sets_generated", 1)
				if pt.Scenario.Name == "npr-fine" {
					t.count("campaign.sets_npr_fine", 1)
				}
				mus := make([][]int64, len(ts.Tasks))
				name := "campaign.blocking.mu"
				if pt.Scenario.Name == "npr-fine" {
					name = "campaign.blocking.mu.npr-fine"
				}
				t.do(name, group, -1, func() {
					for k, task := range ts.Tasks {
						mus[k] = blocking.Mu(task.G, pt.M, blocking.Combinatorial)
					}
				})
				t.count("campaign.mu_solves", int64(len(ts.Tasks)))
				t.do("campaign.blocking.suffix", group, -1, func() {
					agg := blocking.NewSuffixAggregator(pt.M, blocking.LPILP, blocking.Combinatorial)
					for k := len(mus) - 1; k >= 0; k-- {
						agg.PushMu(mus[k])
						agg.Interference()
					}
				})
				analyzers := make([]*rta.Analyzer, len(methods))
				for k, m := range methods {
					if analyzers[k], err = rta.NewAnalyzer(rta.Config{M: pt.M, Method: m}); err != nil {
						return err
					}
					if _, err := analyzers[k].AnalyzeInPlace(ctx, ts); err != nil {
						return err
					}
				}
				warm := t.begin("campaign.rta.analyze_warm", group, -1)
				for k, a := range analyzers {
					res, err := a.AnalyzeInPlace(ctx, ts)
					if err != nil {
						return err
					}
					if res.Schedulable {
						sched[methods[k].String()]++
					}
				}
				t.end(warm)
			}
			t.do("campaign.experiments.emit", group, -1, func() {
				emitter.Emit(experiments.PointResult{
					Index: pt.Index, Scenario: pt.Scenario.Name, M: pt.M, U: pt.U,
					Sets: cfg.SetsPerPoint, Sched: sched,
				})
			})
			t.count("campaign.points_emitted", 1)
		}
	}
	if err := emitter.Err(); err != nil {
		return err
	}
	self := t.selfByName()
	mu := append(append([]time.Duration(nil), self["campaign.blocking.mu"]...), self["campaign.blocking.mu.npr-fine"]...)
	r.metric("campaign.gen.set_us", median(durations(self["campaign.gen.set"], us)), "us")
	r.metric("campaign.blocking.mu_us", median(durations(mu, us)), "us")
	r.metric("campaign.blocking.mu_us.npr-fine", median(durations(self["campaign.blocking.mu.npr-fine"], us)), "us")
	r.metric("campaign.blocking.suffix_us", median(durations(self["campaign.blocking.suffix"], us)), "us")
	r.metric("campaign.rta.analyze_warm_us", median(durations(self["campaign.rta.analyze_warm"], us)), "us")
	r.metric("campaign.experiments.emit_us", median(durations(self["campaign.experiments.emit"], us)), "us")
	r.metric("campaign.engine.queue_wait_ms", load.queueMS, "ms")
	r.note("campaign trace: %d points replayed; server queue wait mean %.3f ms over %.0f jobs", group, load.queueMS, load.queueN)
	return nil
}
