package experiments

// HTTP front end of the campaign orchestrator: two routes that Mount
// adds to the node's engine.Server (they live here rather than in
// internal/engine because the orchestrator builds on the engine — the
// import only points one way).
//
//	POST /v1/campaign   run a sweep campaign, streaming one JSON
//	                    PointResult per line (application/x-ndjson)
//	POST /v1/shard      cluster worker: the same stream for a leased
//	                    subset of a campaign's grid points
//
// Both routes sit behind the server's admission, body cap, decoder and
// error writer like every engine route. Once a body is decoded, serve
// admits the point list (LeasePoints), writes the ndjson header, runs
// RunCampaignSubset over it (the full grid is the lease of every point)
// and, if the run fails after streaming began, appends a final
// {"error": ...} line, which JSONL readers reject — the stream is only
// complete if every line parses. One tickWriter carries both streams.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/limits"
)

// Stream ticks. DefaultHeartbeat is /v1/campaign's tick and the longest
// /v1/shard tick; minShardTick is the shortest, so that no lease a
// client declares makes a stream of keepalive lines.
const (
	DefaultHeartbeat = 2 * time.Second
	minShardTick     = 10 * time.Millisecond
)

// CampaignRequest is the wire form of a campaign configuration: the
// /v1/campaign body, and the campaign half of the /v1/shard body.
// Scenarios are registry names (StandardScenarios); methods use the
// wire spellings of the analyze endpoint ("fp-ideal" | "lp-ilp" |
// "lp-max").
type CampaignRequest struct {
	Seed         int64     `json:"seed"`
	Ms           []int     `json:"ms,omitempty"`
	UFracs       []float64 `json:"u_fracs,omitempty"`
	SetsPerPoint int       `json:"sets_per_point,omitempty"`
	Scenarios    []string  `json:"scenarios,omitempty"`
	Methods      []string  `json:"methods,omitempty"`
}

// ShardRequest is the POST /v1/shard body: the campaign's wire form,
// the leased point indices (strictly increasing) and the coordinator's
// lease timeout, the stream silence after which it declares the lease
// dead (0 = not given).
type ShardRequest struct {
	Campaign       CampaignRequest `json:"campaign"`
	Points         []int           `json:"points"`
	LeaseTimeoutMs int64           `json:"lease_timeout_ms,omitempty"`
}

// shardTick is the stream tick of a lease that dies after leaseMs of
// silence: a quarter of it, so a keepalive always lands well inside the
// coordinator's watchdog, within [minShardTick, DefaultHeartbeat]. A
// lease that gives no timeout ticks at DefaultHeartbeat, well below the
// coordinator default.
func shardTick(leaseMs int64) time.Duration {
	if leaseMs <= 0 || leaseMs/4 >= DefaultHeartbeat.Milliseconds() {
		return DefaultHeartbeat
	}
	return max(minShardTick, time.Duration(leaseMs)*time.Millisecond/4)
}

// Mount serves POST /v1/campaign and POST /v1/shard on srv, the node's
// one HTTP front end: the engine they run on, the admission they pass,
// and the decoder and error writer they answer with are srv's. The
// shard route refuses new leases with a 503 while srv drains, and
// feeds srv's shard gauges behind /healthz and /stats; its stream
// holds exactly the lines a local run emits for the leased indices,
// blank keepalive lines aside.
func Mount(srv *engine.Server) {
	srv.Handle("POST /v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		var req CampaignRequest
		if !srv.Decode(w, r, &req) {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			srv.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Bound the grid before anything is built for it.
		n := cfg.gridSize()
		if err := limits.Check(limits.Points, n); err != nil {
			srv.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		serve(srv, w, r, cfg, idx, DefaultHeartbeat, false)
	})
	srv.Handle("POST /v1/shard", func(w http.ResponseWriter, r *http.Request) {
		if srv.Draining() {
			srv.WriteError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		var req ShardRequest
		if !srv.Decode(w, r, &req) {
			return
		}
		campaign, err := req.Campaign.Config()
		if err != nil {
			srv.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		serve(srv, w, r, campaign, req.Points, shardTick(req.LeaseTimeoutMs), true)
	})
}

// serve is the one core of both routes: it admits the points idx of the
// normalized campaign cfg, writes the ndjson header, streams their
// results, flushed once per tick, and appends the terminal error line if
// the run fails. A shard stream (shard) sends a blank keepalive line on
// a silent tick and counts in srv's shard gauges.
func serve(srv *engine.Server, w http.ResponseWriter, r *http.Request, cfg CampaignConfig, idx []int, tick time.Duration, shard bool) {
	points := limits.Points
	points.Max = int64(cfg.LeasePoints())
	if err := limits.Check(points, len(idx)); err != nil {
		srv.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if shard {
		srv.ShardStarted()
		defer srv.ShardFinished()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := startTicks(w, tick, shard)
	defer out.stop()
	eng := srv.Engine()
	if _, err := RunCampaignSubset(cfg, idx, RunOptions{
		Context: r.Context(),
		Engine:  eng,
		JSONL:   out,
		Obs:     eng.Obs(),
	}); err != nil {
		// Too late for a status code; emit a terminal error line (a
		// coordinator treats it as a shard failure).
		data, _ := json.Marshal(map[string]string{"error": err.Error()})
		out.Write(append(data, '\n'))
	}
}

// Config validates and resolves the wire form into a CampaignConfig.
func (req CampaignRequest) Config() (CampaignConfig, error) {
	cfg := CampaignConfig{
		Seed:         req.Seed,
		Ms:           req.Ms,
		UFracs:       req.UFracs,
		SetsPerPoint: req.SetsPerPoint,
	}
	for _, m := range req.Ms {
		if err := limits.Check(limits.Cores, m); err != nil {
			return cfg, err
		}
	}
	for _, name := range req.Scenarios {
		sc, err := ScenarioByName(name)
		if err != nil {
			return cfg, err
		}
		cfg.Scenarios = append(cfg.Scenarios, sc)
	}
	for _, ms := range req.Methods {
		m, err := engine.ParseMethod(ms)
		if err != nil {
			return cfg, err
		}
		cfg.Methods = append(cfg.Methods, m)
	}
	// Return the normalized form (defaults filled), so every consumer —
	// the routes' admission, the coordinator's lease plan — reasons
	// about the grid actually computed instead of restating the package
	// defaults. A point whose analyses alone pass the bound fits no
	// request, so LeasePoints stays at least 1 for every wire campaign.
	ncfg, err := cfg.normalized()
	if err != nil {
		return ncfg, err
	}
	if err := limits.Check(limits.Sets, ncfg.SetsPerPoint); err != nil {
		return ncfg, err
	}
	return ncfg, limits.Check(limits.Analyses, mulCapped(ncfg.SetsPerPoint, len(ncfg.Methods)))
}

// LeasePoints returns the most grid points one /v1/campaign or
// /v1/shard request of this campaign may name: limits.Points, or fewer
// where the points' sets × methods analyses would pass
// limits.Analyses. Both routes admit by it and the cluster coordinator
// sizes its leases by it, so a planned lease is never refused. It is 0
// for a config normalization rejects.
func (c CampaignConfig) LeasePoints() int {
	ncfg, err := c.normalized()
	if err != nil {
		return 0
	}
	return min(int(limits.Points.Max), int(limits.Analyses.Max)/mulCapped(ncfg.SetsPerPoint, len(ncfg.Methods)))
}

// WireRequest renders a campaign configuration into its wire form, the
// inverse of Config. Because the wire form names scenarios, every
// scenario must be a registry entry (ScenarioByName) — a locally
// modified scenario under a registry name would make remote workers
// silently compute a different campaign, so it is rejected here.
func (c CampaignConfig) WireRequest() (CampaignRequest, error) {
	req := CampaignRequest{
		Seed:         c.Seed,
		Ms:           c.Ms,
		UFracs:       c.UFracs,
		SetsPerPoint: c.SetsPerPoint,
	}
	for _, sc := range c.Scenarios {
		reg, err := ScenarioByName(sc.Name)
		if err != nil {
			return req, fmt.Errorf("experiments: campaign not wire-encodable: %w", err)
		}
		if !reflect.DeepEqual(sc, reg) {
			return req, fmt.Errorf("experiments: campaign not wire-encodable: scenario %q differs from the registry entry of that name", sc.Name)
		}
		req.Scenarios = append(req.Scenarios, sc.Name)
	}
	for _, m := range c.Methods {
		w, err := engine.MethodWire(m)
		if err != nil {
			return req, err
		}
		req.Methods = append(req.Methods, w)
	}
	// Round-trip through Config so a campaign the wire-level limits
	// would reject (core counts, sets or analyses per point) fails at
	// the coordinator, not on every worker.
	if _, err := req.Config(); err != nil {
		return req, err
	}
	return req, nil
}

// tickWriter is the one stream writer of both routes. Lines stay in
// net/http's response buffer, which writes through by itself once full;
// once per tick the writer flushes whatever is pending, so no line
// waits longer than a tick and none costs a flush of its own. With
// keepalive (shard streams) a tick with nothing pending sends a blank
// line instead, which campaign JSONL readers skip. The handler's writes
// and the ticks share a mutex.
type tickWriter struct {
	mu        sync.Mutex
	w         http.ResponseWriter
	keepalive bool
	pending   bool // written since the last flush
	stopped   bool // the handler is returning w to net/http
	timer     *time.Timer
}

func startTicks(w http.ResponseWriter, tick time.Duration, keepalive bool) *tickWriter {
	t := &tickWriter{w: w, keepalive: keepalive}
	t.mu.Lock() // the first tick reads t.timer
	defer t.mu.Unlock()
	t.timer = time.AfterFunc(tick, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.stopped {
			return
		}
		if t.pending || t.keepalive {
			if !t.pending {
				t.w.Write([]byte{'\n'})
			}
			t.pending = false
			if fl, ok := t.w.(http.Flusher); ok {
				fl.Flush()
			}
		}
		t.timer.Reset(tick)
	})
	return t
}

func (t *tickWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending = true
	return t.w.Write(p)
}

// stop ends the ticks and fences them off w: once stop returns no tick
// touches w again, and net/http flushes what is left when the handler
// returns.
func (t *tickWriter) stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	t.timer.Stop()
}
