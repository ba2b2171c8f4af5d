package experiments

// HTTP front end of the campaign orchestrator: the route that Mount
// adds to the node's engine.Server (it lives here rather than in
// internal/engine because the orchestrator builds on the engine — the
// import only points one way).
//
//	POST /v1/campaign   run a sweep campaign, streaming one JSON
//	                    PointResult per line (application/x-ndjson)
//
// The route sits behind the server's admission, body cap, decoder and
// error writer like every engine route. Once a body is decoded, the
// route admits the grid (maxPoints), writes the ndjson header, runs
// RunCampaign over it and, if the run fails after streaming began,
// appends a final {"error": ...} line, which JSONL readers reject — the
// stream is only complete if every line parses.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/limits"
)

// heartbeat is the stream's tick: no line waits in the response buffer
// longer than this.
const heartbeat = 2 * time.Second

// CampaignRequest is the wire form of a campaign configuration, the
// /v1/campaign body. Scenarios are registry names (StandardScenarios);
// methods use the wire spellings of the analyze endpoint ("fp-ideal" |
// "lp-ilp" | "lp-max").
type CampaignRequest struct {
	Seed         int64     `json:"seed"`
	Ms           []int     `json:"ms,omitempty"`
	UFracs       []float64 `json:"u_fracs,omitempty"`
	SetsPerPoint int       `json:"sets_per_point,omitempty"`
	Scenarios    []string  `json:"scenarios,omitempty"`
	Methods      []string  `json:"methods,omitempty"`
}

// Mount serves POST /v1/campaign on srv, the node's one HTTP front end:
// the engine it runs on, the admission it passes, and the decoder and
// error writer it answers with are srv's. Its stream holds exactly the
// lines RunCampaign emits for the same campaign.
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
		points := limits.Points
		points.Max = int64(cfg.maxPoints())
		if err := limits.Check(points, cfg.gridSize()); err != nil {
			srv.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		out := startTicks(w, heartbeat)
		defer out.stop()
		eng := srv.Engine()
		if _, err := RunCampaign(cfg, RunOptions{
			Context: r.Context(),
			Engine:  eng,
			JSONL:   out,
			Obs:     eng.Obs(),
		}); err != nil {
			// Too late for a status code; emit a terminal error line.
			data, _ := json.Marshal(map[string]string{"error": err.Error()})
			out.Write(append(data, '\n'))
		}
	})
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
	// Return the normalized form (defaults filled), so the route's
	// admission reasons about the grid actually computed instead of
	// restating the package defaults. A point whose analyses alone pass
	// the bound fits no request, so maxPoints stays at least 1 for every
	// wire campaign.
	ncfg, err := cfg.normalized()
	if err != nil {
		return ncfg, err
	}
	if err := limits.Check(limits.Sets, ncfg.SetsPerPoint); err != nil {
		return ncfg, err
	}
	return ncfg, limits.Check(limits.Analyses, mulCapped(ncfg.SetsPerPoint, len(ncfg.Methods)))
}

// maxPoints returns the most grid points one /v1/campaign request of
// this campaign may name: limits.Points, or fewer where the points'
// sets × methods analyses would pass limits.Analyses. It is 0 for a
// config normalization rejects.
func (c CampaignConfig) maxPoints() int {
	ncfg, err := c.normalized()
	if err != nil {
		return 0
	}
	return min(int(limits.Points.Max), int(limits.Analyses.Max)/mulCapped(ncfg.SetsPerPoint, len(ncfg.Methods)))
}

// tickWriter is the stream writer of /v1/campaign. Lines stay in
// net/http's response buffer, which writes through by itself once full;
// once per tick the writer flushes whatever is pending, so no line
// waits longer than a tick and none costs a flush of its own. The
// handler's writes and the ticks share a mutex.
type tickWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	pending bool // written since the last flush
	stopped bool // the handler is returning w to net/http
	timer   *time.Timer
}

func startTicks(w http.ResponseWriter, tick time.Duration) *tickWriter {
	t := &tickWriter{w: w}
	t.mu.Lock() // the first tick reads t.timer
	defer t.mu.Unlock()
	t.timer = time.AfterFunc(tick, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.stopped {
			return
		}
		if t.pending {
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
