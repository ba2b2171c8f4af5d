package cluster

// Worker half of the cluster protocol: POST /v1/shard computes a leased
// subset of a campaign's grid points and streams the results back,
// representing exactly what a local run would emit for those indices
// (experiments.RunCampaignSubset).
//
// The stream is campaign JSON lines (application/x-ndjson, whatever the
// Accept header asks for), where blank lines are heartbeats: the handler
// emits one every WorkerConfig.Heartbeat of silence so the coordinator's
// lease watchdog can tell "slow point" from "dead worker";
// experiments.ReadCampaignJSONL already skips blank lines, so the stream
// stays a valid campaign JSONL stream.
//
// If the run fails after streaming began a terminal {"error": ...} line
// is appended, mirroring POST /v1/campaign.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// Shard protocol limits and defaults.
const (
	// DefaultMaxShardPoints caps the grid points of one lease.
	DefaultMaxShardPoints = 1024
	// DefaultHeartbeat is the worker's blank-line keepalive interval.
	DefaultHeartbeat = 2 * time.Second
)

// ShardRequest is the POST /v1/shard body: the campaign's wire form
// plus the leased point indices (strictly increasing).
type ShardRequest struct {
	Campaign experiments.CampaignRequest `json:"campaign"`
	Points   []int                       `json:"points"`
}

// LoadReporter is the worker-state surface the shard handler feeds:
// Draining gates new leases, ShardStarted/ShardFinished drive the load
// gauges behind /healthz and /stats. *engine.Server implements it.
type LoadReporter interface {
	Draining() bool
	ShardStarted()
	ShardFinished()
}

// WorkerConfig parameterises the shard handler.
type WorkerConfig struct {
	// MaxPoints caps the points of one lease; 0 means
	// DefaultMaxShardPoints.
	MaxPoints int
	// Heartbeat is the blank-line keepalive interval; 0 means
	// DefaultHeartbeat, negative disables heartbeats.
	Heartbeat time.Duration
	// Load, when non-nil, reports draining state and shard load
	// (normally the node's *engine.Server).
	Load LoadReporter
}

// NewWorkerHandler serves POST /v1/shard on the given engine.
func NewWorkerHandler(eng *engine.Engine, cfg WorkerConfig) http.Handler {
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = DefaultMaxShardPoints
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if cfg.Load != nil && cfg.Load.Draining() {
			writeJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, experiments.MaxCampaignBodyBytes)
		var req ShardRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSONError(w, http.StatusBadRequest, "invalid request: %v", err)
			return
		}
		campaign, err := req.Campaign.Config()
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(req.Points) == 0 {
			writeJSONError(w, http.StatusBadRequest, "empty lease: points must name at least one grid point")
			return
		}
		if len(req.Points) > cfg.MaxPoints {
			writeJSONError(w, http.StatusBadRequest, "%d points exceed this worker's lease limit %d", len(req.Points), cfg.MaxPoints)
			return
		}
		// Config returns the normalized campaign, so these are the sets
		// and methods actually computed, not restated defaults.
		if analyses := len(req.Points) * campaign.SetsPerPoint * len(campaign.Methods); analyses > experiments.MaxCampaignAnalyses {
			writeJSONError(w, http.StatusBadRequest, "%d analyses exceed limit %d", analyses, experiments.MaxCampaignAnalyses)
			return
		}

		if cfg.Load != nil {
			cfg.Load.ShardStarted()
			defer cfg.Load.ShardFinished()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		out := newHeartbeatWriter(w, cfg.Heartbeat)
		defer out.stop()
		opts := experiments.RunOptions{
			Context: r.Context(),
			Engine:  eng,
			JSONL:   out,
			Obs:     eng.Obs(),
		}
		if _, err := experiments.RunCampaignSubset(campaign, req.Points, opts); err != nil {
			// Too late for a status code; emit a terminal error line the
			// coordinator treats as a shard failure.
			data, _ := json.Marshal(map[string]string{"error": err.Error()})
			out.Write(append(data, '\n'))
		}
	})
}

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// heartbeatWriter serialises result writes with periodic blank-line
// keepalives and flushes each write so results reach the coordinator as
// they are produced.
type heartbeatWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	stopped bool // no writes may start once set: the handler is returning
	done    chan struct{}
	once    sync.Once
}

func newHeartbeatWriter(w http.ResponseWriter, interval time.Duration) *heartbeatWriter {
	h := &heartbeatWriter{w: w, done: make(chan struct{})}
	if interval > 0 {
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-h.done:
					return
				case <-t.C:
					h.mu.Lock()
					if !h.stopped {
						h.w.Write([]byte("\n"))
						h.flushLocked()
					}
					h.mu.Unlock()
				}
			}
		}()
	}
	return h
}

func (h *heartbeatWriter) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, err := h.w.Write(p)
	h.flushLocked()
	return n, err
}

func (h *heartbeatWriter) flushLocked() {
	if fl, ok := h.w.(http.Flusher); ok {
		fl.Flush()
	}
}

// stop ends the keepalive goroutine and fences it off the
// ResponseWriter: once stop returns, no beat can touch w again (the
// handler is about to return it to net/http).
func (h *heartbeatWriter) stop() {
	h.once.Do(func() { close(h.done) })
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
}
