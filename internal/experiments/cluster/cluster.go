// Package cluster fans a sweep campaign out across machines: a
// coordinator splits the campaign's point grid into shard leases
// (reusing the experiments shard planner) and dispatches them to remote
// lpdag-serve workers over POST /v1/shard, merging the streamed JSONL
// shard results back in index order.
//
// Determinism: every grid point is deterministic in (campaign seed,
// point index) alone — experiments.SeedFor — so it does not matter
// which worker computes a point, how many workers the cluster has, or
// how often a shard is retried: the merged JSONL/CSV byte streams are
// identical to a local single-worker run of the same campaign. The
// end-to-end test in cluster_test.go kills a worker mid-campaign and
// asserts exactly that.
//
// Failure handling: a lease dies when its stream goes silent past
// LeaseTimeout (the worker heartbeats every couple of seconds, so
// silence means death or stall), returns an error line, breaks, or
// ends with points missing. The shard's not-yet-streamed points are
// requeued to another worker, bounded by MaxShardRetries; a worker
// that fails WorkerFailLimit consecutive times is excluded, and one
// whose /healthz reports draining is handed back its lease and simply
// stops being scheduled (no retry consumed). Points that did arrive
// before a failure are kept — the requeued lease re-runs only what is
// missing, exactly like resuming from a partial JSONL.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/wire"
)

// Coordinator defaults.
const (
	DefaultLeaseTimeout    = 30 * time.Second
	DefaultMaxShardRetries = 3
	DefaultWorkerFailLimit = 3
)

// Config parameterises a cluster campaign run.
type Config struct {
	// Campaign is the campaign to run. Scenarios must be registry
	// entries (the wire protocol names them); Workers/Shards fields of
	// the campaign are worker-local knobs and are not shipped.
	Campaign experiments.CampaignConfig
	// Workers are the base URLs of the lpdag-serve worker nodes, e.g.
	// "http://host1:8080". At least one is required.
	Workers []string
	// Client issues the HTTP requests (nil = a client with no global
	// timeout; the lease watchdog bounds silence instead, because a
	// healthy shard stream may legitimately run for a long time).
	Client *http.Client
	// LeaseTimeout is the maximum silence on a shard stream before the
	// lease is declared dead and requeued; 0 means DefaultLeaseTimeout.
	// Workers heartbeat well below the default.
	LeaseTimeout time.Duration
	// MaxShardRetries bounds the failure requeues of one shard; 0 means
	// DefaultMaxShardRetries. Exceeding it fails the campaign.
	MaxShardRetries int
	// WorkerFailLimit excludes a worker after this many consecutive
	// failures; 0 means DefaultWorkerFailLimit.
	WorkerFailLimit int
	// Shards is the lease granularity (0 = 4 × len(Workers), capped at
	// the remaining point count). More shards mean finer failover
	// rebalancing; shard count never affects output bytes.
	Shards int
	// MaxLeasePoints caps the points of one lease; 0 means
	// DefaultMaxShardPoints (the workers' default admission limit).
	// Set it to the smallest -max-shard-points across the cluster —
	// the shard count is raised as needed so no lease exceeds it.
	MaxLeasePoints int
	// DisableBinary forces JSONL shard streams. By default the
	// coordinator asks each worker for the binary frame codec
	// (Accept: application/x-lpdag-bin) and falls back per response
	// Content-Type, so mixed-version clusters work either way; the
	// codec never affects the merged output bytes.
	DisableBinary bool
}

// Run executes the campaign across the cluster and returns the
// per-point results in index order, streaming them to opts.JSONL /
// opts.CSV byte-identically to a local run. opts.Engine is ignored (the
// compute happens on the workers); opts.Completed resumes from prior
// results exactly like RunCampaign.
func Run(cfg Config, opts experiments.RunOptions) ([]experiments.PointResult, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.MaxShardRetries <= 0 {
		cfg.MaxShardRetries = DefaultMaxShardRetries
	}
	if cfg.WorkerFailLimit <= 0 {
		cfg.WorkerFailLimit = DefaultWorkerFailLimit
	}
	wreq, err := cfg.Campaign.WireRequest()
	if err != nil {
		return nil, err
	}
	points, err := cfg.Campaign.Points()
	if err != nil {
		return nil, err
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	merger, remaining, err := experiments.NewMerger(cfg.Campaign, points, opts)
	if err != nil {
		return nil, err
	}

	shardCount := cfg.Shards
	if shardCount <= 0 {
		shardCount = 4 * len(cfg.Workers)
	}
	// Never plan a lease the workers would refuse to admit: striping
	// makes shard sizes differ by at most one, so this shard count
	// keeps every lease within the cap.
	maxLease := cfg.MaxLeasePoints
	if maxLease <= 0 {
		maxLease = DefaultMaxShardPoints
	}
	if min := (len(remaining) + maxLease - 1) / maxLease; shardCount < min {
		shardCount = min
	}
	// PlanShards stripes positions; map them back to point indices. The
	// stripes of an ascending list are ascending, as the wire requires.
	var shards [][]int
	for _, positions := range experiments.PlanShards(len(remaining), shardCount) {
		pts := make([]int, len(positions))
		for i, p := range positions {
			pts[i] = remaining[p]
		}
		shards = append(shards, pts)
	}
	tracker := NewTracker(shards, cfg.MaxShardRetries)
	tracker.Instrument(opts.Obs)

	// A context watcher aborts the tracker so worker loops blocked in
	// Next wake up when the caller cancels.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		<-watchCtx.Done()
		if ctx.Err() != nil {
			tracker.Abort(ctx.Err())
		}
	}()

	c := &coordinator{cfg: cfg, wreq: wreq, points: points, tracker: tracker,
		resultc: make(chan experiments.PointResult, 2*len(cfg.Workers))}
	var wg sync.WaitGroup
	for _, url := range cfg.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			c.workerLoop(ctx, url)
		}(url)
	}
	go func() {
		wg.Wait()
		// All worker loops exited. If leases are still outstanding the
		// cluster ran out of workers; fail rather than hang.
		if !tracker.Done() {
			tracker.Abort(fmt.Errorf("cluster: all %d workers failed, were excluded, or are draining with %d points outstanding",
				len(cfg.Workers), tracker.Outstanding()))
		}
		close(c.resultc)
	}()

	for pr := range c.resultc {
		merger.Put(pr.Index, pr)
	}

	if err := tracker.Err(); err != nil {
		return nil, err
	}
	if !tracker.Done() {
		return nil, fmt.Errorf("cluster: campaign incomplete (%d points outstanding)", tracker.Outstanding())
	}
	return merger.Results()
}

// coordinator carries the per-run state shared by the worker loops.
type coordinator struct {
	cfg     Config
	wreq    experiments.CampaignRequest
	points  []experiments.Point
	tracker *Tracker
	resultc chan experiments.PointResult
}

// errDraining marks a worker that reported draining: stop scheduling to
// it, but don't count a failure or consume a shard retry.
var errDraining = fmt.Errorf("cluster: worker draining")

// workerLoop pulls leases for one worker node until the campaign
// finishes, the worker is excluded for repeated failures, or it starts
// draining.
func (c *coordinator) workerLoop(ctx context.Context, url string) {
	consecutive := 0
	for {
		if ctx.Err() != nil {
			return
		}
		if draining, err := c.checkHealth(ctx, url); err != nil {
			consecutive++
			if consecutive >= c.cfg.WorkerFailLimit {
				return
			}
			c.tracker.DialRetry()
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.backoff(consecutive)):
			}
			continue
		} else if draining {
			return
		}
		lease, ok := c.tracker.Next(url)
		if !ok {
			return
		}
		err := c.runShard(ctx, url, lease)
		switch {
		case err == nil:
			if cerr := c.tracker.Complete(lease.Shard, url); cerr != nil {
				// Stream ended cleanly but points are missing: a failure.
				c.tracker.Fail(lease.Shard, url, cerr)
				consecutive++
			} else {
				consecutive = 0
			}
		case err == errDraining:
			c.tracker.Handback(lease.Shard, url)
			return
		default:
			c.tracker.Fail(lease.Shard, url, fmt.Errorf("worker %s: %w", url, err))
			consecutive++
		}
		if consecutive >= c.cfg.WorkerFailLimit {
			return
		}
		if consecutive > 0 {
			// A dispatch just failed: back off before redialing this
			// worker, exactly like a failed health probe. Hammering a
			// worker that is crash-looping or saturated only turns one
			// failure into WorkerFailLimit of them within milliseconds.
			c.tracker.DialRetry()
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.backoff(consecutive)):
			}
		}
	}
}

// backoff spaces out retries against an unhealthy worker: capped
// exponential, jittered so workers probed by many coordinator loops do
// not see synchronized retry bursts.
func (c *coordinator) backoff(attempt int) time.Duration {
	d := 100 * time.Millisecond << (attempt - 1)
	if d > 2*time.Second || d <= 0 {
		d = 2 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// checkHealth probes a worker's /healthz; draining=true means the node
// asked not to be scheduled.
func (c *coordinator) checkHealth(ctx context.Context, url string) (draining bool, err error) {
	hctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return false, fmt.Errorf("healthz: %w", err)
	}
	if body.Status == "draining" {
		return true, nil
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		return false, fmt.Errorf("healthz: status %d %q", resp.StatusCode, body.Status)
	}
	return false, nil
}

// runShard executes one lease: POST the shard, stream the result lines,
// validate each against the grid, and feed them to the merger. Any
// received silence longer than LeaseTimeout kills the request — the
// worker heartbeats, so a live shard is never silent that long.
func (c *coordinator) runShard(ctx context.Context, url string, lease Lease) error {
	body, err := json.Marshal(ShardRequest{Campaign: c.wreq, Points: lease.Points})
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(c.cfg.LeaseTimeout, cancel)
	defer watchdog.Stop()

	req, err := http.NewRequestWithContext(sctx, http.MethodPost, url+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if !c.cfg.DisableBinary {
		req.Header.Set("Accept", wire.ContentType+", application/x-ndjson")
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return c.leaseErr(sctx, ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(msg), "draining") {
			return errDraining
		}
		return fmt.Errorf("shard request: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if resp.Header.Get("Content-Type") == wire.ContentType {
		return c.readBinaryShard(sctx, ctx, resp.Body, url, lease, watchdog)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		watchdog.Reset(c.cfg.LeaseTimeout)
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue // heartbeat
		}
		var line struct {
			experiments.PointResult
			Err *string `json:"error"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		if line.Err != nil {
			return fmt.Errorf("shard stream: worker error: %s", *line.Err)
		}
		pr := line.PointResult
		if err := experiments.CheckResult(c.cfg.Campaign, c.points, pr); err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		if err := c.tracker.Progress(lease.Shard, url, pr.Index); err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		select {
		case c.resultc <- pr:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := sc.Err(); err != nil {
		return c.leaseErr(sctx, ctx, err)
	}
	return nil
}

// readBinaryShard consumes a binary shard stream: heartbeat frames feed
// the watchdog, result frames decode and merge exactly like JSON lines
// (same CheckResult and tracker validation), an error frame fails the
// lease, and a clean EOF ends it.
func (c *coordinator) readBinaryShard(sctx, ctx context.Context, body io.Reader, url string, lease Lease, watchdog *time.Timer) error {
	fr := wire.NewReader(body, 16*1024*1024)
	for {
		typ, payload, err := fr.ReadFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return c.leaseErr(sctx, ctx, fmt.Errorf("shard stream: %w", err))
		}
		watchdog.Reset(c.cfg.LeaseTimeout)
		switch typ {
		case wire.FrameHeartbeat:
			continue
		case wire.FrameError:
			return fmt.Errorf("shard stream: worker error: %s", payload)
		}
		pr, err := experiments.DecodePointResultBinary(payload)
		if err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		if err := experiments.CheckResult(c.cfg.Campaign, c.points, pr); err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		if err := c.tracker.Progress(lease.Shard, url, pr.Index); err != nil {
			return fmt.Errorf("shard stream: %w", err)
		}
		select {
		case c.resultc <- pr:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// leaseErr maps a transport error to a lease-deadline error when the
// watchdog (not the caller) cancelled the stream.
func (c *coordinator) leaseErr(sctx, ctx context.Context, err error) error {
	if sctx.Err() != nil && ctx.Err() == nil {
		return fmt.Errorf("lease deadline: no data for %s: %w", c.cfg.LeaseTimeout, err)
	}
	return err
}
