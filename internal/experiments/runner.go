package experiments

// The experiment runner. Every sweep of this package — a campaign, a
// cluster worker's slice of one, the soundness harness and the paper
// figures — is a list of independent points, each a pure function of
// its index (seed.go). runPoints is the only code that submits points
// to the engine pool; Merger is its ordered half, streaming campaign
// results in index order with progress, and cluster.Run feeds the same
// Merger from remote shard streams.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// runPoints computes point(ctx, idx[p]) for every position p as one
// engine.JobSweep, the positions striped into shards (PlanShards; 0 =
// 4× the engine's workers) — sharding never affects results, only load
// balance. done(p, v) runs on the caller's goroutine as each point
// finishes, in completion order. A failed point is skipped; the first
// failure is returned once every point has finished.
func runPoints[T any](ctx context.Context, eng *engine.Engine, shards int, idx []int,
	point func(ctx context.Context, i int) (T, error), done func(p int, v T)) error {
	if shards <= 0 {
		shards = 4 * eng.Workers()
	}
	type finished struct {
		p   int
		v   T
		err error
	}
	out := make(chan finished)
	for _, stripe := range PlanShards(len(idx), shards) {
		go func() {
			for _, p := range stripe {
				v, err := eng.Submit(ctx, engine.JobSweep, func(jobCtx context.Context) (any, error) {
					return point(jobCtx, idx[p])
				})
				f := finished{p: p, err: err}
				if err == nil {
					f.v = v.(T)
				}
				out <- f
			}
		}()
	}
	var first error
	for range idx {
		f := <-out
		if f.err != nil {
			if first == nil {
				first = fmt.Errorf("experiments: point %d: %w", idx[f.p], f.err)
			}
			continue
		}
		done(f.p, f.v)
	}
	return first
}

// sweep runs the points 0..n-1 on eng and returns their results in
// index order: the sweeps that are not campaign grids.
func sweep[T any](eng *engine.Engine, n int, point func(ctx context.Context, i int) (T, error)) ([]T, error) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]T, n)
	if err := runPoints(context.Background(), eng, 0, idx, point, func(p int, v T) { out[p] = v }); err != nil {
		return nil, err
	}
	return out, nil
}

// Merger takes campaign point results in any completion order and
// streams them in position order through one StreamEmitter, reporting
// each landed result as Progress and, when RunOptions.Obs is set, as the
// lpdag_campaign_* series — so a long sweep is watchable from /metrics
// locally, on a cluster worker running a shard, or on the coordinator.
// The gauges describe the current run on this process; the completed
// counter is cumulative across runs, which is what rate() wants.
type Merger struct {
	results    []PointResult
	ready      []bool
	next       int // first position not yet emitted
	emitter    *StreamEmitter
	onProgress func(Progress)
	start      time.Time
	carried    int // results present before the run started
	got        int // results Put since

	planned, done, eta *obs.Gauge // nil without a registry
	completed          *obs.Counter
}

// NewMerger starts the merge of a whole campaign grid: it validates the
// results carried over in opts.Completed (the -resume mechanism) with
// CheckResult, emits their contiguous prefix at once, and returns the
// indices still to compute, ascending.
func NewMerger(cfg CampaignConfig, points []Point, opts RunOptions) (*Merger, []int, error) {
	results := make([]PointResult, len(points))
	ready := make([]bool, len(points))
	for _, pr := range opts.Completed {
		if err := CheckResult(cfg, points, pr); err != nil {
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
		if !ready[pr.Index] {
			results[pr.Index], ready[pr.Index] = pr, true
		}
	}
	var missing []int
	for i := range points {
		if !ready[i] {
			missing = append(missing, i)
		}
	}
	return newMerger(results, ready, cfg.MethodNames(), opts), missing, nil
}

func newMerger(results []PointResult, ready []bool, names []string, opts RunOptions) *Merger {
	m := &Merger{
		results: results, ready: ready,
		emitter:    NewStreamEmitter(opts.JSONL, opts.CSV, names),
		onProgress: opts.OnProgress,
		start:      time.Now(),
	}
	m.emitter.onResult = opts.OnResult
	for _, r := range ready {
		if r {
			m.carried++
		}
	}
	if reg := opts.Obs; reg != nil {
		m.planned = reg.Gauge("lpdag_campaign_points_planned",
			"Grid points of the campaign (or shard) currently running.")
		m.done = reg.Gauge("lpdag_campaign_points_done",
			"Points of the current campaign finished so far, including any resumed prefix.")
		m.eta = reg.Gauge("lpdag_campaign_eta_seconds",
			"Linear-extrapolation ETA of the current campaign; 0 when done or unknown.")
		m.completed = reg.Counter("lpdag_campaign_points_completed_total",
			"Campaign points computed by this process, cumulative across runs.")
		// Set before any point lands, so a scrape during a stalled run
		// still sees the plan.
		m.planned.Set(float64(len(results)))
		m.done.Set(float64(m.carried))
		m.eta.Set(0)
	}
	m.flush()
	return m
}

// Put records the result at position p and emits every result whose
// predecessors are all in. A position that already holds a result is
// left alone (a retried cluster shard resends points; they are
// deterministic, so identical).
func (m *Merger) Put(p int, pr PointResult) {
	if m.ready[p] {
		return
	}
	m.results[p], m.ready[p] = pr, true
	m.got++
	m.flush()
	if m.onProgress == nil && m.planned == nil {
		return
	}
	elapsed := time.Since(m.start)
	prog := Progress{Done: m.carried + m.got, Total: len(m.results), Elapsed: elapsed}
	if rem := prog.Total - prog.Done; rem > 0 {
		prog.ETA = time.Duration(float64(elapsed) / float64(m.got) * float64(rem))
	}
	if m.planned != nil {
		m.planned.Set(float64(prog.Total))
		m.done.Set(float64(prog.Done))
		m.eta.Set(prog.ETA.Seconds())
		m.completed.Inc()
	}
	if m.onProgress != nil {
		m.onProgress(prog)
	}
}

func (m *Merger) flush() {
	for m.next < len(m.results) && m.ready[m.next] {
		m.emitter.Emit(m.results[m.next])
		m.next++
	}
}

// Results returns the merged results in position order, or the first
// stream write error.
func (m *Merger) Results() ([]PointResult, error) {
	if err := m.emitter.Err(); err != nil {
		return nil, err
	}
	return m.results, nil
}
