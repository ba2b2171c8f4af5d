package experiments

// The experiment runner. Every sweep of this package — a campaign, the
// soundness harness and the paper figures — is a list of independent
// points, each a pure function of its index (seed.go). runPoints is the
// only code that submits points to the engine; merger is its ordered
// half, streaming campaign results in index order with progress.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// runPoints computes point(ctx, idx[p]) for every position p as one
// engine.JobSweep, the positions pulled in order from a shared counter
// by at most eng.Workers() goroutines (engine.FanOut), so an expensive
// point delays only its own goroutine. done(p, v) runs on the caller's goroutine as
// each point finishes, in completion order. A failed point is skipped;
// the first failure is returned once every started point has finished.
// Once ctx is done no point starts, and the points never started fail
// with ctx's error.
func runPoints[T any](ctx context.Context, eng *engine.Engine, idx []int,
	point func(ctx context.Context, i int) (T, error), done func(p int, v T)) error {
	vals := make([]T, len(idx))
	errs := make([]error, len(idx))
	var first error
	if err := eng.FanOut(ctx, len(idx), func(p int) {
		v, err := eng.Submit(ctx, engine.JobSweep, func(jobCtx context.Context) (any, error) {
			return point(jobCtx, idx[p])
		})
		if err == nil {
			vals[p] = v.(T)
		}
		errs[p] = err
	}, func(p int) {
		if errs[p] != nil {
			if first == nil {
				first = fmt.Errorf("experiments: point %d: %w", idx[p], errs[p])
			}
			return
		}
		done(p, vals[p])
	}); err != nil && first == nil {
		first = fmt.Errorf("experiments: %w", err)
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
	if err := runPoints(context.Background(), eng, idx, point, func(p int, v T) { out[p] = v }); err != nil {
		return nil, err
	}
	return out, nil
}

// merger takes campaign point results in any completion order and
// streams them in index order through one StreamEmitter, reporting each
// landed result as Progress and, when RunOptions.Obs is set, as the
// lpdag_campaign_* series — so a long sweep is watchable from /metrics,
// on the CLI's -metrics-addr listener or on a node serving
// /v1/campaign. The gauges describe the current run on this process;
// the completed counter is cumulative across runs, which is what
// rate() wants.
type merger struct {
	results    []PointResult
	ready      []bool
	next       int // first index not yet emitted
	emitter    *StreamEmitter
	onProgress func(Progress)
	start      time.Time
	carried    int // results present before the run started
	got        int // results Put since

	planned, done, eta *obs.Gauge // nil without a registry
	completed          *obs.Counter
}

// newMerger starts the merge of the grid of a normalized campaign: it
// validates the results carried over in opts.Completed (the -resume
// mechanism) with checkResult, emits their contiguous prefix at once,
// and returns the indices still to compute, ascending.
func newMerger(cfg CampaignConfig, opts RunOptions) (*merger, []int, error) {
	n := cfg.gridSize()
	m := &merger{
		results:    make([]PointResult, n),
		ready:      make([]bool, n),
		emitter:    NewStreamEmitter(opts.JSONL, opts.CSV, methodNames(cfg.Methods)),
		onProgress: opts.OnProgress,
		start:      time.Now(),
	}
	for _, pr := range opts.Completed {
		if err := checkResult(cfg, pr); err != nil {
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
		if !m.ready[pr.Index] {
			m.results[pr.Index], m.ready[pr.Index] = pr, true
			m.carried++
		}
	}
	var missing []int
	for i := range n {
		if !m.ready[i] {
			missing = append(missing, i)
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
		m.planned.Set(float64(n))
		m.done.Set(float64(m.carried))
		m.eta.Set(0)
	}
	m.flush()
	return m, missing, nil
}

// Put records the result at index i and emits every result whose
// predecessors are all in.
func (m *merger) Put(i int, pr PointResult) {
	m.results[i], m.ready[i] = pr, true
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

func (m *merger) flush() {
	for m.next < len(m.results) && m.ready[m.next] {
		m.emitter.Emit(m.results[m.next])
		m.next++
	}
}

// Results returns the merged results in index order, or the first
// stream write error.
func (m *merger) Results() ([]PointResult, error) {
	if err := m.emitter.Err(); err != nil {
		return nil, err
	}
	return m.results, nil
}
