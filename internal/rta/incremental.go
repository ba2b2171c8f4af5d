package rta

// The one analysis routine, and the incremental re-analysis it gives
// stateful sessions (internal/session).
//
// Every analysis runs analyze: one bottom-up scan that pushes each
// lower-priority graph into the suffix aggregator once and records the
// Δ pair of every suffix, then the fixed points top-down. AnalyzeInPlace
// runs it with no baseline and saves nothing; AnalyzeIncremental runs it
// against the previous call's baseline and saves this call's.
//
// The analysis is priority-suffix structured: task k's result depends
// only on (a) the task itself, (b) the Δ^m/Δ^{m-1} aggregate of the
// suffix below it, and (c) the multiset of (response bound, volume,
// period, verdict) of the tasks above it — the interference and
// preemption-count sums of Equation (4) are order-independent folds
// over hp(k). AnalyzeIncremental exploits both directions across calls:
//
//   - Blocking: the scan runs bottom-up, so an edit at priority k
//     leaves the aggregates of the unchanged tail intact. A checkpoint
//     of the aggregator is saved after every push
//     (blocking.SuffixCheckpoint, O(m) each); the next call restores
//     the checkpoint of the longest unchanged tail and replays only the
//     pushes above it. AnalyzeInPlace saves no checkpoints and no
//     snapshot: on the cold path they cost over a quarter of the whole
//     analysis (BenchmarkAnalyzePoint).
//   - Fixed points: a task's stored TaskResult is reused verbatim when
//     its identity, its Δ pair, and the higher-priority state above it
//     are unchanged. The fixed point reads hp(k) only as the positional
//     (volume, period, response bound) triples plus the running verdict
//     — task identity never enters Equation (4) — so the hp-state
//     comparison is on those values, and an edit whose numeric effect
//     dies out (a reorder of equal-valued tasks, a move that the ⌊·/m⌋
//     floors absorb) stops invalidating anything below the point where
//     the values re-converge. Candidates are tracked for the common
//     positional prefix and, for pure reorders (same task multiset,
//     which the order-independent interference sums cannot observe),
//     for the common tail as well.
//
// Reused entries are copies of results solveTask produced under
// bit-identical inputs, so the incremental result equals the
// from-scratch AnalyzeInPlace result exactly — asserted field-for-field
// by TestAnalyzeIncrementalMatchesFromScratch and the session-level
// quickcheck in internal/session.
//
// Tasks are treated as immutable and identified by pointer: a content
// edit must arrive as a new *model.Task (the session layer guarantees
// this, and also that a list never holds the same pointer twice).

import (
	"context"
	"time"

	"repro/internal/blocking"
	"repro/internal/model"
)

// incState is the cross-call memory of AnalyzeIncremental: the last
// analyzed list, its per-position blocking aggregates and results, and
// one aggregator checkpoint per push.
type incState struct {
	valid bool

	tasks   []*model.Task
	in      []blocking.Interference // Δ pair per position (zero for FP-ideal)
	tr      []TaskResult
	rm      []int64
	vols    []int64 // volume per position (hp-state comparison)
	periods []int64 // period per position (hp-state comparison)

	// checks[c] is the aggregator state after pushing the c
	// lowest-priority graphs (checks[0] = empty). Maintained only for
	// the limited-preemptive methods.
	checks []blocking.SuffixCheckpoint
}

// AnalyzeIncremental runs the analysis like AnalyzeInPlace but reuses
// everything the previous call on this analyzer already computed for
// the unchanged parts of the priority ordering: suffix blocking
// aggregates resume from the checkpoint of the longest unchanged tail,
// and per-task fixed points are skipped outright when their inputs are
// bit-identical to the previous run. The returned Result is the
// analyzer's internal one, valid until the next call, and is exactly
// what AnalyzeInPlace would return for the same set.
//
// The first call (and any call after Reconfigure) is a plain full
// analysis that seeds the state. A context error invalidates the state;
// the next call recovers by analyzing from scratch.
func (a *Analyzer) AnalyzeIncremental(ctx context.Context, ts *model.TaskSet) (*Result, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	a.cfg.Trace.RecordIncremental()
	if a.inc == nil {
		a.inc = &incState{}
	}
	return a.analyze(ctx, ts, a.inc)
}

// analyze is the one analysis routine. With inc nil it analyzes from
// scratch and saves nothing (AnalyzeInPlace); otherwise it reuses what
// inc holds when inc is valid, then saves this run into inc
// (AnalyzeIncremental). ts has been validated.
func (a *Analyzer) analyze(ctx context.Context, ts *model.TaskSet, inc *incState) (*Result, error) {
	cfg := a.cfg
	n := ts.N()
	a.ensure(n)
	res := &a.res
	res.Schedulable, res.Method, res.M = true, cfg.Method, cfg.M
	for i, t := range ts.Tasks {
		a.vols[i], a.longs[i] = t.G.Volume(), t.G.LongestPath()
		a.graphs[i] = t.G
	}
	valid := inc != nil && inc.valid
	if inc != nil {
		inc.valid = false // until this run's snapshot below is complete
	}

	// Diff against the previous list: common positional prefix p, raw
	// common tail t (drives checkpoint reuse), and the prefix-disjoint
	// suffix s (drives result reuse; trimmed so the two never overlap).
	p, tail, prevN := 0, 0, 0
	if valid {
		prevN = len(inc.tasks)
		maxC := min(n, prevN)
		for p < maxC && ts.Tasks[p] == inc.tasks[p] {
			p++
		}
		for tail < maxC && ts.Tasks[n-1-tail] == inc.tasks[prevN-1-tail] {
			tail++
		}
	}
	s := min(tail, min(n, prevN)-p)
	// middleSetSame: the changed middle holds the same task pointers in
	// a different order — a pure reorder. The order-independent hp sums
	// cannot observe it, so tail results stay reusable.
	middleSetSame := valid && prevN == n && sameTaskSet(ts.Tasks[p:n-s], inc.tasks[p:n-s])

	// Blocking: one bottom-up scan. Incrementally, it restores the
	// aggregator to the checkpoint of the longest unchanged tail and
	// replays only the pushes above it, re-saving checkpoints as it
	// climbs; tail aggregate values are copied from the previous run
	// instead of being recomputed. The tail is measured on GRAPH
	// identity, not task identity: the aggregates see only graphs, so
	// renaming a task or swapping two instances of the same program
	// invalidates nothing here.
	if cfg.Method != FPIdeal {
		var t0 time.Time
		if inc != nil && cfg.Trace != nil {
			t0 = time.Now()
		}
		c0 := 0
		if valid && len(inc.checks) > 0 {
			tailG := 0
			for maxC := min(n, prevN); tailG < maxC &&
				ts.Tasks[n-1-tailG].G == inc.tasks[prevN-1-tailG].G; tailG++ {
			}
			c0 = min(tailG, n-1, len(inc.checks)-1)
		}
		if inc != nil {
			if cap(inc.checks) < n {
				grown := make([]blocking.SuffixCheckpoint, n)
				copy(grown, inc.checks)
				inc.checks = grown
			}
			inc.checks = inc.checks[:n]
			if c0 == 0 {
				a.agg.Save(&inc.checks[0]) // empty state (ensure reset the agg)
			} else {
				a.agg.Restore(&inc.checks[c0])
			}
		}
		for j := n - 2; j >= n-c0; j-- {
			a.suffix[j] = inc.in[prevN-(n-j)]
		}
		a.suffix[n-1-c0] = a.agg.Interference()
		for c := c0 + 1; c <= n-1; c++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a.push(a.graphs[n-c])
			if inc != nil {
				a.agg.Save(&inc.checks[c])
			}
			a.suffix[n-c-1] = a.agg.Interference()
		}
		if inc != nil && cfg.Trace != nil {
			cfg.Trace.SuffixRestore.Since(t0)
		}
	} else {
		clear(a.suffix[:n]) // FP-ideal: no blocking; keep Δ comparisons exact
	}

	// Fixed points, top-down. hpStateSame holds while every position
	// processed so far carries the same (volume, period, response
	// bound, verdict) as the previous run — the only higher-priority
	// state a lower task's fixed point reads (task identity never
	// enters Equation (4)).
	hpStateSame := valid
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		task := ts.Tasks[k]
		tr := &res.Tasks[k]

		// Reuse eligibility: same task at the same effective position
		// (prefix, or tail of a pure reorder), clean hp state, a still-
		// schedulable run, and an unchanged Δ pair. middleSetSame
		// implies prevN == n, so the mapped previous index is k in both
		// regions.
		reuse := res.Schedulable && hpStateSame &&
			(k < p || (k >= n-s && middleSetSame)) &&
			inc.tr[k].Analyzed &&
			inc.in[k] == a.suffix[k]
		if reuse {
			// res.Tasks persists across calls, so for a position that
			// was also reused (or identical) last time the value is
			// already in place — comparing first keeps the steady-state
			// loop free of pointer-bearing writes (and their barriers).
			if *tr != inc.tr[k] {
				*tr = inc.tr[k]
			}
			a.rm[k] = tr.ResponseTimeM
		} else {
			*tr = TaskResult{Name: task.Name}
			if !res.Schedulable {
				// A higher-priority task already failed; W_i would need
				// its (nonexistent) response bound.
				tr.Analyzed = false
				continue
			}
			tr.Analyzed = true
			if cfg.Method != FPIdeal {
				in := a.suffix[k]
				tr.DeltaM, tr.DeltaM1 = in.DeltaM, in.DeltaM1
			}
			if err := a.solveTask(ctx, ts, k, tr); err != nil {
				return nil, err
			}
			// The hp state stays clean as long as this position carries
			// the exact values a lower task's fixed point would have
			// read last time — regardless of which task produced them.
			if hpStateSame {
				if k >= prevN || !inc.tr[k].Analyzed ||
					inc.vols[k] != a.vols[k] || inc.periods[k] != task.Period ||
					inc.rm[k] != a.rm[k] || inc.tr[k].Schedulable != tr.Schedulable {
					hpStateSame = false
				}
			}
		}
		if !tr.Schedulable {
			res.Schedulable = false
		}
	}
	if inc == nil {
		return res, nil
	}

	// Snapshot this run as the next call's baseline. Entries the run
	// reused are already bit-identical in the snapshot (they were copied
	// out of it), so only changed positions are written back — the
	// write-barrier traffic of recopying pointer-bearing TaskResults
	// every call is what this avoids.
	if len(inc.tasks) != n {
		inc.tasks = resize(inc.tasks, n)
		inc.in = resize(inc.in, n)
		inc.tr = resize(inc.tr, n)
		inc.rm = resize(inc.rm, n)
		inc.vols = resize(inc.vols, n)
		inc.periods = resize(inc.periods, n)
		// Shrinking must not pin the departed tasks (or their names)
		// through the backing arrays.
		clear(inc.tasks[n:cap(inc.tasks)])
		clear(inc.tr[n:cap(inc.tr)])
	}
	for k := 0; k < n; k++ {
		t := ts.Tasks[k]
		if inc.tasks[k] == t && inc.tr[k] == res.Tasks[k] && inc.in[k] == a.suffix[k] &&
			inc.rm[k] == a.rm[k] {
			continue
		}
		inc.tasks[k] = t
		inc.in[k] = a.suffix[k]
		inc.tr[k] = res.Tasks[k]
		inc.rm[k] = a.rm[k]
		inc.vols[k] = a.vols[k]
		inc.periods[k] = t.Period
	}
	inc.valid = true
	return res, nil
}

// resize returns s with length n, reusing its backing array when large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sameTaskSet reports whether the two small slices hold the same
// multiset of task pointers. Lists beyond 64 entries conservatively
// report false (no reuse, still correct).
func sameTaskSet(a, b []*model.Task) bool {
	if len(a) != len(b) || len(a) > 64 {
		return false
	}
	var used uint64
outer:
	for _, t := range a {
		for j, u := range b {
			if t == u && used&(1<<uint(j)) == 0 {
				used |= 1 << uint(j)
				continue outer
			}
		}
		return false
	}
	return true
}
