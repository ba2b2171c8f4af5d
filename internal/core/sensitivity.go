package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rta"
)

// CriticalScaling performs sensitivity analysis: it returns the largest
// factor α (in permille, e.g. 1250 = 1.25×) such that multiplying every
// node WCET of every task by α keeps the set schedulable under the
// analyzer's method, searching [0, maxPermille] by bisection. A result
// below 1000 means the set is not schedulable as given and must be
// slowed down; above 1000 it quantifies the WCET headroom.
//
// Scaled WCETs are ⌈C·α/1000⌉ (rounding up keeps the scaled system an
// over-approximation, so schedulability at α is a sound claim for every
// real factor ≤ α/1000). Schedulability is monotone in the WCETs, hence
// in α, which makes bisection exact at permille resolution. A factor
// whose scaled WCETs, volume or analysis terms leave int64
// (rta.ErrOverflow) counts as not schedulable: that is conservative,
// and monotone in α, so the bisection still answers.
func (a *Analyzer) CriticalScaling(ctx context.Context, ts *model.TaskSet, maxPermille int) (int, error) {
	if err := ts.Validate(); err != nil {
		return 0, err
	}
	if maxPermille < 1 {
		return 0, fmt.Errorf("core: invalid maxPermille: %d (must be ≥ 1)", maxPermille)
	}
	return BisectPermille(maxPermille, func(permille int) (bool, error) {
		return a.scaledSchedulable(ctx, ts, permille)
	})
}

// BisectPermille returns the largest permille p in [1, maxPermille]
// with ok(p), or 0 when ok(1) is false. ok must be monotone: true up to
// some permille and false beyond it. The search probes 1, then
// maxPermille, then bisects between them; the first error ends it.
// CriticalScaling and the session's per-task sensitivity both run it,
// each after checking its own arguments (maxPermille ≥ 1).
func BisectPermille(maxPermille int, ok func(permille int) (bool, error)) (int, error) {
	if yes, err := ok(1); err != nil || !yes {
		return 0, err // ok(1) is false, or its error
	}
	if yes, err := ok(maxPermille); err != nil {
		return 0, err
	} else if yes {
		return maxPermille, nil
	}
	lo, hi := 1, maxPermille // invariant: ok(lo), !ok(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		yes, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if yes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// ScaleTask returns a copy of the task with every node WCET multiplied
// by permille/1000 (permille ≥ 0), rounded up to keep the scaled system
// an over-approximation (and floored at 1: a zero-WCET node would
// change the graph's structure). The product is taken in 128 bits, so
// it never wraps; a task whose scaled WCETs or volume leave int64 is
// refused with rta.ErrOverflow. Shared by the whole-set bisection here
// and the per-task sensitivity queries of the session API.
func ScaleTask(t *model.Task, permille int) (*model.Task, error) {
	var b dag.Builder
	for v := 0; v < t.G.N(); v++ {
		// N = C·α + 999 in 128 bits; ⌊N/1000⌋ fits int64 exactly when
		// N < 1000·2^63 = 500·2^64.
		hi, lo := bits.Mul64(uint64(t.G.WCET(v)), uint64(permille))
		lo, carry := bits.Add64(lo, 999, 0)
		if hi += carry; hi >= 500 {
			return nil, fmt.Errorf("core: scaled WCET at node %d: %w", v, rta.ErrOverflow)
		}
		q, _ := bits.Div64(hi, lo, 1000)
		b.AddNode(max(int64(q), 1))
	}
	for _, e := range t.G.Edges() {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		// The copy has the source's valid structure and positive
		// WCETs, so only its volume can fail.
		return nil, fmt.Errorf("core: scaled volume: %w (%v)", rta.ErrOverflow, err)
	}
	return &model.Task{Name: t.Name, G: g, Deadline: t.Deadline, Period: t.Period}, nil
}

// scaledSchedulable analyzes a copy of ts with WCETs scaled by
// permille/1000, rounded up.
func (a *Analyzer) scaledSchedulable(ctx context.Context, ts *model.TaskSet, permille int) (bool, error) {
	scaled := &model.TaskSet{Tasks: make([]*model.Task, ts.N())}
	var err error
	for i, t := range ts.Tasks {
		if scaled.Tasks[i], err = ScaleTask(t, permille); err != nil {
			break
		}
	}
	ok := false
	if err == nil {
		ok, err = a.Schedulable(ctx, scaled)
	}
	if errors.Is(err, rta.ErrOverflow) {
		return false, nil // conservative, and monotone in permille
	}
	return ok, err
}
