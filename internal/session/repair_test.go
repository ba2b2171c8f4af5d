package session

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/repair"
)

func repairChain(t *testing.T, name string, wcets []int64, d, p int64) *model.Task {
	t.Helper()
	var b dag.Builder
	prev := -1
	for _, c := range wcets {
		v := b.AddNode(c)
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	return &model.Task{Name: name, G: b.MustBuild(), Deadline: d, Period: p}
}

// repairFixture is the same pinned blocked set the repair package
// tests use: on two cores, lo's 200-long NPR blocks hi past its
// deadline.
func repairFixture(t *testing.T) (*Session, []*model.Task) {
	t.Helper()
	tasks := []*model.Task{
		repairChain(t, "hi", []int64{5, 5}, 25, 40),
		repairChain(t, "lo", []int64{200}, 900, 1000),
	}
	s, err := New(core.Options{Cores: 2, Method: core.LPILP}, tasks...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, tasks
}

func TestSessionRepairQuery(t *testing.T) {
	s, _ := repairFixture(t)
	ctx := context.Background()
	rep, err := s.Report(ctx)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep.Schedulable {
		t.Fatal("fixture must start unschedulable")
	}
	epoch := s.Epoch()

	res, err := s.Repair(ctx, repair.Config{}, false)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Fixed || len(res.Transforms) == 0 {
		t.Fatalf("want a fix, got %+v", res)
	}
	// A query must not commit: epoch unchanged, report still failing.
	if s.Epoch() != epoch {
		t.Fatalf("query bumped epoch %d -> %d", epoch, s.Epoch())
	}
	if rep2, err := s.Report(ctx); err != nil || rep2.Schedulable {
		t.Fatalf("query mutated the session: %v %v", rep2, err)
	}
}

func TestSessionRepairApply(t *testing.T) {
	s, _ := repairFixture(t)
	ctx := context.Background()
	epoch := s.Epoch()

	res, err := s.Repair(ctx, repair.Config{}, true)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Fixed {
		t.Fatalf("want a fix, got %+v", res)
	}
	if s.Epoch() != epoch+1 {
		t.Fatalf("apply must bump epoch once: %d -> %d", epoch, s.Epoch())
	}
	rep, err := s.Report(ctx)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !rep.Schedulable {
		t.Fatal("session not schedulable after applied repair")
	}
	// The memoized report must be bit-identical to a from-scratch
	// analysis of a clone of the committed set (the session plane's
	// invariant; the clone's graphs carry no memoized µ tables).
	an, err := core.New(s.Options())
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	fresh, err := an.Analyze(ctx, (&model.TaskSet{Tasks: s.Tasks()}).Clone())
	if err != nil {
		t.Fatalf("fresh analyze: %v", err)
	}
	if len(fresh.Tasks) != len(rep.Tasks) {
		t.Fatalf("task count drift: %d vs %d", len(fresh.Tasks), len(rep.Tasks))
	}
	for i := range fresh.Tasks {
		if fresh.Tasks[i] != rep.Tasks[i] {
			t.Fatalf("report drift at task %d:\nsession: %+v\nfresh:   %+v",
				i, rep.Tasks[i], fresh.Tasks[i])
		}
	}
}

func TestSessionRepairPartialNotCommitted(t *testing.T) {
	s, _ := repairFixture(t)
	ctx := context.Background()
	epoch := s.Epoch()
	// One candidate is just the base evaluation: no fix possible, so
	// even with apply set nothing must commit.
	res, err := s.Repair(ctx, repair.Config{MaxCandidates: 1}, true)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Fixed || !res.Stopped {
		t.Fatalf("want stopped partial result, got %+v", res)
	}
	if s.Epoch() != epoch {
		t.Fatalf("partial repair committed: epoch %d -> %d", epoch, s.Epoch())
	}
}

func TestSessionRepairEmpty(t *testing.T) {
	s, err := New(core.Options{Cores: 2, Method: core.LPILP})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Repair(context.Background(), repair.Config{}, false); err == nil {
		t.Fatal("repair on an empty session must error")
	}
}
