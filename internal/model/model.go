// Package model defines the sporadic DAG task model of Serrano et al.
// (DATE 2016): a task set T = {τ1, …, τn} of DAGs with constrained
// deadlines, ordered by decreasing unique fixed priority, scheduled by
// global fixed-priority with limited preemptions on m identical cores.
package model

import (
	"fmt"
	"sort"

	"repro/internal/dag"
)

// Task is one sporadic DAG task τ = (G, D, T). Nodes of G are
// non-preemptive regions; D is the constrained relative deadline
// (D ≤ T) and T the minimum inter-arrival time.
type Task struct {
	Name     string
	G        *dag.Graph
	Deadline int64
	Period   int64
}

// Validate reports an error if the task parameters are inconsistent:
// missing graph, non-positive deadline or period, or D > T.
func (t *Task) Validate() error {
	if t.G == nil {
		return fmt.Errorf("model: task %q has no graph", t.Name)
	}
	if t.Period <= 0 {
		return fmt.Errorf("model: task %q has non-positive period %d", t.Name, t.Period)
	}
	if t.Deadline <= 0 {
		return fmt.Errorf("model: task %q has non-positive deadline %d", t.Name, t.Deadline)
	}
	if t.Deadline > t.Period {
		return fmt.Errorf("model: task %q has D %d > T %d (constrained deadlines required)",
			t.Name, t.Deadline, t.Period)
	}
	return nil
}

// Utilization returns vol(G)/T as a float.
func (t *Task) Utilization() float64 {
	return float64(t.G.Volume()) / float64(t.Period)
}

// Clone returns a deep copy of the task.
func (t *Task) Clone() *Task {
	return &Task{Name: t.Name, G: t.G.Clone(), Deadline: t.Deadline, Period: t.Period}
}

// TaskSet is a priority-ordered task set: Tasks[0] has the highest
// priority (τ1 in the paper), Tasks[len-1] the lowest.
type TaskSet struct {
	Tasks []*Task
}

// NewTaskSet validates the tasks and returns them as a set in the given
// priority order.
func NewTaskSet(tasks ...*Task) (*TaskSet, error) {
	ts := &TaskSet{Tasks: tasks}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// Validate checks every task and the set-level invariants.
func (ts *TaskSet) Validate() error {
	if len(ts.Tasks) == 0 {
		return fmt.Errorf("model: empty task set")
	}
	for _, t := range ts.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of tasks.
func (ts *TaskSet) N() int { return len(ts.Tasks) }

// Utilization returns the total utilization U = Σ vol_i / T_i.
func (ts *TaskSet) Utilization() float64 {
	u := 0.0
	for _, t := range ts.Tasks {
		u += t.Utilization()
	}
	return u
}

// Clone returns a deep copy of the set.
func (ts *TaskSet) Clone() *TaskSet {
	c := &TaskSet{Tasks: make([]*Task, len(ts.Tasks))}
	for i, t := range ts.Tasks {
		c.Tasks[i] = t.Clone()
	}
	return c
}

// SortDeadlineMonotonic reorders the tasks by non-decreasing deadline
// (deadline-monotonic priority assignment; ties broken by period, then by
// name for determinism). The paper does not state its priority
// assignment; DM is the conventional choice for global-FP evaluations and
// coincides with rate-monotonic on the implicit-deadline sets of the
// evaluation.
func (ts *TaskSet) SortDeadlineMonotonic() {
	sort.SliceStable(ts.Tasks, func(i, j int) bool {
		a, b := ts.Tasks[i], ts.Tasks[j]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		return a.Name < b.Name
	})
}
