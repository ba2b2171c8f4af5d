// Package limits declares every bound a client can hit, each once with
// its reason, and checks them all with one function, Check. A task
// decoded from bytes (an HTTP body, a CLI file, a hand-off frame, a
// store record) obeys the shape bounds Tasks, Nodes, Edges and Name; a
// graph built in process does not, except a repair split, so that a
// session always restores from its own snapshot. DESIGN.md, "Limits",
// has the measurements behind the values.
package limits

import "fmt"

// Bound is one declared limit: the wire field it bounds and the
// inclusive range a value of it must lie in.
type Bound struct {
	Field    string
	Min, Max int64
}

var (
	// Cores: the analysis cost grows superlinearly in m; a 1 KB analyze
	// body with m = 200000000 once ran a node out of memory.
	Cores = Bound{"cores", 1, 64}
	// Batch and Count bound the task sets of one analyze request and of
	// one generate request, so a generated batch fits one analyze.
	Batch = Bound{"requests", 1, 1024}
	Count = Bound{"count", 1, Batch.Max}
	// Duration and Jobs bound one simulation (Jobs is the default).
	Duration = Bound{"duration", 1, 100_000_000}
	Jobs     = Bound{"max_jobs", 1, 10_000_000}
	// Utilization bounds one generated set.
	Utilization = Bound{"utilization", 0, 1024}
	// Tasks bounds one set, one session and one generated set: the
	// fixed point is O(n²) per pass. The standard scenarios make at
	// most 348 tasks per set.
	Tasks = Bound{"tasks", 0, 4096}
	// Nodes and Edges bound one task: the µ search of Equation (6)
	// takes 6–7 ms on 1024 unconnected unit nodes at m = 4 and 0.3 s on
	// 4096, and a built node costs ~100 bytes against 2 on the wire.
	// The standard scenarios make at most 221 nodes, 237 edges a task.
	Nodes = Bound{"nodes", 0, 1024}
	Edges = Bound{"edges", 0, 8192}
	// Name and SessionID bound the bytes of a task name and of a
	// session id (the registry issues 32-byte ids).
	Name      = Bound{"name", 0, 4096}
	SessionID = Bound{"id", 0, 256}
	// Points, Sets and Analyses bound one campaign request: its grid
	// points, checked before the grid is built, its sets per point, and
	// its points × sets × methods analyses.
	Points   = Bound{"points", 1, 2048}
	Sets     = Bound{"sets_per_point", 1, 200}
	Analyses = Bound{"analyses", 1, 250_000}
	// Candidates bounds one repair request's evaluations, and is
	// repair's default, which is therefore always admitted.
	Candidates = Bound{"max_candidates", 0, 4096}
)

// Error reports a value outside its bound.
type Error struct {
	Bound
	Value string
}

func (e *Error) Error() string {
	return fmt.Sprintf("invalid %s: %s (must be in [%d, %d])", e.Field, e.Value, e.Min, e.Max)
}

// Check returns nil when v lies in b, and otherwise an *Error naming
// b's field and v.
func Check[T int | int64 | uint64 | float64](b Bound, v T) error {
	if v >= T(b.Min) && v <= T(b.Max) {
		return nil
	}
	return &Error{Bound: b, Value: fmt.Sprint(v)}
}
