package model

// The task-set interchange format:
//
//	{"tasks": [{"name": "t", "wcet": [1, 2], "edges": [[0, 1]], "deadline": 9, "period": 9}, ...]}
//
// Both directions are hand-rolled on internal/jsonwire. Decoding reads a
// set in one pass, building each task's graph as soon as its object
// closes; it accepts exactly the documents encoding/json accepted into
// the former {name, wcet []int64, edges [][2]int, deadline, period}
// struct form, with the same values (FuzzTaskSetJSON pins this against
// that decoder). Encoding appends straight from the graphs, byte-identical
// to the former json.Marshal and json.MarshalIndent output.

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/jsonwire"
	"repro/internal/limits"
)

// MarshalJSON encodes the task as {name, wcet, edges, deadline, period}.
func (t *Task) MarshalJSON() ([]byte, error) {
	return appendTaskJSON(nil, t, &compactTask), nil
}

// UnmarshalJSON decodes and validates a task.
func (t *Task) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	sc := scratchPool.Get().(*taskScratch)
	defer scratchPool.Put(sc)
	task, err := sc.decode(d)
	if end := d.End(); end != nil {
		return end
	}
	if err != nil {
		return err
	}
	*t = *task
	return nil
}

// MarshalJSON encodes the set with tasks in priority order, indented.
func (ts *TaskSet) MarshalJSON() ([]byte, error) {
	if len(ts.Tasks) == 0 {
		return []byte("{\n  \"tasks\": []\n}"), nil
	}
	buf := append(make([]byte, 0, 256*len(ts.Tasks)), "{\n  \"tasks\": ["...)
	for i, t := range ts.Tasks {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n    "...)
		buf = appendTaskJSON(buf, t, &setTask)
	}
	return append(buf, "\n  ]\n}"...), nil
}

// UnmarshalJSON decodes and validates a full task set.
func (ts *TaskSet) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDec(data)
	set, err := DecodeTaskSet(d)
	if end := d.End(); end != nil {
		return end
	}
	if err != nil {
		return err
	}
	ts.Tasks = set.Tasks
	return nil
}

// DecodeTaskSet reads one task-set value at d's cursor, in one pass,
// and returns the validated set. A malformed document latches a syntax
// error in d (returned here too, and by d.Err). Any other error — a
// value of the wrong kind, a set or task past its limits bound, an
// invalid graph, a failed validation — is returned with the set's value
// fully consumed, so a caller decoding a larger document can record it
// and carry on. Tasks past limits.Tasks are counted, not decoded.
func DecodeTaskSet(d *jsonwire.Dec) (*TaskSet, error) {
	ts := new(TaskSet)
	sc := scratchPool.Get().(*taskScratch)
	defer scratchPool.Put(sc)
	var (
		setErr  error // the set's own shape is wrong: sticky, as in encoding/json
		taskErr error // the first failing task of the latest "tasks" array
		ntasks  int   // the length of the latest "tasks" array
	)
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
	case jsonwire.Object:
		d.Object(func(key []byte) {
			if !jsonwire.KeyIs(key, "tasks") {
				d.Skip()
				return
			}
			// A repeated "tasks" key replaces the earlier list, errors
			// included: encoding/json only decoded the tasks of the
			// last one.
			switch d.Peek() {
			case jsonwire.Null:
				d.Skip()
				ts.Tasks, taskErr, ntasks = nil, nil, 0
			case jsonwire.Array:
				ts.Tasks, taskErr, ntasks = nil, nil, 0
				d.Array(func(i int) {
					ntasks = i + 1
					if taskErr != nil || i >= int(limits.Tasks.Max) {
						d.Skip()
						return
					}
					t, err := sc.decode(d)
					if err != nil {
						taskErr = err
						return
					}
					ts.Tasks = append(ts.Tasks, t)
				})
			default:
				if err := d.Mismatch("tasks", "[]Task"); setErr == nil {
					setErr = err
				}
			}
		})
	default:
		setErr = d.Mismatch("task set", "TaskSet")
	}
	switch {
	case d.Err() != nil:
		return nil, d.Err()
	case setErr != nil:
		return nil, setErr
	}
	if err := limits.Check(limits.Tasks, ntasks); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if taskErr != nil {
		return nil, taskErr
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// taskScratch is the reusable state of decoding tasks: the node and
// edge lists as read, and the graph builder.
type taskScratch struct {
	wcet  []int64
	edges [][2]int
	b     dag.Builder
}

var scratchPool = sync.Pool{New: func() any { return new(taskScratch) }}

// decode reads one task value (an object, or null for an empty one) and
// builds it. The value is always consumed whole: after the first error
// the rest of the object is only validated. A task past a limits shape
// bound fails before its graph is built, and list elements past the
// bound are counted, not stored.
func (sc *taskScratch) decode(d *jsonwire.Dec) (*Task, error) {
	t := new(Task)
	// hw* count the list elements written while decoding this task, n*
	// the elements of the latest list; see readList.
	wcet, edges := sc.wcet[:0], sc.edges[:0]
	hwWCET, hwEdges, nWCET, nEdges := 0, 0, 0, 0
	var err error
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
	case jsonwire.Object:
		d.Object(func(key []byte) {
			switch {
			case err != nil:
				d.Skip()
			case jsonwire.KeyIs(key, "name"):
				err = d.Str(&t.Name, "name")
			case jsonwire.KeyIs(key, "wcet"):
				wcet, hwWCET, nWCET, err = readList(d, wcet, hwWCET, limits.Nodes, "wcet", readWCET)
			case jsonwire.KeyIs(key, "edges"):
				edges, hwEdges, nEdges, err = readList(d, edges, hwEdges, limits.Edges, "edges", readEdge)
			case jsonwire.KeyIs(key, "deadline"):
				err = d.Int64(&t.Deadline, "deadline")
			case jsonwire.KeyIs(key, "period"):
				err = d.Int64(&t.Period, "period")
			default:
				d.Skip()
			}
		})
	default:
		err = d.Mismatch("task", "Task")
	}
	sc.wcet, sc.edges = wcet, edges
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err != nil {
		return nil, err
	}
	if err := errors.Join(limits.Check(limits.Name, len(t.Name)),
		limits.Check(limits.Nodes, nWCET), limits.Check(limits.Edges, nEdges)); err != nil {
		return nil, fmt.Errorf("model: task %q: %w", t.Name, err)
	}
	sc.b.Reset()
	for _, c := range wcet {
		sc.b.AddNode(c)
	}
	for _, e := range edges {
		sc.b.AddEdge(e[0], e[1])
	}
	g, err := sc.b.Build()
	if err != nil {
		return nil, fmt.Errorf("model: task %q: %w", t.Name, err)
	}
	t.G = g
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// readList reads a JSON array (or null) into s the way encoding/json
// fills a slice field, which matters only when a task repeats a key:
// elements decode into the existing ones, null elements leave them
// unchanged, and regrowing the slice within its capacity exposes the
// stale elements of the earlier value. s reuses scratch memory, so hw —
// the count of backing elements written while decoding this task —
// tells stale elements (below hw) from ones encoding/json would hand
// out zeroed. Elements past bound.Max are counted but not stored: the
// returned n is the array's length, which the caller checks once the
// task's last repeated key has been read.
func readList[E any](d *jsonwire.Dec, s []E, hw int, bound limits.Bound, field string, elem func(*jsonwire.Dec, *E) error) ([]E, int, int, error) {
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
		return s[:0], 0, 0, nil
	case jsonwire.Array:
	default:
		return s, hw, len(s), d.Mismatch(field, "array")
	}
	var err error
	n := 0
	d.Array(func(i int) {
		n = i + 1
		if err != nil || i >= int(bound.Max) {
			d.Skip()
			return
		}
		if i == len(s) {
			var zero E
			if i < cap(s) {
				s = s[:i+1]
			} else {
				s = append(s, zero)
			}
			if i >= hw {
				s[i], hw = zero, i+1
			}
		}
		err = elem(d, &s[i])
	})
	if n < len(s) {
		s = s[:n]
	}
	if n == 0 {
		hw = 0 // encoding/json allocates a fresh empty slice for []
	}
	return s, hw, n, err
}

func readWCET(d *jsonwire.Dec, c *int64) error { return d.Int64(c, "wcet") }

// readEdge reads one [u, v] pair into e as encoding/json fills a [2]int:
// elements past the second are skipped, missing ones zeroed, and null
// leaves e unchanged.
func readEdge(d *jsonwire.Dec, e *[2]int) error {
	switch d.Peek() {
	case jsonwire.Null:
		d.Skip()
		return nil
	case jsonwire.Array:
	default:
		return d.Mismatch("edges", "[2]int")
	}
	var err error
	n := 0
	d.Array(func(j int) {
		n = j + 1
		if j < 2 && err == nil {
			err = d.Int(&e[j], "edges")
		} else {
			d.Skip()
		}
	})
	for j := n; j < 2; j++ {
		e[j] = 0
	}
	return err
}

// taskLayout spells out where json.MarshalIndent(set, "", "  ") puts
// whitespace inside a task nested in a set, or json.Marshal's none.
type taskLayout struct {
	colon           string // after a key
	field, fieldEnd string // before each field / before the closing brace
	item, itemEnd   string // before each wcet or edges element / their closing bracket
	pair, pairEnd   string // before each edge endpoint / the pair's closing bracket
}

var (
	compactTask = taskLayout{colon: ":"}
	setTask     = taskLayout{
		colon: ": ",
		field: "\n      ", fieldEnd: "\n    ",
		item: "\n        ", itemEnd: "\n      ",
		pair: "\n          ", pairEnd: "\n        ",
	}
)

// appendTaskJSON appends t as {name, wcet, edges, deadline, period} in
// layout l, edges in (source, target) order.
func appendTaskJSON(buf []byte, t *Task, l *taskLayout) []byte {
	g := t.G
	buf = append(buf, '{')
	buf = append(buf, l.field...)
	buf = append(buf, `"name"`...)
	buf = append(buf, l.colon...)
	buf = jsonwire.AppendString(buf, t.Name)
	buf = append(buf, ',')
	buf = append(buf, l.field...)
	buf = append(buf, `"wcet"`...)
	buf = append(buf, l.colon...)
	if g.N() == 0 {
		buf = append(buf, "null"...) // json.Marshal of the nil WCETs() slice
	} else {
		buf = append(buf, '[')
		for v := 0; v < g.N(); v++ {
			if v > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, l.item...)
			buf = strconv.AppendInt(buf, g.WCET(v), 10)
		}
		buf = append(buf, l.itemEnd...)
		buf = append(buf, ']')
	}
	buf = append(buf, ',')
	buf = append(buf, l.field...)
	buf = append(buf, `"edges"`...)
	buf = append(buf, l.colon...)
	buf = append(buf, '[')
	first := true
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Successors(u) {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, l.item...)
			buf = append(buf, '[')
			buf = append(buf, l.pair...)
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ',')
			buf = append(buf, l.pair...)
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, l.pairEnd...)
			buf = append(buf, ']')
		}
	}
	if !first {
		buf = append(buf, l.itemEnd...)
	}
	buf = append(buf, ']')
	buf = append(buf, ',')
	buf = append(buf, l.field...)
	buf = append(buf, `"deadline"`...)
	buf = append(buf, l.colon...)
	buf = strconv.AppendInt(buf, t.Deadline, 10)
	buf = append(buf, ',')
	buf = append(buf, l.field...)
	buf = append(buf, `"period"`...)
	buf = append(buf, l.colon...)
	buf = strconv.AppendInt(buf, t.Period, 10)
	buf = append(buf, l.fieldEnd...)
	return append(buf, '}')
}

// WriteJSON writes the set to w in the interchange format.
func (ts *TaskSet) WriteJSON(w io.Writer) error {
	data, err := ts.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON reads a task set from r.
func ReadJSON(r io.Reader) (*TaskSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ts := new(TaskSet)
	if err := ts.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return ts, nil
}
