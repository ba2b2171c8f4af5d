package session

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// Edit operations, the wire spellings of the /v1/sessions/{id}/edits
// endpoint and the lpdag-analyze REPL.
const (
	OpAdd         = "add"          // insert Task at priority At (-1 = lowest)
	OpRemove      = "remove"       // remove the task at Index
	OpSetPriority = "set_priority" // move the task at From to To
	OpSetCores    = "set_cores"    // change the core count to Cores
	OpSetMethod   = "set_method"   // change the analysis variant to Method
)

// Edit is one session edit; which fields matter depends on Op (see the
// Op constants). For remove and set_priority the task may be addressed
// by Name instead of Index/From; names are resolved against the state
// the batch has reached, so an edit can reference a task an earlier
// edit in the same batch added.
type Edit struct {
	Op     string
	Task   *model.Task
	At     int
	Index  int
	Name   string
	From   int
	To     int
	Cores  int
	Method core.Method
}

// Apply applies the edits in order, atomically: on the first failing
// edit the session is rolled back to its pre-Apply state and the error
// (naming the failing edit's position) is returned. Like the individual
// edit methods it does not analyze; the next query does.
func (s *Session) Apply(edits []Edit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prevTasks := append([]*model.Task(nil), s.tasks...)
	prevAn := s.an
	resolve := func(name string, idx int) (int, error) {
		if name == "" {
			return idx, nil
		}
		if i := s.indexLocked(name); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("session: unknown task name %q", name)
	}
	for i, e := range edits {
		var err error
		switch e.Op {
		case OpAdd:
			err = s.addLocked(e.Task, e.At)
		case OpRemove:
			var idx int
			if idx, err = resolve(e.Name, e.Index); err == nil {
				_, err = s.removeLocked(idx)
			}
		case OpSetPriority:
			var from int
			if from, err = resolve(e.Name, e.From); err == nil {
				err = s.setPriorityLocked(from, e.To)
			}
		case OpSetCores:
			opts := s.an.Options()
			opts.Cores = e.Cores
			err = s.setOptionsLocked(opts)
		case OpSetMethod:
			opts := s.an.Options()
			opts.Method = e.Method
			err = s.setOptionsLocked(opts)
		default:
			err = fmt.Errorf("session: invalid Edit.Op: %q (want add | remove | set_priority | set_cores | set_method)", e.Op)
		}
		if err != nil {
			s.tasks = prevTasks
			s.an = prevAn
			s.rep = nil
			return fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return nil
}
