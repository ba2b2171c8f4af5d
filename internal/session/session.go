// Package session implements long-lived analysis sessions: the stateful
// what-if / admission-control surface of the lpdag API.
//
// A Session holds a priority-ordered task set plus analysis options and
// answers queries against them: the current Report, admission probes
// (TryAdmit — analyze-without-commit), and per-task sensitivity. Edits
// (AddTask, RemoveTask, SetPriority, SetCores, SetMethod) mutate the
// held set; the next query analyzes it from scratch through a
// core.Analyzer, which draws a warm rta scratch state from the same
// process-wide pool that one-shot analyses and campaigns use. A report
// is therefore the stateless lpdag.Analyze result of the same set by
// construction (quick-checked by TestSessionEditSequenceEquivalence).
//
// A Session serializes its operations internally and is safe for
// concurrent use. Its state is the task list, the options and the
// memoized committed report; the µ tables an analysis needs are
// memoized on the task graphs, so the analysis after an edit solves
// tables only for graphs the edit introduced. The engine's
// SessionRegistry adds bounded count and TTL eviction for the serving
// path.
package session

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// Session is a long-lived, editable task set. Create with New; a zero
// Session is not usable. Tasks handed to a session are treated as
// immutable — edit by removing and re-adding, never by mutating a *Task
// in place.
type Session struct {
	mu    sync.Mutex
	an    *core.Analyzer // holds the options
	tasks []*model.Task
	rep   *core.Report // memoized committed report; nil when stale

	// epoch counts committed mutations (task edits and option changes),
	// starting at 1 so that 0 can mean "never" for consumers tracking
	// the last epoch they saw (e.g. the durable store). Queries never
	// bump it; a rolled-back Apply may skip values but the counter stays
	// monotonic, which is all snapshot staleness comparison needs.
	epoch uint64
}

// New validates the options and initial tasks (highest priority first;
// an empty initial set is allowed — admission control often starts from
// nothing) and returns a ready Session.
func New(opts core.Options, tasks ...*model.Task) (*Session, error) {
	an, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	s := &Session{an: an, epoch: 1}
	for _, t := range tasks {
		if err := s.addLocked(t, len(s.tasks)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Epoch returns the monotonic edit epoch: it advances on every
// committed mutation (task edits and option changes) and never on
// queries, so two snapshots of the same session are ordered by it.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Options returns the session's current analysis options.
func (s *Session) Options() core.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.an.Options()
}

// Len returns the number of tasks held.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// Tasks returns a copy of the held priority ordering.
func (s *Session) Tasks() []*model.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*model.Task(nil), s.tasks...)
}

// TaskIndex returns the priority index of the named task, -1 when
// absent. Session task names are unique (AddTask enforces it).
func (s *Session) TaskIndex(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.indexLocked(name)
}

func (s *Session) indexLocked(name string) int {
	for i, t := range s.tasks {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// addLocked validates and inserts t at priority index at.
func (s *Session) addLocked(t *model.Task, at int) error {
	if t == nil {
		return fmt.Errorf("session: invalid task: nil")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if at == -1 {
		at = len(s.tasks)
	}
	if at < 0 || at > len(s.tasks) {
		return fmt.Errorf("session: invalid at: %d (must be in [0, %d] or -1)", at, len(s.tasks))
	}
	for _, u := range s.tasks {
		if u == t {
			return fmt.Errorf("session: invalid task: %q is already in the session (tasks are immutable; add a fresh copy)", t.Name)
		}
		if u.Name == t.Name {
			return fmt.Errorf("session: invalid task: duplicate name %q", t.Name)
		}
	}
	s.tasks = append(s.tasks, nil)
	copy(s.tasks[at+1:], s.tasks[at:])
	s.tasks[at] = t
	s.rep = nil
	s.epoch++
	return nil
}

// AddTask inserts t at priority index at (0 = highest; -1 or len =
// lowest). The edit does not analyze; the next query does.
func (s *Session) AddTask(t *model.Task, at int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(t, at)
}

// RemoveTask removes and returns the task at priority index i.
func (s *Session) RemoveTask(i int) (*model.Task, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(i)
}

func (s *Session) removeLocked(i int) (*model.Task, error) {
	if i < 0 || i >= len(s.tasks) {
		return nil, fmt.Errorf("session: invalid index: %d (must be in [0, %d])", i, len(s.tasks)-1)
	}
	t := s.tasks[i]
	s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
	s.rep = nil
	s.epoch++
	return t, nil
}

// SetPriority moves the task at index from to index to (its position in
// the resulting ordering), shifting the tasks in between.
func (s *Session) SetPriority(from, to int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setPriorityLocked(from, to)
}

func (s *Session) setPriorityLocked(from, to int) error {
	n := len(s.tasks)
	if from < 0 || from >= n {
		return fmt.Errorf("session: invalid from: %d (must be in [0, %d])", from, n-1)
	}
	if to < 0 || to >= n {
		return fmt.Errorf("session: invalid to: %d (must be in [0, %d])", to, n-1)
	}
	if from == to {
		return nil
	}
	t := s.tasks[from]
	s.tasks = append(s.tasks[:from], s.tasks[from+1:]...)
	s.tasks = append(s.tasks, nil)
	copy(s.tasks[to+1:], s.tasks[to:])
	s.tasks[to] = t
	s.rep = nil
	s.epoch++
	return nil
}

// SetCores changes the core count m.
func (s *Session) SetCores(m int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.an.Options()
	opts.Cores = m
	return s.setOptionsLocked(opts)
}

// SetMethod changes the analysis variant.
func (s *Session) SetMethod(method core.Method) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.an.Options()
	opts.Method = method
	return s.setOptionsLocked(opts)
}

// setOptionsLocked validates and installs new options.
func (s *Session) setOptionsLocked(opts core.Options) error {
	an, err := core.New(opts)
	if err != nil {
		return err
	}
	s.an = an
	s.rep = nil
	s.epoch++
	return nil
}

// Report returns the analysis of the session's current task set,
// computing it when an edit made the memoized one stale.
// The returned Report is shared; treat it as read-only.
func (s *Session) Report(ctx context.Context) (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rep != nil {
		return s.rep, nil
	}
	rep, err := s.analyzeLocked(ctx, s.tasks)
	if err != nil {
		return nil, err
	}
	s.rep = rep
	return rep, nil
}

// TryAdmit answers the admission-control question "could this task be
// admitted at priority at?" without committing anything: it analyzes
// the hypothetical set and returns its report (Report.Schedulable is
// the admission verdict). at follows AddTask's convention (-1 =
// lowest). The session's committed set and its memoized report are
// unchanged.
func (s *Session) TryAdmit(ctx context.Context, t *model.Task, at int) (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("session: invalid task: nil")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if at == -1 {
		at = len(s.tasks)
	}
	if at < 0 || at > len(s.tasks) {
		return nil, fmt.Errorf("session: invalid at: %d (must be in [0, %d] or -1)", at, len(s.tasks))
	}
	for _, u := range s.tasks {
		if u.Name == t.Name {
			return nil, fmt.Errorf("session: invalid task: duplicate name %q", t.Name)
		}
	}
	trial := make([]*model.Task, 0, len(s.tasks)+1)
	trial = append(trial, s.tasks[:at]...)
	trial = append(trial, t)
	trial = append(trial, s.tasks[at:]...)
	return s.analyzeLocked(ctx, trial)
}

// Sensitivity returns the largest WCET scaling factor (in permille,
// like core.CriticalScaling) that the task at priority index i can
// sustain — every node WCET of that task alone multiplied, the rest of
// the set untouched — with the whole set staying schedulable, searching
// [1, maxPermille] by bisection. 0 means the set is not schedulable
// even with the task's WCETs scaled to (essentially) nothing. Each
// probe analyzes the trial set from scratch; only the scaled task's
// graph needs fresh µ tables.
func (s *Session) Sensitivity(ctx context.Context, i, maxPermille int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.tasks) {
		return 0, fmt.Errorf("session: invalid index: %d (must be in [0, %d])", i, len(s.tasks)-1)
	}
	if maxPermille < 1 {
		return 0, fmt.Errorf("session: invalid maxPermille: %d (must be ≥ 1)", maxPermille)
	}
	probe := func(permille int) (bool, error) {
		scaled, err := core.ScaleTask(s.tasks[i], permille)
		if err != nil {
			return false, err
		}
		trial := append([]*model.Task(nil), s.tasks...)
		trial[i] = scaled
		rep, err := s.analyzeLocked(ctx, trial)
		if err != nil {
			return false, err
		}
		return rep.Schedulable, nil
	}
	ok, err := probe(1)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	if ok, err = probe(maxPermille); err != nil {
		return 0, err
	} else if ok {
		return maxPermille, nil
	}
	lo, hi := 1, maxPermille // invariant: lo schedulable, hi not
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// analyzeLocked analyzes an arbitrary ordering (committed or trial)
// under the session lock. An empty set is trivially schedulable.
func (s *Session) analyzeLocked(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
	if len(tasks) == 0 {
		opts := s.an.Options()
		return &core.Report{
			Schedulable: true,
			Method:      opts.Method,
			Cores:       opts.Cores,
			Tasks:       []core.TaskReport{},
		}, nil
	}
	return s.an.Analyze(ctx, &model.TaskSet{Tasks: tasks})
}
