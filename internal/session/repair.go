package session

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/repair"
)

// Repair searches NPR-placement transforms (splits, optional coarsens
// and priority moves) that make the session's task set schedulable,
// analyzing every candidate from scratch with the session's options on
// the pooled analyzer; a candidate's µ tables are solved only for the
// graphs its transform rewrote.
//
// It is a query unless apply is set and the search fixes the set: then
// the repaired ordering is committed as one transactional mutation
// (epoch bump, memoized report refreshed). A cancelled context is the
// anytime exit — the best partial repair found so far is returned with
// Result.Stopped set, and nothing is committed unless it is a full fix.
func (s *Session) Repair(ctx context.Context, cfg repair.Config, apply bool) (*repair.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tasks) == 0 {
		return nil, errors.New("session: invalid repair: empty session (add tasks first)")
	}
	res, err := repair.Search(ctx, s.tasks, cfg,
		func(ctx context.Context, tasks []*model.Task) (*core.Report, error) {
			return s.analyzeLocked(ctx, tasks)
		})
	if err != nil {
		return nil, err
	}
	if apply && res.Fixed && len(res.Transforms) > 0 {
		s.tasks = res.Tasks
		s.rep = res.Report // analyzed from exactly res.Tasks
		s.epoch++
	}
	return res, nil
}
