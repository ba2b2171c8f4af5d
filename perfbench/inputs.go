package main

import (
	"fmt"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/model"
)

// scenario resolves a registry family; the names used here are fixed,
// so a failure is a bug.
func scenario(name string) experiments.Scenario {
	sc, err := experiments.ScenarioByName(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// subSeed derives an independent generator seed from the run seed and a
// path of indices, with the same mixer the campaign orchestrator uses.
func subSeed(seed int64, stream, i int) int64 {
	return experiments.SeedFor(seed, stream, i)
}

// Stream numbers keep the seeded input families of one run independent.
const (
	streamPool = iota + 1
	streamFresh
	streamBatch
	streamCampaign
	streamConversation
	streamScript
)

// appendTaskJSON appends the interchange form of t,
// {"name","wcet","edges","deadline","period"}.
func appendTaskJSON(dst []byte, t *model.Task) []byte {
	dst = append(dst, `{"name":`...)
	dst = strconv.AppendQuote(dst, t.Name)
	dst = append(dst, `,"wcet":[`...)
	for v := 0; v < t.G.N(); v++ {
		if v > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, t.G.WCET(v), 10)
	}
	dst = append(dst, `],"edges":[`...)
	for i, e := range t.G.Edges() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(e[0]), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e[1]), 10)
		dst = append(dst, ']')
	}
	dst = append(dst, `],"deadline":`...)
	dst = strconv.AppendInt(dst, t.Deadline, 10)
	dst = append(dst, `,"period":`...)
	dst = strconv.AppendInt(dst, t.Period, 10)
	return append(dst, '}')
}

// appendTaskSetJSON appends {"tasks":[...]} in priority order.
func appendTaskSetJSON(dst []byte, ts *model.TaskSet) []byte {
	dst = append(dst, `{"tasks":[`...)
	for i, t := range ts.Tasks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTaskJSON(dst, t)
	}
	return append(dst, "]}"...)
}

// setSpec names how one task set was generated, so it can be rebuilt
// or described without keeping the set.
type setSpec struct {
	family string
	m      int
	ufrac  float64
	seed   int64
}

func (s setSpec) String() string {
	return fmt.Sprintf("%s/m=%d/u=%.2f/seed=%d", s.family, s.m, s.ufrac, s.seed)
}

// build generates the set.
func (s setSpec) build() *model.TaskSet {
	return scenario(s.family).TaskSet(s.seed, s.ufrac*float64(s.m))
}
