package repair_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/repair"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_results.txt from the current Search")

const goldenPath = "testdata/golden_results.txt"

// goldenSet is one seeded repair input: a task set, its core count and
// the candidate budget every search of it gets.
type goldenSet struct {
	name  string
	tasks []*model.Task
	cores int
	cands int
	seed  int64
}

// goldenSets draws the inputs of TestSearchGolden. Half are shaped like
// the serving benchmark's session searches (16 mixed tasks on m = 8 at
// a total utilization of 2.4 to 4, a one-node blocker at the lowest
// priority, 64 candidates); the rest are small mixed and parallel sets
// on two to four cores with a larger budget, where exhaustive search
// reaches its second and third steps. Two fifths of the searches end
// unfixed and an eighth spend their whole budget.
func goldenSets(t *testing.T) []goldenSet {
	t.Helper()
	var out []goldenSet
	for i := 0; i < 100; i++ {
		seed := int64(9001 + i)
		tasks := gen.New(seed, gen.PaperParams(gen.GroupMixed)).TaskSetN(16, []float64{2.4, 3.2, 4.0}[i%3]).Tasks
		minD := tasks[0].Deadline
		var b dag.Builder
		b.AddNode(2 * minD)
		tasks = append(tasks, &model.Task{Name: "blocker", G: b.MustBuild(),
			Deadline: 1000 * minD, Period: 1000 * minD})
		out = append(out, goldenSet{fmt.Sprintf("session%d", i), tasks, 8, 64, seed})
	}
	for i := 0; i < 100; i++ {
		seed := int64(7001 + i)
		group := []gen.Group{gen.GroupMixed, gen.GroupParallel}[i%2]
		m := 2 + i%3
		n := 3 + i%4
		tasks := gen.New(seed, gen.PaperParams(group)).TaskSetN(n, (0.5+0.1*float64(i%4))*float64(m)).Tasks
		out = append(out, goldenSet{fmt.Sprintf("small%d", i), tasks, m, 256, seed})
	}
	return out
}

// goldenLine renders a Result as one line: every scalar field, the
// transform chain, and a digest of the repaired ordering (names, graph
// fingerprints, deadlines, periods) and of its full Report.
func goldenLine(name string, res *repair.Result) string {
	h := sha256.New()
	for _, t := range res.Tasks {
		fmt.Fprintf(h, "%s|%x|%d|%d;", t.Name, t.G.Fingerprint(), t.Deadline, t.Period)
	}
	fmt.Fprintf(h, "%+v", *res.Report)
	trs := make([]string, len(res.Transforms))
	for i, tr := range res.Transforms {
		trs[i] = tr.String()
	}
	return fmt.Sprintf("%s fixed=%t stopped=%t cands=%d failing=%d>%d slack=%d>%d tr=[%s] digest=%x",
		name, res.Fixed, res.Stopped, res.Candidates, res.FailingBefore, res.FailingAfter,
		res.SlackBefore, res.SlackAfter, strings.Join(trs, ","), h.Sum(nil)[:8])
}

// TestSearchGolden pins Search's Results byte for byte on seeded inputs
// under three configurations: greedy, greedy with coarsens and priority
// moves, and exhaustive. The golden file was recorded with every split
// rebuilt through dag.Builder, every µ table solved on the split's full
// Par sets and no split shared between frontier states, so it holds the
// search to the Results of that path.
// Regenerate only for an intended change of search behaviour:
//
//	go test ./internal/repair -run TestSearchGolden -update
func TestSearchGolden(t *testing.T) {
	ctx := context.Background()
	var got []string
	for _, s := range goldenSets(t) {
		eval := evalWith(t, core.Options{Cores: s.cores, Method: core.LPILP})
		for _, c := range []struct {
			name string
			cfg  repair.Config
		}{
			{"greedy", repair.Config{MaxCandidates: s.cands, Seed: s.seed}},
			{"wide", repair.Config{Coarsen: true, Reprioritize: true, MaxCandidates: s.cands, Seed: s.seed}},
			{"exhaustive", repair.Config{Strategy: repair.Exhaustive, MaxCandidates: s.cands, Seed: s.seed}},
		} {
			// Each search gets fresh graphs, so no µ table memoized by
			// an earlier search can stand in for one this search solves.
			tasks := (&model.TaskSet{Tasks: s.tasks}).Clone().Tasks
			res, err := repair.Search(ctx, tasks, c.cfg, eval)
			if err != nil {
				t.Fatalf("%s/%s: Search: %v", s.name, c.name, err)
			}
			got = append(got, goldenLine(s.name+"/"+c.name, res))
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d searches, golden file holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("search %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
