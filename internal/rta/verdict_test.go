package rta

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/obs"
)

// fullVerdict is AnalyzeInPlace's verdict and error on ts. It memoizes
// µ tables on ts's graphs, so a test that then asks Schedulable about
// the same graphs passes it a copy of the set (ts.Clone()).
func fullVerdict(t *testing.T, ts *model.TaskSet, cfg Config) (bool, error) {
	t.Helper()
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeInPlace(context.Background(), ts)
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// sameOutcome reports whether two verdict/error pairs are the same:
// equal verdicts without errors, or errors with equal texts.
func sameOutcome(ok1 bool, err1 error, ok2 bool, err2 error) bool {
	if err1 != nil || err2 != nil {
		return err1 != nil && err2 != nil && err1.Error() == err2.Error()
	}
	return ok1 == ok2
}

// verdictOf runs Schedulable on a fresh analyzer.
func verdictOf(t *testing.T, ts *model.TaskSet, cfg Config) (bool, error) {
	t.Helper()
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a.Schedulable(context.Background(), ts)
}

// graph builds a DAG of the given node WCETs and edges.
func graph(wcets []int64, edges ...[2]int) *dag.Graph {
	var b dag.Builder
	for _, c := range wcets {
		b.AddNode(c)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// bracketSet is a three-task set on two cores whose top task has the
// given deadline: at 40 LP-max schedules it, at 9 the heaviest
// lower-priority NPRs already miss.
func bracketSet(t *testing.T, deadline int64) *model.TaskSet {
	t.Helper()
	return mustSet(t,
		&model.Task{Name: "hi", G: diamond(1, 2, 3, 4), Deadline: deadline, Period: 40},
		&model.Task{Name: "lo", G: diamond(2, 5, 5, 1), Deadline: 60, Period: 60},
		&model.Task{Name: "lowest", G: chain([]int64{6, 6}), Deadline: 100, Period: 100},
	)
}

// holdsNoMu reports whether no graph of ts holds a µ table.
func holdsNoMu(ts *model.TaskSet) bool {
	for _, task := range ts.Tasks {
		if dag.LoadMu(task.G, 1) != nil {
			return false
		}
	}
	return true
}

// TestVerdictCapFallback pins the iteration-cap guard on both sides.
// On two cores a parallel pair above a long single-node task makes the
// middle task's fixed point creep by one time unit per iteration
// through the pair's third busy window when its blocking is the
// heaviest lower-priority NPR alone (400 000), for about as many
// iterations as the pair's nodes are long, past DefaultMaxIterations.
// A blocking of 600 000 crosses that window in a few iterations and
// converges exactly at the deadline.
//   - Below a two-node chain beside a node, LP-ILP's blocking is
//     600 000, the lower bound creeps and stops at the cap below m·D,
//     and LP-max (800 000) misses: reading that stop as a miss would
//     answer false where the full pass answers true.
//   - Below a chain, LP-ILP's blocking is the heaviest NPR and creeps
//     into the cap itself, while LP-max (600 000) converges: taking
//     LP-max's verdict would answer true where the full pass answers
//     false.
func TestVerdictCapFallback(t *testing.T) {
	const (
		c1 = 1_000_010 // the middle task's one node
		p  = c1 - 2    // each node of the parallel pair on top
		h  = 400_000   // the lowest task's heaviest node
		hh = 200_000   // and its other node
	)
	period0 := int64(3*p+c1+h) / 2   // the pair's bound on two cores, exactly
	d1 := int64(c1 + 3*p + (h+hh)/2) // the middle task's bound under a 600 000 blocking
	for _, tc := range []struct {
		name string
		low  *dag.Graph
		want bool
	}{
		{"chain beside a node", graph([]int64{h, h, hh}, [2]int{0, 1}), true},
		{"chain", chain([]int64{h, hh}), false},
	} {
		ts := mustSet(t,
			&model.Task{Name: "pair", G: graph([]int64{p, p}), Deadline: period0, Period: period0},
			&model.Task{Name: "long", G: chain([]int64{c1}), Deadline: d1, Period: d1},
			&model.Task{Name: "low", G: tc.low, Deadline: 1 << 40, Period: 1 << 40},
		)
		cfg := Config{M: 2, Method: LPILP}
		want, wantErr := fullVerdict(t, ts.Clone(), cfg)
		if wantErr != nil || want != tc.want {
			t.Fatalf("%s: full pass %v, %v; want %v", tc.name, want, wantErr, tc.want)
		}
		if got, err := verdictOf(t, ts, cfg); !sameOutcome(got, err, want, wantErr) {
			t.Errorf("%s: Schedulable = %v, %v; full pass %v, %v", tc.name, got, err, want, wantErr)
		}
	}
}

// TestVerdictRangeFallback pins the range guard of the lower pass. On
// three cores LP-max misses the top task's deadline while LP-ILP and
// the lower bound meet it. Below it, the lower bound's Δ fits the
// middle task's m-scaled terms in int64 and misses its deadline, but
// LP-ILP's Δ, twice as large on two cores, does not fit, so the full
// pass refuses the set with a *RangeError. Schedulable must refuse it
// the same way, not answer false.
func TestVerdictRangeFallback(t *testing.T) {
	const v = 1 << 59
	ts := mustSet(t,
		&model.Task{Name: "top", G: chain([]int64{1}), Deadline: 1 + (1<<60-1)/3, Period: 1 + (1<<60-1)/3},
		&model.Task{Name: "mid", G: chain([]int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}), Deadline: 100, Period: 100},
		&model.Task{Name: "low", G: graph([]int64{v, v, v}, [2]int{0, 1}), Deadline: 1 << 62, Period: 1 << 62},
	)
	cfg := Config{M: 3, Method: LPILP}
	want, wantErr := fullVerdict(t, ts.Clone(), cfg)
	var re *RangeError
	if !errors.As(wantErr, &re) || re.Task != "mid" {
		t.Fatalf("full pass: %v, %v; want a RangeError naming mid", want, wantErr)
	}
	got, err := verdictOf(t, ts, cfg)
	if !sameOutcome(got, err, want, wantErr) {
		t.Fatalf("Schedulable = %v, %v; full pass %v, %v", got, err, want, wantErr)
	}
}

// TestVerdictBracketSolvesNoMu pins the saving: a set LP-max already
// schedules and a set whose heaviest lower-priority NPRs already miss a
// deadline both get the full pass's verdict from Schedulable, and
// neither leaves a µ table on any graph.
func TestVerdictBracketSolvesNoMu(t *testing.T) {
	cfg := Config{M: 2, Method: LPILP}
	for _, tc := range []struct {
		name     string
		deadline int64
		want     bool
	}{
		{"upper bound schedules", 40, true},
		{"lower bound misses", 9, false},
	} {
		ts := bracketSet(t, tc.deadline)
		if want, err := fullVerdict(t, ts.Clone(), cfg); err != nil || want != tc.want {
			t.Fatalf("%s: full pass %v, %v; want %v", tc.name, want, err, tc.want)
		}
		if got, err := verdictOf(t, ts, cfg); err != nil || got != tc.want {
			t.Errorf("%s: Schedulable = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if !holdsNoMu(ts) {
			t.Errorf("%s: the bracket decided, yet a graph holds a µ table", tc.name)
		}
	}
}

// TestVerdictGateSkipsBracket pins the memo gate: a set whose
// lower-priority graphs already hold their µ tables takes the full pass
// directly (one full run per call, on a traced analyzer), while a fresh
// copy of it is decided by the bracket (none).
func TestVerdictGateSkipsBracket(t *testing.T) {
	ts := bracketSet(t, 40)
	tr := obs.NewTrace(obs.NewRegistry())
	a, err := NewAnalyzer(Config{M: 2, Method: LPILP, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	fresh := ts.Clone()
	if _, err := a.AnalyzeInPlace(context.Background(), ts); err != nil { // memoizes the tables
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ts   *model.TaskSet
		runs uint64
	}{{ts, 1}, {fresh, 0}} {
		before := tr.FullRuns.Value()
		if ok, err := a.Schedulable(context.Background(), tc.ts); err != nil || !ok {
			t.Fatalf("Schedulable = %v, %v; want true", ok, err)
		}
		if runs := tr.FullRuns.Value() - before; runs != tc.runs {
			t.Errorf("memoized %v: %d full runs, want %d", tc.ts == ts, runs, tc.runs)
		}
	}
}

// FuzzVerdict pins Schedulable to the full pass: on sets of at most
// four tasks of one to three nodes (rangeSet) whose values are capped
// at 2^bits, on 1 to 64 cores, under every method and every
// combination of the three analysis flags, the verdict and the error
// equal AnalyzeInPlace's on a fresh copy of the set.
func FuzzVerdict(f *testing.F) {
	f.Add(uint8(2), uint8(LPILP), uint8(0), uint8(6), []byte{2, 2, 3, 5, 7, 9, 11, 40, 60, 1, 0, 4, 20, 30, 0, 1, 5, 80, 90})
	f.Add(uint8(3), uint8(LPILP), uint8(7), uint8(12), []byte{3, 2, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(1), uint8(LPMax), uint8(2), uint8(62), []byte{1, 0, 0, 62, 255, 255, 255, 255, 255, 255, 255, 63})
	f.Fuzz(func(t *testing.T, cores, method, flags, bits uint8, data []byte) {
		cfg := Config{
			M: 1 + int(cores)%64, Method: Method(method % 3),
			FinalNPRRefinement: flags&1 != 0, AblateRepeatedBlocking: flags&2 != 0, DonationSafeBlocking: flags&4 != 0,
		}
		ts, ok := rangeSet(data, uint64(bits)%63)
		if !ok {
			return
		}
		want, wantErr := fullVerdict(t, ts.Clone(), cfg)
		if got, err := verdictOf(t, ts, cfg); !sameOutcome(got, err, want, wantErr) {
			t.Fatalf("%+v: Schedulable = %v, %v; full pass %v, %v", cfg, got, err, want, wantErr)
		}
	})
}
