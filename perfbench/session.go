package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/engine/cache"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/session"
)

// The session workload: two closed-loop clients hold conversations with
// a server started with -session-dir. Each conversation creates a
// 16-task LP-ILP session on m = 8, runs a seeded script of about 40
// operations (a quarter of them fsync'd edit batches, the rest report,
// admission and sensitivity queries, ~5% query-mode repairs) and
// deletes the session. Edits sit beside reads on the same layers: the
// incremental analyzer, snapshot encode plus fsync, and repair.
const (
	sessionCores     = 8
	sessionTasks     = 16
	sessionUFrac     = 0.3
	sessionScriptOps = 40
	// blockerShare of conversations start with a long non-preemptive
	// low-priority task, so that repair has something to fix.
	blockerShare = 0.3
	// repairCandidates bounds each query-mode repair search.
	repairCandidates = 64
	minTasks         = 10
	maxTasks         = 24
)

// Operation classes of a conversation.
const (
	opCreate      = "create"
	opEdits       = "edits"
	opReport      = "report"
	opAdmit       = "admit"
	opSensitivity = "sensitivity"
	opRepair      = "repair"
	opDelete      = "delete"
)

// convOp is one scripted operation, in wire form and in the form the
// in-process replay hands to the session package.
type convOp struct {
	class string
	body  []byte // request body; nil for GET and DELETE

	edits []session.Edit // opEdits
	task  *model.Task    // opAdmit
	at    int            // opAdmit
	index int            // opSensitivity
	seed  int64          // opRepair
}

// conversation is one scripted session.
type conversation struct {
	create []byte
	tasks  []*model.Task // initial set, priority order
	ops    []convOp
	final  []*model.Task // set after every edit
	cores  int           // core count after every edit
}

// newConversation derives conversation c of a run from the seed,
// tracking the set the edits produce so the final report can be checked.
func newConversation(seed int64, c int) *conversation {
	rng := rand.New(rand.NewSource(subSeed(seed, streamConversation, c)))
	g := gen.New(subSeed(seed, streamScript, c), scenario("mixed").Params())
	ts := g.TaskSetN(sessionTasks, sessionUFrac*sessionCores)
	tasks := ts.Tasks
	if rng.Float64() < blockerShare {
		minD := tasks[0].Deadline
		bb := model.Task{Name: "blocker", Deadline: 1000 * minD, Period: 1000 * minD}
		var err error
		if bb.G, err = singleNode(2 * minD); err != nil {
			panic(err)
		}
		tasks = append(tasks, &bb)
	}
	conv := &conversation{tasks: tasks, cores: sessionCores}
	body := fmt.Appendf(nil, `{"cores":%d,"method":"lp-ilp","taskset":`, sessionCores)
	conv.create = append(appendTaskSetJSON(body, &model.TaskSet{Tasks: tasks}), '}')

	cur := append([]*model.Task(nil), tasks...)
	fresh := 0
	newTask := func(prefix string) *model.Task {
		t := g.Task()
		fresh++
		t.Name = fmt.Sprintf("%s%d", prefix, fresh)
		return t
	}
	for k := 0; k < sessionScriptOps; k++ {
		x := rng.Float64()
		switch {
		case x < 0.25:
			op := convOp{class: opEdits}
			buf := []byte(`{"edits":[`)
			for e, n := 0, 1+rng.Intn(3); e < n; e++ {
				if e > 0 {
					buf = append(buf, ',')
				}
				y := rng.Float64()
				switch {
				case y < 0.35 && len(cur) < maxTasks:
					t := newTask("add")
					at := rng.Intn(len(cur) + 1)
					cur = append(cur[:at], append([]*model.Task{t}, cur[at:]...)...)
					op.edits = append(op.edits, session.Edit{Op: session.OpAdd, Task: t, At: at})
					buf = appendTaskJSON(append(buf, `{"op":"add","task":`...), t)
					buf = fmt.Appendf(buf, `,"at":%d}`, at)
				case y < 0.6 && len(cur) > minTasks:
					i := rng.Intn(len(cur))
					name := cur[i].Name
					cur = append(cur[:i], cur[i+1:]...)
					op.edits = append(op.edits, session.Edit{Op: session.OpRemove, Name: name})
					buf = fmt.Appendf(buf, `{"op":"remove","name":%q}`, name)
				case y < 0.9:
					from := rng.Intn(len(cur))
					to := (from + 1 + rng.Intn(len(cur)-1)) % len(cur)
					t := cur[from]
					cur = append(cur[:from], cur[from+1:]...)
					cur = append(cur[:to], append([]*model.Task{t}, cur[to:]...)...)
					op.edits = append(op.edits, session.Edit{Op: session.OpSetPriority, Name: t.Name, To: to})
					buf = fmt.Appendf(buf, `{"op":"set_priority","name":%q,"to":%d}`, t.Name, to)
				default:
					cores := []int{6, 8, 10}[rng.Intn(3)]
					if cores == conv.cores {
						cores += 2
					}
					conv.cores = cores
					op.edits = append(op.edits, session.Edit{Op: session.OpSetCores, Cores: cores})
					buf = fmt.Appendf(buf, `{"op":"set_cores","cores":%d}`, cores)
				}
			}
			op.body = append(buf, "]}"...)
			conv.ops = append(conv.ops, op)
		case x < 0.55:
			conv.ops = append(conv.ops, convOp{class: opReport})
		case x < 0.80:
			t := newTask("probe")
			at := rng.Intn(len(cur) + 1)
			body := appendTaskJSON([]byte(`{"task":`), t)
			conv.ops = append(conv.ops, convOp{class: opAdmit, task: t, at: at, body: fmt.Appendf(body, `,"at":%d}`, at)})
		case x < 0.95:
			i := rng.Intn(len(cur))
			conv.ops = append(conv.ops, convOp{class: opSensitivity, index: i, body: fmt.Appendf(nil, `{"index":%d}`, i)})
		default:
			s := rng.Int63n(1 << 30)
			conv.ops = append(conv.ops, convOp{class: opRepair, seed: s,
				body: fmt.Appendf(nil, `{"max_candidates":%d,"seed":%d}`, repairCandidates, s)})
		}
	}
	conv.ops = append(conv.ops, convOp{class: opReport})
	conv.final = cur
	return conv
}

// singleNode builds a one-node graph.
func singleNode(wcet int64) (*dag.Graph, error) {
	var b dag.Builder
	b.AddNode(wcet)
	return b.Build()
}

// reference returns the from-scratch analysis of the conversation's
// final set.
func (c *conversation) reference() ([]triple, error) {
	rep, err := core.MustNew(core.Options{Cores: c.cores, Method: core.LPILP}).
		Analyze(context.Background(), &model.TaskSet{Tasks: c.final})
	if err != nil {
		return nil, err
	}
	return reportTriples(rep), nil
}

// sessionWire is the part of a session response the benchmark checks.
type sessionWire struct {
	ID  string `json:"id"`
	Rep struct {
		Tasks []struct {
			RT  int64 `json:"response_time"`
			DM  int64 `json:"delta_m"`
			DM1 int64 `json:"delta_m1"`
		} `json:"tasks"`
	} `json:"report"`
}

// sessionLoad is the outcome of the closed-loop HTTP phase; rates,
// latencies and CPU are medians over time windows.
type sessionLoad struct {
	opsPerS    float64
	rateQ      [3]float64 // quartiles of the per-window rates
	p50, p90   float64    // ms per operation
	cpuUS      float64    // server CPU µs per operation
	all, edits []float64  // ms, all windows
	queries    []float64  // ms: report, admit, sensitivity
	writeShare float64
	rssMB      float64
	setupS     float64
}

// sessionHTTP runs conversations on maxConns closed-loop clients for d,
// then checks each conversation's final report against a from-scratch
// analysis.
func sessionHTTP(r *run, d time.Duration) (*sessionLoad, error) {
	root, err := os.MkdirTemp(r.dir, "sessions-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	srv, setup, err := launch(r.serve, func(i int) []string {
		return []string{"-session-dir", filepath.Join(root, strconv.Itoa(i))}
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	var (
		mu    sync.Mutex
		load  = &sessionLoad{setupS: setup}
		done  = make(map[int]*conversation)
		final = make(map[int][]triple)
		ops   int
	)
	w := newWindows(e2eRounds, d/e2eRounds, srv.cpuSeconds)
	record := func(class string, d time.Duration) {
		w.add(d, 1)
		mu.Lock()
		defer mu.Unlock()
		ops++
		load.all = append(load.all, ms(d))
		switch class {
		case opEdits:
			load.edits = append(load.edits, ms(d))
		case opReport, opAdmit, opSensitivity:
			load.queries = append(load.queries, ms(d))
		}
	}
	closedLoop(maxConns, d, func(c int) {
		conv := newConversation(r.seed, c)
		got, err := converse(r, srv.base, conv, record)
		if err != nil {
			return
		}
		mu.Lock()
		done[c], final[c] = conv, got
		mu.Unlock()
	})
	if err := w.wait(); err != nil {
		return nil, err
	}
	load.opsPerS, load.p50, load.p90, load.cpuUS = median(w.rates()), median(w.latencies(50)), median(w.latencies(90)), median(w.cpuPerWork())
	load.rateQ = quartiles(w.rates())
	load.writeShare = float64(len(load.edits)) / float64(max(1, ops))
	if load.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(done))
	for c := range done {
		ids = append(ids, c)
	}
	want := make([][]triple, len(ids))
	errs := make([]error, len(ids))
	parallel(len(ids), func(k int) { want[k], errs[k] = done[ids[k]].reference() })
	for k, c := range ids {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if !equalTriples(final[c], want[k]) {
			r.mismatch("session conversation %d: final report %v, from-scratch %v", c, final[c], want[k])
		}
	}
	return load, nil
}

// converse plays one conversation over HTTP, checking the epoch header
// on the way, and returns the final report's triples.
func converse(r *run, base string, conv *conversation, record func(string, time.Duration)) ([]triple, error) {
	var (
		id    string
		epoch uint64
		last  []triple
	)
	do := func(class, method, path string, body []byte, status int, epochStep int) error {
		t0 := time.Now()
		resp, err := call(r.client, method, base+path, body)
		d := time.Since(t0)
		if err == nil {
			err = resp.expect(status)
		}
		if err == nil && class != opDelete && class != opSensitivity {
			var e uint64
			e, err = strconv.ParseUint(resp.header.Get("X-Lpdag-Session-Epoch"), 10, 64)
			switch {
			case err != nil:
				err = fmt.Errorf("%s: epoch header: %w", class, err)
			case class == opCreate:
				epoch = e
			case e != epoch+uint64(epochStep):
				r.mismatch("session %s: epoch %d after %s, want %d", id, e, class, epoch+uint64(epochStep))
				epoch = e
			default:
				epoch = e
			}
		}
		if err == nil && (class == opCreate || class == opReport || class == opEdits) {
			var w sessionWire
			if err = json.Unmarshal(resp.body, &w); err == nil {
				if class == opCreate {
					id = w.ID
				}
				last = last[:0]
				for _, t := range w.Rep.Tasks {
					last = append(last, triple{t.RT, t.DM, t.DM1})
				}
			}
		}
		r.tally.add("closed", class, err)
		if err == nil {
			record(class, d)
		}
		return err
	}
	if err := do(opCreate, http.MethodPost, "/v1/sessions", conv.create, http.StatusCreated, 0); err != nil {
		return nil, err
	}
	if want := uint64(1 + len(conv.tasks)); epoch != want {
		r.mismatch("session %s: created at epoch %d, want %d", id, epoch, want)
	}
	p := "/v1/sessions/" + id
	for _, op := range conv.ops {
		var err error
		switch op.class {
		case opEdits:
			err = do(op.class, http.MethodPost, p+"/edits", op.body, http.StatusOK, len(op.edits))
		case opReport:
			err = do(op.class, http.MethodGet, p+"/report", nil, http.StatusOK, 0)
		case opAdmit:
			err = do(op.class, http.MethodPost, p+"/admit", op.body, http.StatusOK, 0)
		case opSensitivity:
			err = do(op.class, http.MethodPost, p+"/sensitivity", op.body, http.StatusOK, 0)
		case opRepair:
			err = do(op.class, http.MethodPost, p+"/repair", op.body, http.StatusOK, 0)
		}
		if err != nil {
			return nil, err
		}
	}
	final := append([]triple(nil), last...)
	if err := do(opDelete, http.MethodDelete, p, nil, http.StatusNoContent, 0); err != nil {
		return nil, err
	}
	return final, nil
}

func sessionE2E(r *run) error {
	load, err := sessionHTTP(r, r.duration)
	if err != nil {
		return err
	}
	p99 := percentile(load.all, 99)
	r.metric("setup_s", load.setupS, "s")
	r.metric("cpu_us_per_op", load.cpuUS, "us")
	r.metric("peak_rss_mb", load.rssMB, "MB")
	attempted, failed := r.tally.totals()
	r.note("session setup_s %.4f s (median of %d launches)", load.setupS, setupLaunches)
	r.note("session ops_per_s %.1f ops/s (closed loop, %d clients, median of %d windows, quartiles %.1f-%.1f)",
		load.opsPerS, maxConns, e2eRounds, load.rateQ[0], load.rateQ[2])
	r.note("session cpu_us_per_op %.1f us (server CPU, median of %d windows)", load.cpuUS, e2eRounds)
	r.note("session edit_p50_ms %.3f ms (n=%d)", median(load.edits), len(load.edits))
	r.note("session query_p50_ms %.3f ms (n=%d)", median(load.queries), len(load.queries))
	r.note("session op_p50_ms %.3f ms, op_p90_ms %.3f ms (medians of %d windows); op_p99_ms %.3f ms (pooled, n=%d, %d samples beyond)",
		load.p50, load.p90, e2eRounds, p99, len(load.all), beyond(len(load.all), 99))
	r.note("session fail_frac %.6f ratio (%d of %d)", float64(failed)/float64(max(1, attempted)), failed, attempted)
	r.note("session peak_rss_mb %.1f MB", load.rssMB)
	r.note("session write_share %.3f (edit batches of all completed operations)", load.writeShare)
	return nil
}

// sessionTraced runs a short HTTP phase for the end-to-end query
// latency, then replays conversations in-process against the session
// package and a real durable store.
func sessionTraced(r *run, t *tracer, budget time.Duration) error {
	load, err := sessionHTTP(r, budget*3/10)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(budget * 7 / 10)
	dir, err := os.MkdirTemp(r.dir, "trace-sessions-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := engine.OpenSessionStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	memo := cache.New(0)
	tr := obs.NewTrace(obs.NewRegistry())
	ctx := context.Background()
	var candidates, flips int64
	var snapBuf []byte
	c := 0
	for ; c == 0 || time.Now().Before(deadline); c++ {
		conv := newConversation(r.seed, c)
		group := int64(c)
		id := fmt.Sprintf("conv-%d", c)
		var sess *session.Session
		t.do("session.session.create", group, -1, func() {
			if sess, err = session.New(core.Options{Cores: sessionCores, Method: core.LPILP, Cache: memo, Trace: tr}, conv.tasks...); err == nil {
				_, err = sess.Report(ctx)
			}
		})
		r.tally.add("traced", opCreate, err)
		if err != nil {
			return err
		}
		for _, op := range conv.ops {
			switch op.class {
			case opEdits:
				t.do("session.session.edit", group, -1, func() {
					if err = sess.Apply(op.edits); err == nil {
						_, err = sess.Report(ctx)
					}
				})
				if err == nil {
					var snap *session.Snapshot
					t.do("session.session.snapshot", group, -1, func() {
						snap = sess.Snapshot(id, time.Now().UnixNano())
						snapBuf, err = snap.Append(snapBuf[:0])
					})
					if err == nil {
						t.do("session.sessionstore.append", group, -1, func() { err = store.Append(snap) })
						t.count("session.fsyncs", 1)
					}
				}
			case opReport:
				t.do("session.session.report", group, -1, func() { _, err = sess.Report(ctx) })
			case opAdmit:
				t.do("session.session.admit", group, -1, func() { _, err = sess.TryAdmit(ctx, op.task, op.at) })
			case opSensitivity:
				t.do("session.session.sensitivity", group, -1, func() { _, err = sess.Sensitivity(ctx, op.index, 10_000) })
			case opRepair:
				var res *repair.Result
				t.do("session.repair.search", group, -1, func() {
					res, err = sess.Repair(ctx, repair.Config{MaxCandidates: repairCandidates, Seed: op.seed}, false)
				})
				if err == nil {
					candidates += int64(res.Candidates)
					if res.Fixed && len(res.Transforms) > 0 {
						flips++
					}
				}
			}
			r.tally.add("traced", op.class, err)
			if err != nil {
				return fmt.Errorf("traced session %s: %w", op.class, err)
			}
		}
		rep, rerr := sess.Report(ctx)
		if rerr != nil {
			return rerr
		}
		want, rerr := conv.reference()
		if rerr != nil {
			return rerr
		}
		if got := reportTriples(rep); !equalTriples(got, want) {
			r.mismatch("traced session conversation %d: final report %v, from-scratch %v", c, got, want)
		}
		err = store.Delete(id)
		r.tally.add("traced", opDelete, err)
		if err != nil {
			return err
		}
	}
	t.count("session.repair_candidates", candidates)
	t.count("session.repair_flips", flips)
	self := t.selfByName()
	var queries []time.Duration
	for _, n := range []string{"session.session.report", "session.session.admit", "session.session.sensitivity"} {
		queries = append(queries, self[n]...)
	}
	full, inc := float64(tr.FullRuns.Value()), float64(tr.IncRuns.Value())
	r.metric("session.session.edit_us", median(durations(self["session.session.edit"], us)), "us")
	r.metric("session.session.snapshot_us", median(durations(self["session.session.snapshot"], us)), "us")
	r.metric("session.sessionstore.append_ms", median(durations(self["session.sessionstore.append"], ms)), "ms")
	r.metric("session.session.report_us", median(durations(self["session.session.report"], us)), "us")
	r.metric("session.session.admit_us", median(durations(self["session.session.admit"], us)), "us")
	r.metric("session.session.sensitivity_us", median(durations(self["session.session.sensitivity"], us)), "us")
	r.metric("session.rta.incremental_ratio", inc/(full+inc), "ratio")
	r.metric("session.repair.search_ms", median(durations(self["session.repair.search"], ms)), "ms")
	r.metric("session.repair.flip_ratio", float64(flips)/float64(max(1, candidates)), "ratio")
	r.metric("session.http.session_transport_ms", median(load.queries)-median(durations(queries, ms)), "ms")
	r.note("session trace: %d conversations; analyses full=%.0f incremental=%.0f; repair flips=%d candidates=%d",
		c, full, inc, flips, candidates)
	return nil
}
