package engine

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/model"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

// TestAnalyzeMatchesDirect pins the engine path to the plain library
// path on the paper's Figure 1 example, for every method. The library
// side runs on a clone, so it solves the µ tables the engine memoized.
func TestAnalyzeMatchesDirect(t *testing.T) {
	e := testEngine(t, Config{})
	ts := fixture.TaskSet()
	for _, method := range core.Methods() {
		spec := AnalyzeSpec{Cores: fixture.M, Method: method}
		got, err := e.Analyze(context.Background(), ts, spec)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		a := core.MustNew(core.Options{Cores: fixture.M, Method: method})
		want, err := a.Analyze(context.Background(), ts.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%v: engine report differs from direct analysis:\n%s\nvs\n%s",
				method, got, want)
		}
	}
}

func TestAnalyzeBatchOrderAndErrors(t *testing.T) {
	e := testEngine(t, Config{Workers: 4})
	ts := fixture.TaskSet()
	sets := []*model.TaskSet{ts, ts, ts}
	specs := []AnalyzeSpec{
		{Cores: fixture.M, Method: core.LPILP},
		{Cores: 0, Method: core.LPILP}, // invalid: must fail alone
		{Cores: fixture.M, Method: core.LPMax},
	}
	reports, errs, err := e.AnalyzeBatch(context.Background(), sets, specs)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid requests failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("invalid cores should fail its slot")
	}
	if reports[0] == nil || reports[0].Method != core.LPILP {
		t.Errorf("slot 0: want LP-ILP report, got %+v", reports[0])
	}
	if reports[2] == nil || reports[2].Method != core.LPMax {
		t.Errorf("slot 2: want LP-max report, got %+v", reports[2])
	}

	if _, _, err := e.AnalyzeBatch(context.Background(), sets, specs[:2]); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

// TestFanOutProperties drives FanOut over random index counts, slot
// counts and cancel points, with and without done, n = 0 and
// n < Workers included: every handed-out index runs exactly once and
// the handed-out indices are a prefix, never more than Workers run at
// once, done runs once per run index on the caller's goroutine, and
// once fn cancels the context its goroutine starts nothing more while
// each other goroutine starts at most the one index it had already
// taken. FanOut returns the context's error exactly when it left
// indices unstarted, and only after every started fn has returned.
func TestFanOutProperties(t *testing.T) {
	check := func(nRaw, workersRaw, cancelRaw uint8, withDone bool) bool {
		n := int(nRaw % 40)
		workers := int(workersRaw%8) + 1
		cancelAt := int(cancelRaw) % (n + 1) // n: never cancel
		e := testEngine(t, Config{Workers: workers, CacheEntries: -1})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		caller := goroutineID()
		var (
			mu                                  sync.Mutex
			runs                                = make([]int, n)
			active, peak, returned, afterCancel int
			cancelled                           bool
		)
		dones := make([]int, n) // the caller's goroutine alone touches it
		done := func(i int) {
			if id := goroutineID(); id != caller {
				t.Errorf("n=%d workers=%d: done(%d) ran on goroutine %s, caller is %s", n, workers, i, id, caller)
			}
			dones[i]++
		}
		if !withDone {
			done = nil
		}
		err := e.FanOut(ctx, n, func(i int) {
			mu.Lock()
			runs[i]++
			active++
			peak = max(peak, active)
			if cancelled {
				afterCancel++
			}
			mu.Unlock()
			runtime.Gosched()
			if i == cancelAt {
				cancel()
			}
			mu.Lock()
			cancelled = cancelled || i == cancelAt
			active--
			returned++
			mu.Unlock()
		}, done)

		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("n=%d workers=%d cancelAt=%d: "+format, append([]any{n, workers, cancelAt}, args...)...)
			ok = false
		}
		started := 0
		for i, r := range runs {
			switch {
			case r > 1:
				fail("index %d ran %d times", i, r)
			case r == 1 && started != i:
				fail("index %d ran although index %d never did", i, started)
			case r == 1:
				started++
			}
			if withDone && dones[i] != r {
				fail("done(%d) ran %d times for %d runs", i, dones[i], r)
			}
		}
		if returned != started {
			fail("FanOut returned with %d of %d started calls finished", returned, started)
		}
		if peak > workers {
			fail("%d calls ran at once", peak)
		}
		if afterCancel > workers-1 {
			fail("%d indices started after the cancel", afterCancel)
		}
		if wantErr := started < n; (err != nil) != wantErr || (wantErr && err != context.Canceled) {
			fail("FanOut = %v with %d of %d started", err, started, n)
		}
		if cancelAt == n && started != n {
			fail("uncancelled run started %d of %d indices", started, n)
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// The edges quick may not draw: nothing to do, fewer indices than
	// slots, and one slot cancelled by its first index.
	for _, c := range [][3]uint8{{0, 3, 0}, {2, 7, 2}, {3, 0, 0}} {
		for _, withDone := range []bool{true, false} {
			if !check(c[0], c[1], c[2], withDone) {
				t.Fatalf("case %v (done given: %v) failed", c, withDone)
			}
		}
	}
	e := testEngine(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.FanOut(ctx, 5, func(i int) { t.Errorf("index %d started under a done context", i) }, nil); err != context.Canceled {
		t.Errorf("FanOut under a done context = %v, want %v", err, context.Canceled)
	}
}

// goroutineID returns the running goroutine's id from its stack header
// ("goroutine 18 [running]: ...").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func TestGenerateDeterministic(t *testing.T) {
	e := testEngine(t, Config{})
	spec := GenerateSpec{Seed: 7, Group: gen.GroupMixed, Utilization: 2}
	a, err := e.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.MarshalJSON()
	jb, _ := b.MarshalJSON()
	if string(ja) != string(jb) {
		t.Error("same seed should generate identical task sets")
	}
}

func TestSimulate(t *testing.T) {
	e := testEngine(t, Config{})
	res, err := e.Simulate(context.Background(), fixture.TaskSet(),
		SimulateSpec{Cores: fixture.M, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Error("simulation completed no jobs")
	}
}

func TestStatsCounters(t *testing.T) {
	e := testEngine(t, Config{Workers: 2})
	ctx := context.Background()
	ts := fixture.TaskSet()
	// Each iteration rebuilds the fixture, so the engine sees
	// structurally identical but physically distinct graphs — the shape
	// that must hit the content-addressed cache (same-instance repeats
	// are absorbed earlier, by the µ memo on each graph).
	for i := 0; i < 3; i++ {
		if _, err := e.Analyze(ctx, fixture.TaskSet(), AnalyzeSpec{Cores: fixture.M, Method: core.LPILP}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Simulate(ctx, ts, SimulateSpec{Cores: fixture.M, Duration: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Generate(ctx, GenerateSpec{Seed: 1, Utilization: 1}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Analyses != 3 || s.Simulations != 1 || s.Generations != 1 {
		t.Errorf("served counters = %d/%d/%d, want 3/1/1",
			s.Analyses, s.Simulations, s.Generations)
	}
	if s.JobsServed() != 5 {
		t.Errorf("JobsServed = %d, want 5", s.JobsServed())
	}
	if s.QueueDepth != 0 {
		t.Errorf("queue depth = %d after quiescence, want 0", s.QueueDepth)
	}
	// The repeated identical analyses must have hit the cache.
	if s.Cache.Hits == 0 {
		t.Errorf("expected cache hits from repeated analyses, got %+v", s.Cache)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	e.Close() // idempotent
	_, err := e.Analyze(context.Background(), fixture.TaskSet(),
		AnalyzeSpec{Cores: fixture.M, Method: core.LPMax})
	if err != ErrClosed {
		t.Fatalf("Analyze after Close = %v, want ErrClosed", err)
	}

	// Close waits for every admitted job: the one running in the single
	// slot and the one waiting for it both run before Close returns.
	e = New(Config{Workers: 1})
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{})
	var firstDone, secondRan atomic.Bool
	errs := make(chan error, 2)
	go func() {
		_, err := e.Submit(ctx, JobAnalyze, func(context.Context) (any, error) {
			close(started)
			<-release
			firstDone.Store(true)
			return nil, nil
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err := e.Submit(ctx, JobAnalyze, func(context.Context) (any, error) {
			secondRan.Store(true)
			return nil, nil
		})
		errs <- err
	}()
	for e.Stats().QueueDepth < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("Close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !firstDone.Load() || !secondRan.Load() {
		t.Errorf("after Close: running job done = %v, waiting job ran = %v; want both",
			firstDone.Load(), secondRan.Load())
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("admitted job failed: %v", err)
		}
	}
	if _, err := e.Submit(ctx, JobAnalyze, func(context.Context) (any, error) {
		return nil, nil
	}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	e := testEngine(t, Config{Workers: 1})
	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		// Occupy the single slot.
		e.submit(context.Background(), JobAnalyze, func(context.Context) (any, error) {
			<-release
			return nil, nil
		})
	}()
	// Give the blocker time to take the slot.
	for e.Stats().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// Both submits wait for the one slot, which the blocker holds until
	// they are done: each must unblock on ctx expiry rather than hang,
	// and neither may run.
	var errs [2]error
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.submit(ctx, JobAnalyze, func(context.Context) (any, error) {
				t.Error("a submit ran although its context expired while it waited")
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	close(release)
	<-blockerDone
	for i, err := range errs {
		if err != context.DeadlineExceeded {
			t.Errorf("submit %d: error %v, want %v", i, err, context.DeadlineExceeded)
		}
	}
}

// TestConcurrentEngineHammer fans many mixed jobs over a few slots;
// with -race this certifies the slots and the shared cache together.
func TestConcurrentEngineHammer(t *testing.T) {
	e := testEngine(t, Config{Workers: 4, CacheEntries: 64})
	ctx := context.Background()
	ts := fixture.TaskSet()
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					method := core.Methods()[i%3]
					if _, err := e.Analyze(ctx, ts, AnalyzeSpec{Cores: fixture.M, Method: method}); err != nil {
						t.Errorf("analyze: %v", err)
					}
				case 1:
					if _, err := e.Simulate(ctx, ts, SimulateSpec{Cores: fixture.M, Duration: 200}); err != nil {
						t.Errorf("simulate: %v", err)
					}
				case 2:
					if _, err := e.Generate(ctx, GenerateSpec{Seed: int64(i), Utilization: 1.5}); err != nil {
						t.Errorf("generate: %v", err)
					}
				}
				e.Stats()
			}
		}(w)
	}
	wg.Wait()
	s := e.Stats()
	if s.JobsServed() != 12*20 {
		t.Errorf("JobsServed = %d, want %d", s.JobsServed(), 12*20)
	}
	if s.Failed != 0 {
		t.Errorf("%d jobs failed", s.Failed)
	}
}
