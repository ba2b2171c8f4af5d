package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Get-or-create returns the same instance.
	if r.Counter("t_total", "help") != c {
		t.Fatal("counter lookup did not return the existing instance")
	}
	if r.Gauge("t_gauge", "help") != g {
		t.Fatal("gauge lookup did not return the existing instance")
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs", "kind", "analyze")
	b := r.Counter("jobs_total", "jobs", "kind", "simulate")
	if a == b {
		t.Fatal("distinct label values share a series")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total jobs\n",
		"# TYPE jobs_total counter\n",
		`jobs_total{kind="analyze"} 2` + "\n",
		`jobs_total{kind="simulate"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5) // +Inf overflow
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 6.05 {
		t.Fatalf("sum = %v, want 6.05", got)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 6.05
lat_seconds_count 4
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestFuncMetricsAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("zz_gauge", "late name first", func() float64 { return 7 })
	r.CounterFunc("aa_total", "early name second", func() float64 { return 3 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "aa_total 3\n") || !strings.Contains(out, "zz_gauge 7\n") {
		t.Fatalf("func metrics missing:\n%s", out)
	}
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_gauge") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", "path", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	r.WriteText(&sb)
	if want := `esc_total{path="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping: got\n%s\nwant line %q", sb.String(), want)
	}
}

func TestRedefinitionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type", func(r *Registry) { r.Gauge("x_total", "h") }},
		{"help", func(r *Registry) { r.Counter("x_total", "other") }},
		{"labels", func(r *Registry) { r.Counter("x_total", "h", "k", "v") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("x_total", "h")
			defer func() {
				if recover() == nil {
					t.Fatalf("redefinition with different %s did not panic", tc.name)
				}
			}()
			tc.fn(r)
		})
	}
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("9bad-name", "h")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "h")
	g := r.Gauge("a_gauge", "h")
	h := r.Histogram("a_seconds", "h", LatencyBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.Since(time.Now())
	r.CounterFunc("f_total", "h", func() float64 { return 1 })
	r.GaugeFunc("f_gauge", "h", func() float64 { return 1 })
	r.RegisterRuntime(time.Now())
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	var nt *Trace // nil trace fields are nil metrics
	nt = NewTrace(nil)
	if nt != nil {
		t.Fatal("NewTrace(nil) != nil")
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "h")
	g := r.Gauge("alloc_gauge", "h")
	h := r.Histogram("alloc_seconds", "h", LatencyBuckets)
	t0 := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		g.Add(1)
		h.Observe(0.01)
		h.Since(t0)
	}); n != 0 {
		t.Fatalf("hot path allocates %v allocs/op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(1) }); n != 0 {
		t.Fatalf("nil histogram allocates %v allocs/op, want 0", n)
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "h", SpanBuckets, "kind", "x")
	c := r.Counter("c_total", "h")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(1e-6)
				c.Inc()
			}
		}()
	}
	for r.Counter("c_total", "h").Value() < workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentRegisterAndScrape is the case the middleware exercises
// in production: new (route, status) series materialise while /metrics
// is being scraped. Under -race this pins that WriteText never reads a
// family's series map or order slice outside the registry lock, and
// that re-registering a func-backed series mid-scrape is safe.
func TestConcurrentRegisterAndScrape(t *testing.T) {
	r := NewRegistry()
	var writers, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() { // concurrent scrapers
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	const workers, perWorker = 4, 500
	codes := []string{"200", "400", "404", "500", "503"}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				route := "/v1/route" + strconv.Itoa(w*perWorker+i)
				r.Counter("reg_requests_total", "h",
					"route", route, "code", codes[i%len(codes)]).Inc()
				r.Histogram("reg_duration_seconds", "h", LatencyBuckets,
					"route", route).Observe(1e-3)
				r.GaugeFunc("reg_outstanding", "h", func() float64 { return float64(i) })
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\nreg_requests_total{"); got != workers*perWorker {
		t.Fatalf("exposition has %d reg_requests_total series, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketValidation(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	r.Histogram("bad_seconds", "h", []float64{1, 1})
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1\n") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntime(time.Now().Add(-3 * time.Second))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"lpdag_build_info{", "lpdag_uptime_seconds ", "go_goroutines ", "go_memstats_heap_inuse_bytes "} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}

func TestTraceResolvesAllSeries(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(r)
	if tr == nil || tr.SuffixPush == nil || tr.CacheLookup == nil ||
		tr.FixedPoint == nil || tr.FixedPointIters == nil || tr.FullRuns == nil {
		t.Fatal("NewTrace left fields nil with a live registry")
	}
	tr.FixedPoint.Observe(1e-6)
	tr.FixedPointIters.Observe(3)
	tr.FullRuns.Inc()
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "lpdag_analysis_fixed_point_seconds_count 1") {
		t.Fatalf("trace series not in exposition:\n%s", sb.String())
	}
}
