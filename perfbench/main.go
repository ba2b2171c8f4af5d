// Command perfbench is the repository benchmark: it drives one seeded
// workload against a freshly started lpdag-serve over loopback HTTP and
// prints every metric by name with its unit, checking every output it
// receives against an in-process reference.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -serve path/to/lpdag-serve -dir scratch-dir \
//	    --workload analyze|campaign|session --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics of the named
// workload with tracing off. With --trace 1 it replays the generated
// inputs of all three workloads in-process, timing each call into a
// layer's public functions, and prints the per-layer metrics. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. run.sh builds the server and this program and
// runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// run is the state of one benchmark invocation.
type run struct {
	serve    string // lpdag-serve binary
	dir      string // scratch directory inside the checkout
	seed     int64
	duration time.Duration
	client   *http.Client
	tally    *tally

	metrics []metric // printed in the final JSON object

	mu         sync.Mutex // guards notes and mismatches, which clients add to
	notes      []string   // printed as lines before the JSON object
	mismatches int
}

// metric records one reported number. A metric without samples is a
// failed run, not a zero.
func (r *run) metric(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.mismatch("metric %s has no samples", name)
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a verification failure; the first few are described.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	r.mismatches++
	n := r.mismatches
	r.mu.Unlock()
	if n <= 5 {
		r.note("MISMATCH "+format, args...)
	}
}

// e2eRounds is how many rounds or windows an end-to-end run is cut into;
// its wall-clock and CPU figures are medians over them.
const e2eRounds = 8

// workloads maps a workload name to its end-to-end run.
var workloads = map[string]func(*run) error{
	"analyze":  analyzeE2E,
	"campaign": campaignE2E,
	"session":  sessionE2E,
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "analyze | campaign | session")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		serve    = fs.String("serve", "", "lpdag-serve binary to launch")
		dir      = fs.String("dir", "", "scratch directory for session stores and trace dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e2e, ok := workloads[*workload]
	if !ok || *serve == "" || *dir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload analyze|campaign|session, -serve, -dir, --seconds > 0, --trace 0|1")
		return 2
	}
	// The host has two cores; the load generator never uses more.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		serve:    *serve,
		dir:      *dir,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		client:   newClient(),
		tally:    newTally(),
	}
	var err error
	if *trace == 1 {
		err = tracedAll(r, filepath.Join(*dir, "trace-"+*workload+".jsonl"))
	} else {
		err = e2e(r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, l := range r.tally.lines() {
		fmt.Fprintln(stdout, l)
	}
	attempted, failed := r.tally.totals()
	correct := r.mismatches == 0 && failed == 0 && attempted > 0
	fmt.Fprintf(stdout, "verification mismatches=%d failed=%d attempted=%d fail_frac=%.6f\n",
		r.mismatches, failed, attempted, float64(failed)/math.Max(1, float64(attempted)))
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, attempted, failed, make(map[string]map[string]any)}
	for _, m := range r.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !correct {
		return 1
	}
	return 0
}

// tracedAll runs the traced replay of every workload, splitting the
// measured time evenly, and dumps all spans to path.
func tracedAll(r *run, path string) error {
	share := r.duration / 3
	t := newTracer()
	for _, f := range []func(*run, *tracer, time.Duration) error{analyzeTraced, campaignTraced, sessionTraced} {
		if err := f(r, t, share); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(t.counts) {
		r.note("count %s %d", k, t.counts[k])
	}
	return t.write(path)
}
