package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// maxConns is the load generator's connection budget: the host has two
// cores, shared with the server, so two connections keep both busy
// without the client becoming the bottleneck.
const maxConns = 2

// newClient returns an HTTP client that never opens more than maxConns
// connections to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// response is one completed HTTP exchange.
type response struct {
	status int
	header http.Header
	body   []byte
}

// call performs one request and reads the whole body, so the connection
// goes back to the pool.
func call(c *http.Client, method, url string, body []byte) (*response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// expect turns an unexpected status into an error.
func (r *response) expect(status int) error {
	if r.status != status {
		return fmt.Errorf("HTTP %d (want %d): %.200s", r.status, status, r.body)
	}
	return nil
}

// tally counts attempted, succeeded and failed operations per phase and
// operation class, so a run that sheds load cannot pass as faster.
type tally struct {
	mu   sync.Mutex
	rows map[[2]string]*tallyRow
}

type tallyRow struct{ attempted, ok, failed int }

func newTally() *tally { return &tally{rows: make(map[[2]string]*tallyRow)} }

// add records one operation; a nil error is a success.
func (t *tally) add(phase, class string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]string{phase, class}
	r := t.rows[k]
	if r == nil {
		r = &tallyRow{}
		t.rows[k] = r
	}
	r.attempted++
	if err != nil {
		r.failed++
	} else {
		r.ok++
	}
}

// totals sums every row.
func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rows {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// lines renders the rows in a stable order.
func (t *tally) lines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([][2]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		r := t.rows[k]
		out[i] = fmt.Sprintf("ops phase=%s class=%s attempted=%d ok=%d failed=%d", k[0], k[1], r.attempted, r.ok, r.failed)
	}
	return out
}

// closedLoop runs clients goroutines, each calling op with the next
// sequence number as soon as its previous call returned, until d has
// passed; an operation in flight at the deadline completes. It returns
// the elapsed time from start until the last operation finished.
func closedLoop(clients int, d time.Duration, op func(seq int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		seq int
	)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := seq
				seq++
				mu.Unlock()
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openResult is the outcome of an open-loop phase.
type openResult struct {
	// latency[i] runs from request i's due time to its completion, so a
	// stall is charged to every request queued behind it.
	latency []time.Duration
	// lag[i] is how late request i was actually sent.
	lag  []time.Duration
	errs []error
}

// openLoop issues n requests on a fixed schedule: request i is due at
// start + i/rate whatever happened to earlier ones. conns workers send
// them in order; a worker that picks up a request early sleeps until it
// is due, one that picks it up late sends at once and the delay counts.
func openLoop(rate float64, n, conns int, do func(i int) error) openResult {
	res := openResult{
		latency: make([]time.Duration, n),
		lag:     make([]time.Duration, n),
		errs:    make([]error, n),
	}
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range next {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				res.lag[i] = time.Since(due)
				res.errs[i] = do(i)
				res.latency[i] = time.Since(due)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return res
}

// windows splits a closed-loop phase into equal time windows by
// completion time, so metrics can be reported as medians over windows: a
// burst of CPU taken by neighbours on a shared host then moves a few
// windows instead of the result. Completions after the last window
// (operations in flight at the deadline) are left out.
type windows struct {
	start time.Time
	width time.Duration

	mu    sync.Mutex
	work  []float64   // units of work completed per window
	lat   [][]float64 // latency in ms per window
	cpu   []float64   // server CPU seconds at each window boundary
	errs  []error
	ready chan struct{}
}

// newWindows starts n windows of the given width now, sampling cpu at
// every boundary; wait blocks until the last sample is taken.
func newWindows(n int, width time.Duration, cpu func() (float64, error)) *windows {
	w := &windows{start: time.Now(), width: width, work: make([]float64, n), lat: make([][]float64, n), ready: make(chan struct{})}
	go func() {
		defer close(w.ready)
		for i := 0; i <= n; i++ {
			time.Sleep(time.Until(w.start.Add(time.Duration(i) * width)))
			v, err := cpu()
			w.mu.Lock()
			w.cpu = append(w.cpu, v)
			w.errs = append(w.errs, err)
			w.mu.Unlock()
		}
	}()
	return w
}

// add records one completion now, with its latency and work units.
func (w *windows) add(lat time.Duration, work float64) {
	i := int(time.Since(w.start) / w.width)
	w.mu.Lock()
	defer w.mu.Unlock()
	if i < len(w.work) {
		w.work[i] += work
		w.lat[i] = append(w.lat[i], ms(lat))
	}
}

// wait returns once the last CPU sample is taken, with the first
// sampling error.
func (w *windows) wait() error {
	<-w.ready
	for _, err := range w.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rates returns work per second in each window.
func (w *windows) rates() []float64 {
	xs := make([]float64, len(w.work))
	for i, v := range w.work {
		xs[i] = v / w.width.Seconds()
	}
	return xs
}

// latencies returns each window's p-th percentile latency.
func (w *windows) latencies(p float64) []float64 {
	var xs []float64
	for _, l := range w.lat {
		if len(l) > 0 {
			xs = append(xs, percentile(l, p))
		}
	}
	return xs
}

// cpuPerWork returns each window's server CPU microseconds per unit of
// work.
func (w *windows) cpuPerWork() []float64 {
	var xs []float64
	for i, v := range w.work {
		if v > 0 {
			xs = append(xs, 1e6*(w.cpu[i+1]-w.cpu[i])/v)
		}
	}
	return xs
}

// pooled returns every recorded latency.
func (w *windows) pooled() []float64 {
	var out []float64
	for _, l := range w.lat {
		out = append(out, l...)
	}
	return out
}
