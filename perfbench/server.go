package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverWorkers is the -workers value every measured server runs with:
// one per core of the two-core host.
const serverWorkers = 2

// setupLaunches is how many times a run starts the server to time
// set-up; the median is reported and the last launch serves the load.
const setupLaunches = 21

// server is one running lpdag-serve process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	setup time.Duration
	logs  chan struct{} // closed when the stderr drain ends
}

// startServer execs bin on a free loopback port and returns once
// /healthz has answered 200; setup is the time from exec to that answer.
func startServer(bin string, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serverWorkers)}, extra...)
	cmd := exec.Command(bin, args...)
	// A benchmark killed mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- strings.TrimSpace(rest)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		io.Copy(io.Discard, stderr)
	}()
	var a string
	select {
	case got, ok := <-addr:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("%s exited before listening", bin)
		}
		a = got
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	s.base = "http://" + a
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, fmt.Errorf("%s: /healthz never answered 200", bin)
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(t0)
	c.CloseIdleConnections()
	return s, nil
}

// launch starts the server setupLaunches times, stopping all but the
// last, and returns that one with the median set-up time in seconds.
// dirArgs, when non-nil, supplies per-launch extra arguments (a fresh
// session directory for each).
func launch(bin string, dirArgs func(i int) []string) (*server, float64, error) {
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		var extra []string
		if dirArgs != nil {
			extra = dirArgs(i)
		}
		s, err := startServer(bin, extra...)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == setupLaunches-1 {
			return s, median(setups), nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within the drain budget.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		<-s.logs
		if err != nil {
			return fmt.Errorf("lpdag-serve exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
		<-s.logs
		return fmt.Errorf("lpdag-serve did not drain within 20s")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSeconds returns the server's user plus system CPU time so far.
// Time the host steals from the virtual CPU is not charged to it, which
// makes CPU per operation steadier than wall-clock rates on a shared
// host.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return (ut + st) / 100, nil
}

// getJSON decodes a GET endpoint's JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	r, err := call(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if err := r.expect(http.StatusOK); err != nil {
		return err
	}
	return json.Unmarshal(r.body, v)
}

// scrape reads a Prometheus text exposition into series name (with its
// label set, as printed) → value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	r, err := call(c, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if err := r.expect(http.StatusOK); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// histMeanMS returns the mean of a seconds histogram between two
// scrapes, in milliseconds, and the number of observations it covers.
func histMeanMS(before, after map[string]float64, name string) (float64, float64) {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0, 0
	}
	return 1000 * (after[name+"_sum"] - before[name+"_sum"]) / n, n
}
