// Command lpdag-bench runs the tracked performance benchmarks and
// maintains BENCH_analyze.json: the repo's measured perf trajectory.
//
// Usage:
//
//	lpdag-bench [-bench regex] [-count n] [-benchtime t] [-pkg pattern]
//	            [-label s] [-out file] [-baseline file] [-max-regress pct]
//
// It shells out to `go test -run=^$ -bench ... -benchmem -count n`,
// parses the standard benchmark output, and condenses each benchmark to
// its best (minimum) ns/op across the count repetitions with the
// matching B/op and allocs/op — the benchstat-style "min damps noise"
// reading, which suits the CI boxes these runs share.
//
// With -baseline it compares the fresh numbers against the LAST entry
// of the baseline trajectory and exits 1 when, for any benchmark
// present in both:
//
//   - allocs/op grew by more than 1% + 1 (allocation counts are mostly
//     deterministic, but one-time warm-up allocations — scratch growth,
//     cache fills — amortize differently at different -benchtime, so an
//     exact gate would flake; steady-state zero-alloc is asserted
//     exactly by TestAnalyzerSteadyStateZeroAlloc instead), or
//   - ns/op regressed by more than -max-regress percent, except for
//     SessionEditDurable, whose ns/op its budget row alone judges.
//
// Independently of any baseline, every run checks the standing gates:
//
//   - cache inversion: if both engine-sweep benchmarks are present,
//     EngineCachedSweep exceeding EngineUncachedSweep (ns/op beyond a
//     small noise slack, or allocs/op at all) exits 1 — the cache
//     paying for itself is an invariant, not a point-in-time
//     comparison;
//   - the absolute budgets of the Budgets table: one benchmark's
//     metric above its bound exits 1, whatever the baseline says.
//
// With -out it appends the fresh entry to the trajectory file (creating
// it when missing) so each PR can land its measured point.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Measurement is one benchmark's condensed result.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Entry is one point of the perf trajectory.
type Entry struct {
	Label      string                 `json:"label"`
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go"`
	Count      int                    `json:"count"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// Trajectory is the BENCH_analyze.json document: oldest entry first.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

// DefaultBench is the tracked benchmark set.
const DefaultBench = "^(BenchmarkAnalyzePoint|BenchmarkCampaignThroughput|BenchmarkEngineUncachedSweep|BenchmarkEngineCachedSweep|BenchmarkSessionEdit|BenchmarkSessionEditDurable|BenchmarkSessionAdmitProbe|BenchmarkSessionRepair|BenchmarkRepairSearch|BenchmarkServeAnalyze|BenchmarkServeSessionQuery|BenchmarkServeDecode|BenchmarkServeBuild|BenchmarkMuTableCold|BenchmarkMuTableRandom)$"

// Budget is one standing absolute gate: Bench's Metric ("ns/op",
// "B/op" or "allocs/op") may not exceed Max. Unlike Compare the bound is not
// relative to a baseline — small per-PR creep can pass a relative gate
// every time yet compound, and an fsync-bound op gated against last
// run's numbers would only measure one CI disk against another.
type Budget struct {
	Bench  string // benchmark name without the "Benchmark" prefix
	Metric string
	Max    float64
	Why    string // what crossing the bound means
}

// Budgets is the standing budget table.
var Budgets = []Budget{
	// One full campaign (generation, three methods, streaming) per op.
	// The pooled solver and wire codecs brought it from ~362k to ~60k
	// allocs, pooled builders and run classes and leaving the µ-table
	// cache to ~7.5k, graphs of three allocations with their build
	// scratch on the Builder to ~5.2k, recycling each point's graphs to
	// ~2.6k allocs and 90 KB (from 1.72 MB), and LP-ILP verdicts that
	// solve µ tables only where the bracket leaves them open to ~2.1k
	// allocs and 67 KB; 1.5× headroom passes noise, while any per-graph
	// or per-result allocation creeping back (it multiplies by the
	// graph or point count) fails.
	{"CampaignThroughput", "allocs/op", 3200,
		"per-graph or per-result allocation is back on the campaign path"},
	{"CampaignThroughput", "B/op", 100e3,
		"campaign graphs, splits or generator registers are allocated fresh again"},
	// One cold m = 16 table for each of 18 graphs per op. The run
	// classes and the clique search live in pooled scratch, so a table
	// allocates only itself: 18 allocs; 1.5× headroom passes the pool
	// refills after a GC, while a per-graph scratch allocation back on
	// the cold path (36) fails.
	{"MuTableCold", "allocs/op", 27,
		"a cold µ solve allocates more than its table again"},
	// One edit + report + snapshot append + fsync per op: 25 ms is an
	// order of magnitude over a worst-case rotational fsync, so only a
	// second fsync on the commit path, compaction under the append lock
	// or a quadratic snapshot encode can cross it.
	{"SessionEditDurable", "ns/op", 25e6,
		"something structural joined the durable commit path"},
	// One greedy repair search (query mode) behind an interactive verb;
	// it lands well under 0.1 ms, so 10 ms catches candidate generation
	// going quadratic or a candidate re-solving the µ tables of graphs
	// its transform left alone, not machine variation.
	{"SessionRepair", "ns/op", 10e6,
		"the greedy search path regressed structurally"},
	// One 16-set /v1/analyze batch per op: decode, graph builds, µ
	// tables, analysis and encode. It stands at ~400 allocs, three per
	// graph built; 1.5× headroom passes warm-up noise, while an
	// allocation per graph, node or edge back in the decode or build
	// layer fails.
	{"ServeAnalyze", "allocs/op", 600,
		"a per-node or per-edge allocation is back on the serving path"},
	// One session GET …/report and POST …/admit per op, both answering
	// the 16-task report. It stands at 77 allocs; json.Encoder's
	// reflect-and-indent pass over the two reports took 114, so the
	// bound fails if a report body leaves the appender.
	{"ServeSessionQuery", "allocs/op", 110,
		"a session report is encoded by reflection again"},
}

// Iterations fixes the op count of rows too slow for -benchtime: ~30
// MuTableRandom ops read 4 or 8 allocs/op from run to run, 300 read 4.
var Iterations = map[string]int{"MuTableRandom": 300}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpdag-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", DefaultBench, "benchmark regex passed to go test -bench")
		count      = fs.Int("count", 3, "repetitions per benchmark (best of n is recorded)")
		benchtime  = fs.String("benchtime", "", "go test -benchtime (empty = go default)")
		pkg        = fs.String("pkg", ".", "package pattern to benchmark")
		label      = fs.String("label", "", "entry label (default: bench-<date>)")
		out        = fs.String("out", "", "trajectory file to append the entry to")
		baseline   = fs.String("baseline", "", "trajectory file to regress against (its last entry)")
		maxRegress = fs.Float64("max-regress", 20, "max tolerated ns/op regression in percent")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	goBench := func(bench, benchtime string) (map[string]Measurement, error) {
		cmdArgs := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
			"-count", strconv.Itoa(*count)}
		if benchtime != "" {
			cmdArgs = append(cmdArgs, "-benchtime", benchtime)
		}
		cmd := exec.Command("go", append(cmdArgs, *pkg)...)
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(cmdArgs, " "), err, raw)
		}
		fmt.Fprintf(stdout, "%s", raw)
		return ParseBenchOutput(strings.NewReader(string(raw)))
	}
	benches, err := goBench(*bench, *benchtime)
	for name, n := range Iterations {
		if _, ok := benches[name]; !ok || err != nil {
			continue
		}
		var fixed map[string]Measurement
		if fixed, err = goBench("^Benchmark"+name+"$", strconv.Itoa(n)+"x"); err == nil {
			benches[name] = fixed[name]
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-bench: %v\n", err)
		return 1
	}
	if len(benches) == 0 {
		fmt.Fprintf(stderr, "lpdag-bench: no benchmarks matched %q\n", *bench)
		return 1
	}
	entry := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Count:      *count,
		Benchmarks: benches,
	}
	if entry.Label == "" {
		entry.Label = "bench-" + entry.Date
	}

	status := 0
	for _, inv := range CheckInversion(entry) {
		fmt.Fprintf(stderr, "lpdag-bench: INVERSION: %s\n", inv)
		status = 1
	}
	for _, over := range CheckBudgets(entry, Budgets) {
		fmt.Fprintf(stderr, "lpdag-bench: BUDGET: %s\n", over)
		status = 1
	}
	if *baseline != "" {
		base, err := ReadTrajectory(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-bench: baseline: %v\n", err)
			return 1
		}
		if len(base.Entries) == 0 {
			fmt.Fprintf(stderr, "lpdag-bench: baseline %s has no entries\n", *baseline)
			return 1
		}
		last := base.Entries[len(base.Entries)-1]
		regressions := Compare(last, entry, *maxRegress)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "lpdag-bench: REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			status = 1
		} else {
			fmt.Fprintf(stderr, "lpdag-bench: no regressions vs %q (gate: allocs +1%%+1, ns/op +%.0f%%)\n",
				last.Label, *maxRegress)
		}
	}

	if *out != "" {
		traj, err := ReadTrajectory(*out)
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "lpdag-bench: out: %v\n", err)
			return 1
		}
		traj.Entries = append(traj.Entries, entry)
		if err := WriteTrajectory(*out, traj); err != nil {
			fmt.Fprintf(stderr, "lpdag-bench: out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "lpdag-bench: appended entry %q to %s (%d entries)\n",
			entry.Label, *out, len(traj.Entries))
	}
	return status
}

// benchLineRE matches `go test -bench -benchmem` result lines, e.g.
// "BenchmarkAnalyzePoint-8  1000  710 ns/op  0 B/op  0 allocs/op".
var benchLineRE = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// ParseBenchOutput condenses benchmark output to the best (minimum)
// value of each column per benchmark name across repetitions. Each
// column takes its own minimum: a pooled scratch refilled after a GC
// adds an allocation to whichever repetition pays for it, so the
// fastest repetition's memory columns would move with GC timing.
func ParseBenchOutput(r io.Reader) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
		}
		meas := Measurement{NsPerOp: ns}
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			meas.BytesPerOp = int64(b)
		}
		if m[4] != "" {
			a, _ := strconv.ParseFloat(m[4], 64)
			meas.AllocsPerOp = int64(a)
		}
		if prev, ok := out[name]; ok {
			meas.NsPerOp = min(meas.NsPerOp, prev.NsPerOp)
			meas.BytesPerOp = min(meas.BytesPerOp, prev.BytesPerOp)
			meas.AllocsPerOp = min(meas.AllocsPerOp, prev.AllocsPerOp)
		}
		out[name] = meas
	}
	return out, sc.Err()
}

// inversionNsSlack is the multiplicative tolerance of the cache
// inversion gate's ns/op leg. Both sweeps analyze fresh clones of the
// same graphs, the cached one fetching every µ table by fingerprint
// and the uncached one solving it, so a working cache leaves the
// cached sweep several times faster; 5% absorbs run-to-run noise
// should the two ever come close, while still catching anything like
// the 2× inversion the gate exists for. The allocs/op leg is exact —
// allocation counts are deterministic.
const inversionNsSlack = 1.05

// CheckInversion enforces the cache's reason to exist: on the
// recurring-workload sweep, running WITH the cache must not be slower
// or more allocation-heavy than running without it. Returns violation
// descriptions for the entry, empty when the gate passes or either
// benchmark is absent (a partial -bench run can't judge).
func CheckInversion(e Entry) []string {
	cached, okC := e.Benchmarks["EngineCachedSweep"]
	uncached, okU := e.Benchmarks["EngineUncachedSweep"]
	if !okC || !okU {
		return nil
	}
	var out []string
	if cached.NsPerOp > uncached.NsPerOp*inversionNsSlack {
		out = append(out, fmt.Sprintf(
			"EngineCachedSweep %.4g ns/op exceeds EngineUncachedSweep %.4g ns/op (+%.0f%% slack): the cache costs more than it saves",
			cached.NsPerOp, uncached.NsPerOp, 100*(inversionNsSlack-1)))
	}
	if cached.AllocsPerOp > uncached.AllocsPerOp {
		out = append(out, fmt.Sprintf(
			"EngineCachedSweep %d allocs/op exceeds EngineUncachedSweep %d: the cache allocates on the hot path",
			cached.AllocsPerOp, uncached.AllocsPerOp))
	}
	return out
}

// CheckBudgets returns one violation per budget whose benchmark is in
// the entry and over its bound; a benchmark absent from the entry (a
// partial -bench run) can't be judged and passes.
func CheckBudgets(e Entry, budgets []Budget) []string {
	var out []string
	for _, b := range budgets {
		m, ok := e.Benchmarks[b.Bench]
		if !ok {
			continue
		}
		got := m.NsPerOp
		switch b.Metric {
		case "allocs/op":
			got = float64(m.AllocsPerOp)
		case "B/op":
			got = float64(m.BytesPerOp)
		}
		if got > b.Max {
			out = append(out, fmt.Sprintf("%s %.6g %s exceeds the budget %.6g: %s",
				b.Bench, got, b.Metric, b.Max, b.Why))
		}
	}
	return out
}

// diskBound is the benchmark whose ns/op only its Budgets row judges:
// its op is an fsync, whose time moves 2× between runs of one binary.
const diskBound = "SessionEditDurable"

// Compare reports the regressions of cur vs base: an allocs/op increase
// beyond 1% + 1 (warm-up allocations amortize differently at different
// -benchtime, so exact equality flakes), or an ns/op slowdown beyond
// maxRegressPct (except for diskBound), for benchmarks present in both
// entries. Benchmarks only on one side are ignored (new benchmarks must
// be able to land without a baseline).
func Compare(base, cur Entry, maxRegressPct float64) []string {
	var out []string
	for name, b := range base.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			continue
		}
		if allowed := b.AllocsPerOp + b.AllocsPerOp/100 + 1; c.AllocsPerOp > allowed {
			out = append(out, fmt.Sprintf("%s: allocs/op %d -> %d (> %d, the 1%%+1 tolerance)",
				name, b.AllocsPerOp, c.AllocsPerOp, allowed))
		}
		if b.NsPerOp > 0 && name != diskBound {
			pct := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
			if pct > maxRegressPct {
				out = append(out, fmt.Sprintf("%s: ns/op %.4g -> %.4g (%+.1f%% > %+.1f%%)",
					name, b.NsPerOp, c.NsPerOp, pct, maxRegressPct))
			}
		}
	}
	return out
}

// ReadTrajectory loads a trajectory file; a missing file yields an
// empty trajectory and an os.IsNotExist error the caller may ignore.
func ReadTrajectory(path string) (Trajectory, error) {
	var t Trajectory
	data, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// WriteTrajectory stores the trajectory, indented for reviewable diffs.
func WriteTrajectory(path string, t Trajectory) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
