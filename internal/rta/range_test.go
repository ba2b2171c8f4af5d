package rta

import (
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"strconv"
	"testing"

	"repro/internal/dag"
	"repro/internal/model"
)

// rangeSet decodes a fuzz input into a set of at most four tasks of one
// to three nodes, wired by any of the eight forward-edge masks on three
// nodes, with WCETs, deadlines and periods spread across [1, 2^maxBits]
// (a byte picks each value's bit length, maxBits ≤ 62), the tasks named
// t0, t1, ... in priority order. It reports false when a task's volume
// leaves int64, which dag.Build refuses.
func rangeSet(data []byte, maxBits uint64) (*model.TaskSet, bool) {
	next := func(n int) uint64 {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return binary.LittleEndian.Uint64(b[:])
	}
	value := func() int64 {
		bits := next(1) % (maxBits + 1)
		return 1 + int64(next(8)%(uint64(1)<<bits))
	}
	ts := &model.TaskSet{}
	for range 1 + next(1)%4 {
		n := 1 + int(next(1)%3)
		mask := next(1)
		var b dag.Builder
		for range n {
			b.AddNode(value())
		}
		for i, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			if mask&(1<<i) != 0 && e[1] < n {
				b.AddEdge(e[0], e[1])
			}
		}
		g, err := b.Build()
		if err != nil {
			return nil, false
		}
		d, p := value(), value()
		ts.Tasks = append(ts.Tasks, &model.Task{Name: "t" + strconv.Itoa(len(ts.Tasks)), G: g, Deadline: min(d, p), Period: max(d, p)})
	}
	return ts, true
}

// bigMu returns µ[c] for c = 0..3 of g by brute force: the heaviest c
// pairwise-parallel nodes, 0 when there are none.
func bigMu(g *dag.Graph) [4]*big.Int {
	par := g.IsParallelMatrix()
	var mu [4]*big.Int
	for c := range mu {
		mu[c] = new(big.Int)
	}
	for set := 1; set < 1<<g.N(); set++ {
		var nodes []int
		for v := range g.N() {
			if set&(1<<v) != 0 {
				nodes = append(nodes, v)
			}
		}
		w, ok := new(big.Int), true
		for i, u := range nodes {
			w.Add(w, big.NewInt(g.WCET(u)))
			for _, v := range nodes[:i] {
				ok = ok && par[u][v]
			}
		}
		if c := len(nodes); ok && w.Cmp(mu[c]) > 0 {
			mu[c] = w
		}
	}
	return mu
}

// bigDelta returns Δ^cores of the lower-priority graphs lp: for LP-ILP
// the best Σ µ_i[c_i] over distinct tasks with Σ c_i ≤ cores, for
// LP-max the cores largest NPRs pooled (Equation (5)).
func bigDelta(lp []*dag.Graph, cores int, method Method) *big.Int {
	if method == LPMax {
		var pool []int64
		for _, g := range lp {
			pool = append(pool, g.WCETs()...)
		}
		sum := new(big.Int)
		for range min(cores, len(pool)) {
			best := 0
			for i, c := range pool {
				if c > pool[best] {
					best = i
				}
			}
			sum.Add(sum, big.NewInt(pool[best]))
			pool = append(pool[:best], pool[best+1:]...)
		}
		return sum
	}
	best := new(big.Int)
	var walk func(i, left int, sum *big.Int)
	walk = func(i, left int, sum *big.Int) {
		if i == len(lp) {
			if sum.Cmp(best) > 0 {
				best.Set(sum)
			}
			return
		}
		mu := bigMu(lp[i])
		for c := 0; c <= min(left, 3); c++ {
			walk(i+1, left-c, new(big.Int).Add(sum, mu[c]))
		}
	}
	walk(0, cores, new(big.Int))
	return best
}

// bigResult is one task's fixed point evaluated in math/big.
type bigResult struct {
	analyzed, schedulable bool
	rm, deltaM, deltaM1   *big.Int
	iterations            int
}

// bigAnalyze evaluates the m-scaled fixed point of every task of ts in
// math/big, exactly as AnalyzeInPlace defines it, stopping after
// maxIter iterations of any task (ok false).
func bigAnalyze(ts *model.TaskSet, cfg Config, maxIter int) (out []bigResult, ok bool) {
	m := big.NewInt(int64(cfg.M))
	rms := make([]*big.Int, len(ts.Tasks))
	schedulable := true
	for k, task := range ts.Tasks {
		res := bigResult{deltaM: new(big.Int), deltaM1: new(big.Int)}
		if !schedulable {
			out = append(out, res)
			continue
		}
		res.analyzed = true
		var lp []*dag.Graph
		for _, u := range ts.Tasks[k+1:] {
			lp = append(lp, u.G)
		}
		if cfg.Method != FPIdeal {
			res.deltaM, res.deltaM1 = bigDelta(lp, cfg.M, cfg.Method), bigDelta(lp, cfg.M-1, cfg.Method)
		}
		g := task.G
		sinkC := int64(0)
		if cfg.FinalNPRRefinement && cfg.Method != FPIdeal {
			if sinks := g.Sinks(); len(sinks) == 1 && g.N() > 1 {
				sinkC = g.WCET(sinks[0])
			}
		}
		l, vol := big.NewInt(g.LongestPath()), big.NewInt(g.Volume())
		sinkCm := new(big.Int).Mul(m, big.NewInt(sinkC))
		base := new(big.Int).Mul(m, new(big.Int).Sub(l, big.NewInt(sinkC)))
		base.Add(base, new(big.Int).Sub(vol, l))
		dm := new(big.Int).Mul(m, big.NewInt(task.Deadline))
		q := big.NewInt(int64(g.PreemptionPoints()))
		cur := new(big.Int).Set(base)
		converged := false
		for it := 1; ; it++ {
			if it > maxIter {
				return nil, false
			}
			res.iterations = it
			ihp, hk := new(big.Int), new(big.Int)
			for i := range k {
				hv, period := big.NewInt(ts.Tasks[i].G.Volume()), new(big.Int).Mul(m, big.NewInt(ts.Tasks[i].Period))
				x := new(big.Int).Add(cur, rms[i])
				if x.Sub(x, hv); x.Sign() > 0 {
					quo, rem := new(big.Int).QuoRem(x, period, new(big.Int))
					ihp.Add(ihp, quo.Mul(quo, hv))
					if rem.Cmp(hv) < 0 {
						ihp.Add(ihp, rem)
					} else {
						ihp.Add(ihp, hv)
					}
				}
				up := new(big.Int).Add(cur, period)
				hk.Add(hk, up.Quo(up.Sub(up, big.NewInt(1)), period))
			}
			pk := q
			if hk.Cmp(q) < 0 {
				pk = hk
			}
			ilp := new(big.Int)
			if cfg.Method != FPIdeal {
				ilp.Add(res.deltaM, new(big.Int).Mul(pk, res.deltaM1))
			}
			sum := new(big.Int).Add(ilp, ihp)
			nxt := new(big.Int).Add(base, sum.Mul(sum.Quo(sum, m), m))
			if nxt.Cmp(cur) == 0 {
				converged = true
				break
			}
			cur = nxt
			if new(big.Int).Add(cur, sinkCm).Cmp(dm) > 0 {
				break
			}
		}
		res.rm = new(big.Int).Add(cur, sinkCm)
		res.schedulable = converged && res.rm.Cmp(dm) <= 0
		rms[k] = res.rm
		schedulable = schedulable && res.schedulable
		out = append(out, res)
	}
	return out, true
}

// FuzzFixedPointRange pins the no-wrap rule of the m-scaled analysis:
// on sets of at most four small tasks whose values span [1, 2^62], on
// 1 to 64 cores, under every method, an analysis either refuses with a
// *RangeError or equals the math/big evaluation of the same fixed point
// term for term. Sets whose values stay below 2^20 are never refused.
func FuzzFixedPointRange(f *testing.F) {
	// v encodes a value in [1, 2^62] the way rangeSet reads one.
	v := func(x int64) []byte { return binary.LittleEndian.AppendUint64([]byte{62}, uint64(x-1)) }
	task := func(n, mask byte, values ...int64) []byte {
		out := []byte{n - 1, mask}
		for _, x := range values {
			out = append(out, v(x)...)
		}
		return out
	}
	set := func(tasks ...[]byte) []byte {
		out := []byte{byte(len(tasks) - 1)}
		for _, t := range tasks {
			out = append(out, t...)
		}
		return out
	}
	probe := task(1, 0, 1<<62, 1<<62, 1<<62) // once R = −1537228672809129300 on m = 3
	f.Add(uint8(2), uint8(LPILP), false, set(probe))
	f.Add(uint8(0), uint8(FPIdeal), false, set(probe))
	f.Add(uint8(3), uint8(LPMax), true, set(task(3, 3, 7, 9, 4, 40, 50), task(2, 1, 1<<40, 1<<41, 1<<61, 1<<62)))
	f.Add(uint8(63), uint8(LPILP), false, set(task(1, 0, 5, 100, 100), task(3, 0, 1<<60, 1<<60, 1<<60, 1<<62, 1<<62)))
	f.Add(uint8(15), uint8(LPILP), true, set(task(2, 1, 3, 4, 30, 40), task(3, 2, 1, 2, 3, 60, 90), task(1, 0, 9, 200, 200), task(3, 7, 5, 5, 5, 500, 500)))
	f.Fuzz(func(t *testing.T, cores, method uint8, finalNPR bool, data []byte) {
		cfg := Config{M: 1 + int(cores)%64, Method: Method(method % 3), FinalNPRRefinement: finalNPR}
		ts, ok := rangeSet(data, 62)
		if !ok {
			return
		}
		a, err := NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeInPlace(context.Background(), ts)
		var re *RangeError
		if errors.As(err, &re) {
			small := true
			for _, task := range ts.Tasks {
				small = small && task.Deadline < 1<<20 && task.Period < 1<<20 && task.G.MaxWCET() < 1<<20
			}
			if small {
				t.Fatalf("refused a set below 2^20: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, ok := bigAnalyze(ts, cfg, 10_000)
		if !ok {
			return // too slow to evaluate in math/big
		}
		for k, w := range want {
			got := res.Tasks[k]
			if got.Analyzed != w.analyzed || got.Schedulable != w.schedulable {
				t.Fatalf("task %d: analyzed %v schedulable %v, math/big %v %v", k, got.Analyzed, got.Schedulable, w.analyzed, w.schedulable)
			}
			if !w.analyzed {
				continue
			}
			if got.DeltaM != w.deltaM.Int64() || !w.deltaM.IsInt64() || got.DeltaM1 != w.deltaM1.Int64() || !w.deltaM1.IsInt64() {
				t.Fatalf("task %d: Δ %d/%d, math/big %v/%v", k, got.DeltaM, got.DeltaM1, w.deltaM, w.deltaM1)
			}
			if !w.rm.IsInt64() || got.ResponseTimeM != w.rm.Int64() || got.Iterations != w.iterations {
				t.Fatalf("task %d: Rm %d after %d iterations, math/big %v after %d", k, got.ResponseTimeM, got.Iterations, w.rm, w.iterations)
			}
			ceil := new(big.Int).Add(w.rm, big.NewInt(int64(cfg.M-1)))
			if ceil.Quo(ceil, big.NewInt(int64(cfg.M))); got.ResponseTimeCeil(cfg.M) != ceil.Int64() {
				t.Fatalf("task %d: ⌈R⌉ %d, math/big %v", k, got.ResponseTimeCeil(cfg.M), ceil)
			}
		}
	})
}

// TestWrapProbeRefused pins the probe whose bound once wrapped: one
// node of WCET 2^62 with D = T = 2^62 read SCHEDULABLE with R =
// −1537228672809129300 on three cores and R = 0 on four. Both are
// refused naming the task; on one core the same task analyzes to its
// exact bound 2^62.
func TestWrapProbeRefused(t *testing.T) {
	ts, _ := model.NewTaskSet(&model.Task{Name: "huge", G: chain([]int64{1 << 62}), Deadline: 1 << 62, Period: 1 << 62})
	for _, m := range []int{3, 4, 64} {
		_, err := Analyze(context.Background(), ts, Config{M: m, Method: LPILP})
		var re *RangeError
		if !errors.As(err, &re) || re.Task != "huge" || re.M != m {
			t.Errorf("m = %d: error %v, want a RangeError naming the task", m, err)
		}
	}
	res, err := Analyze(context.Background(), ts, Config{M: 1, Method: LPILP})
	if err != nil || !res.Schedulable || res.Tasks[0].ResponseTimeM != 1<<62 {
		t.Fatalf("m = 1: %+v, %v; want schedulable at 2^62", res, err)
	}
}
