package blocking

// Suffix-incremental aggregation of the lower-priority blocking terms.
//
// The response-time analysis needs, for every task k of a priority
// ordering, the Δ^m/Δ^{m-1} interference of the suffix graphs[k+1:].
// Computing each suffix independently repeats almost all the work of its
// neighbour: the suffixes form a chain, each one the previous plus one
// task. A SuffixAggregator exploits that — tasks are pushed one at a
// time from the lowest priority upward, and after every push the
// aggregate equals exactly what Compute/ComputeFromMus would return for
// the set pushed so far:
//
//   - LP-max (Equation (5)) maintains the m and m-1 largest pooled NPRs
//     in two bounded min-heaps with running sums. A push costs
//     O(m log m); the sum of a fixed multiset's top-k elements does not
//     depend on insertion order, so the result is identical to pooling
//     and sorting all suffixes from scratch.
//   - LP-ILP (Equations (6)-(8)) maintains the deltaDP knapsack rows for
//     m and m-1 cores and extends them in place by one task per push
//     (O(m²)). deltaDP is a fold over tasks whose result is the maximum
//     over task-subset assignments, so it is insertion-order independent
//     too, and — as TestDeltaILPEqualsScenarioSweep pins — it equals the
//     PaperILP partition sweep for either backend's µ tables.
//
// Aggregating all n suffixes therefore costs what the old per-suffix
// code paid for the longest one alone: O(n·m²) instead of O(n²·m²) DP
// work, and zero allocations in steady state (Reset reuses the heaps and
// DP rows). This is also why suffix aggregates are never memoized in
// the content-addressed cache: an O(m) push from memoized µ tables is
// cheaper than hashing a suffix to key it, let alone looking it up —
// only the µ tables themselves (Mu, the clique search or ILP solve)
// clear that bar.
type SuffixAggregator struct {
	m      int
	method Method
	be     Backend

	// LP-max state.
	topM  topHeap
	topM1 topHeap

	// LP-ILP state: dpM[j] (dpM1[j]) is the best workload of distinct
	// pushed tasks on at most j of m (m-1) cores.
	dpM  []int64
	dpM1 []int64
}

// NewSuffixAggregator returns an empty aggregator for the given core
// count, method and backend. m must be ≥ 1.
func NewSuffixAggregator(m int, method Method, be Backend) *SuffixAggregator {
	a := &SuffixAggregator{}
	a.Reset(m, method, be)
	return a
}

// Reset empties the aggregator and re-parameterises it, reusing the
// internal buffers (no allocation once they have grown to the largest m
// seen).
func (a *SuffixAggregator) Reset(m int, method Method, be Backend) {
	a.m = m
	a.method = method
	a.be = be
	a.topM.reset(m)
	a.topM1.reset(m - 1)
	a.dpM = resetDP(a.dpM, m)
	a.dpM1 = resetDP(a.dpM1, max(m-1, 0))
}

// resetDP returns a zeroed DP row of cores+1 entries, reusing dp's
// backing array when large enough.
func resetDP(dp []int64, cores int) []int64 {
	if cap(dp) < cores+1 {
		return make([]int64, cores+1)
	}
	dp = dp[:cores+1]
	for i := range dp {
		dp[i] = 0
	}
	return dp
}

// PushTops adds one task by its non-increasing NPR list (as
// dag.(*Graph).SortedWCETs or TopNPRs return); entries beyond the m
// largest cannot contribute and are ignored. LP-max only.
func (a *SuffixAggregator) PushTops(tops []int64) {
	n := min(len(tops), a.m)
	for _, v := range tops[:n] {
		a.topM.add(v)
		a.topM1.add(v)
	}
}

// PushMu adds one task by its µ[c] table (computed for a.m cores, as
// Mu returns). LP-ILP only.
func (a *SuffixAggregator) PushMu(mu []int64) {
	dpPush(a.dpM, mu)
	dpPush(a.dpM1, mu)
}

// dpPush extends the deltaDP row by one task in place. Descending j
// keeps dp[j-c] at its pre-push value, so each task is assigned at most
// one core budget — the same recurrence as deltaDP's copy-based fold.
func dpPush(dp []int64, mu []int64) {
	cores := len(dp) - 1
	for j := cores; j >= 1; j-- {
		limit := min(j, len(mu))
		best := dp[j]
		for c := 1; c <= limit; c++ {
			best = max(best, dp[j-c]+mu[c-1])
		}
		dp[j] = best
	}
}

// Interference returns the Δ^m/Δ^{m-1} pair of the tasks pushed so far —
// exactly Compute (LP-max) or ComputeFromMus (LP-ILP) of that set.
func (a *SuffixAggregator) Interference() Interference {
	switch a.method {
	case LPMax:
		return Interference{DeltaM: a.topM.sum, DeltaM1: a.topM1.sum}
	case LPILP:
		in := Interference{DeltaM: a.dpM[len(a.dpM)-1]}
		if a.m > 1 {
			in.DeltaM1 = a.dpM1[len(a.dpM1)-1]
		}
		return in
	}
	return Interference{}
}

// SuffixCheckpoint is a saved SuffixAggregator state: the full aggregate
// after some number of pushes. Saving after every push of a bottom-up
// priority scan gives the incremental analyzer (rta.AnalyzeIncremental) a
// restart point for any edit position — editing priority k leaves the
// suffix below it untouched, so the scan resumes from the checkpoint
// taken after the unchanged tail was pushed instead of replaying it.
// A checkpoint is O(m) int64s; it is only valid for the (m, method,
// backend) parameterisation it was saved under, which the owning
// analyzer guards.
type SuffixCheckpoint struct {
	topMVals  []int64
	topMSum   int64
	topM1Vals []int64
	topM1Sum  int64
	dpM       []int64
	dpM1      []int64
}

// Save copies the aggregator's state into c, reusing c's buffers
// (allocation-free once they have grown).
func (a *SuffixAggregator) Save(c *SuffixCheckpoint) {
	c.topMVals = append(c.topMVals[:0], a.topM.vals...)
	c.topMSum = a.topM.sum
	c.topM1Vals = append(c.topM1Vals[:0], a.topM1.vals...)
	c.topM1Sum = a.topM1.sum
	c.dpM = append(c.dpM[:0], a.dpM...)
	c.dpM1 = append(c.dpM1[:0], a.dpM1...)
}

// Restore rewinds the aggregator to a previously saved state. The
// checkpoint must have been saved by this aggregator (or one with the
// same m/method/backend parameterisation) — Restore does not
// re-parameterise.
func (a *SuffixAggregator) Restore(c *SuffixCheckpoint) {
	a.topM.vals = append(a.topM.vals[:0], c.topMVals...)
	a.topM.sum = c.topMSum
	a.topM1.vals = append(a.topM1.vals[:0], c.topM1Vals...)
	a.topM1.sum = c.topM1Sum
	a.dpM = append(a.dpM[:0], c.dpM...)
	a.dpM1 = append(a.dpM1[:0], c.dpM1...)
}

// topHeap keeps the k largest values pushed so far in a min-heap with a
// running sum; adds beyond capacity displace the smallest kept value.
type topHeap struct {
	k    int
	vals []int64
	sum  int64
}

func (h *topHeap) reset(k int) {
	h.k = max(k, 0)
	h.vals = h.vals[:0]
	h.sum = 0
}

func (h *topHeap) add(v int64) {
	if h.k == 0 {
		return
	}
	if len(h.vals) < h.k {
		h.vals = append(h.vals, v)
		h.sum += v
		h.siftUp(len(h.vals) - 1)
		return
	}
	if v <= h.vals[0] {
		return
	}
	h.sum += v - h.vals[0]
	h.vals[0] = v
	h.siftDown(0)
}

func (h *topHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.vals[p] <= h.vals[i] {
			return
		}
		h.vals[p], h.vals[i] = h.vals[i], h.vals[p]
		i = p
	}
}

func (h *topHeap) siftDown(i int) {
	n := len(h.vals)
	for {
		s := i
		if l := 2*i + 1; l < n && h.vals[l] < h.vals[s] {
			s = l
		}
		if r := 2*i + 2; r < n && h.vals[r] < h.vals[s] {
			s = r
		}
		if s == i {
			return
		}
		h.vals[s], h.vals[i] = h.vals[i], h.vals[s]
		i = s
	}
}
