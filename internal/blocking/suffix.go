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
// the set pushed so far.
//
// Both methods are one fold: the deltaDP knapsack rows for m and m-1
// cores, extended in place by one task per push (O(m²)). LP-ILP
// (Equations (6)-(8)) pushes the task's µ table. LP-max (Equation (5))
// pushes the prefix sums of the task's non-increasing NPR list: taking
// c cores of that table yields the c largest NPRs, and because each
// such table is concave the knapsack's best use of j cores is the j
// largest pooled NPRs — exactly Equation (5). deltaDP is a fold over
// tasks whose result is the maximum over task-subset assignments, so it
// is insertion-order independent, and — as TestDeltaILPEqualsScenarioSweep
// pins — it equals the PaperILP partition sweep for either backend's µ
// tables.
//
// Aggregating all n suffixes therefore costs what the old per-suffix
// code paid for the longest one alone: O(n·m²) instead of O(n²·m²) DP
// work, and zero allocations in steady state (Reset reuses the DP
// rows). This is also why suffix aggregates are never memoized in the
// content-addressed cache: an O(m²) push from memoized tables is
// cheaper than hashing a suffix to key it, let alone looking it up —
// only the µ tables themselves (Mu, the clique search or ILP solve)
// clear that bar.
type SuffixAggregator struct {
	// dpM[j] (dpM1[j]) is the best workload of distinct pushed tasks
	// on at most j of m (m-1) cores.
	dpM  []int64
	dpM1 []int64

	// pre is PushTops' scratch for the prefix sums it folds.
	pre []int64
}

// NewSuffixAggregator returns an empty aggregator for m ≥ 1 cores. The
// fold is the same for every method and backend, so method and be are
// accepted for the callers that name them and otherwise ignored.
func NewSuffixAggregator(m int, method Method, be Backend) *SuffixAggregator {
	a := &SuffixAggregator{}
	a.Reset(m, method, be)
	return a
}

// Reset empties the aggregator and re-parameterises it for m cores,
// reusing the internal buffers (no allocation once they have grown to
// the largest m seen). Like NewSuffixAggregator, it ignores method and
// be.
func (a *SuffixAggregator) Reset(m int, _ Method, _ Backend) {
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
	clear(dp)
	return dp
}

// PushTops adds one task by its non-increasing NPR list (as
// dag.(*Graph).SortedWCETs or TopNPRs return) for LP-max: it folds the
// list's prefix sums, the task's best workload on c cores with
// precedence ignored, through the same knapsack as PushMu. Entries
// beyond the m largest cannot contribute and are ignored.
func (a *SuffixAggregator) PushTops(tops []int64) {
	a.pre = a.pre[:0]
	var sum int64
	for _, v := range tops[:min(len(tops), len(a.dpM)-1)] {
		sum += v
		a.pre = append(a.pre, sum)
	}
	a.PushMu(a.pre)
}

// PushMu adds one task by its µ[c] table (computed for m cores, as Mu
// returns) for LP-ILP.
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
// exactly Compute (LP-max) or ComputeFromMus (LP-ILP) of that set. On
// one core the m-1 row has no cores, so Δ^{m-1} is 0.
func (a *SuffixAggregator) Interference() Interference {
	return Interference{DeltaM: a.dpM[len(a.dpM)-1], DeltaM1: a.dpM1[len(a.dpM1)-1]}
}

// SuffixCheckpoint is a saved SuffixAggregator state: the two DP rows
// after some number of pushes. Saving after every push of a bottom-up
// priority scan gives the incremental analyzer (rta.AnalyzeIncremental) a
// restart point for any edit position — editing priority k leaves the
// suffix below it untouched, so the scan resumes from the checkpoint
// taken after the unchanged tail was pushed instead of replaying it.
// A checkpoint is O(m) int64s; it is only valid for the core count it
// was saved under, which the owning analyzer guards.
type SuffixCheckpoint struct {
	dpM  []int64
	dpM1 []int64
}

// Save copies the aggregator's state into c, reusing c's buffers
// (allocation-free once they have grown).
func (a *SuffixAggregator) Save(c *SuffixCheckpoint) {
	c.dpM = append(c.dpM[:0], a.dpM...)
	c.dpM1 = append(c.dpM1[:0], a.dpM1...)
}

// Restore rewinds the aggregator to a previously saved state. The
// checkpoint must have been saved by this aggregator (or one with the
// same core count) — Restore does not re-parameterise.
func (a *SuffixAggregator) Restore(c *SuffixCheckpoint) {
	a.dpM = append(a.dpM[:0], c.dpM...)
	a.dpM1 = append(a.dpM1[:0], c.dpM1...)
}
