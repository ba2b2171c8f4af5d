package rta

// The verdict helpers of verdict_test.go, for the scenario property
// test in package rta_test: it generates its sets through
// internal/experiments, which imports this package.
var (
	FullVerdict = fullVerdict
	VerdictOf   = verdictOf
	SameOutcome = sameOutcome
	HoldsNoMu   = holdsNoMu
)
